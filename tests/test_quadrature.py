import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from levyfluct import QuadratureFailure
from levyfluct._quadrature import _adaptive, integrate_finite, integrate_semiinfinite


def test_failure_raises_without_warning_from_threads():
    # sin(1/x) exhausts the 200 subdivisions; the failure must surface as
    # QuadratureFailure in every thread, with no IntegrationWarning and no
    # change to the process-wide warning filters
    def run(_):
        with pytest.raises(QuadratureFailure):
            integrate_finite(lambda x: math.sin(1.0 / x), 1e-4, 1.0)
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = list(warnings.filters)
            with ThreadPoolExecutor(max_workers=4) as pool:
                done = list(pool.map(run, range(32), timeout=60))
            assert warnings.filters == before
    finally:
        sys.setswitchinterval(interval)
    assert done == [True] * 32


def _batched(f, sizes):
    # an array integrand that records the size of every call
    def g(x):
        assert isinstance(x, np.ndarray) and x.ndim == 1
        sizes.append(x.size)
        return f(x)

    return g


@pytest.mark.parametrize("decay", [1.0, 0.0], ids=["hint", "no_hint"])
def test_vectorized_semiinfinite_exponential(decay):
    sizes = []
    val = integrate_semiinfinite(_batched(lambda y: np.exp(-y), sizes), decay=decay,
                                 vectorized=True)
    assert val == pytest.approx(1.0, rel=1e-10)
    # every call evaluates whole 21-point rules
    assert sizes and all(n % 21 == 0 for n in sizes)
    shifted = integrate_semiinfinite(lambda y: np.exp(-y), a=2.0, decay=decay,
                                     vectorized=True)
    assert shifted == pytest.approx(math.exp(-2.0), rel=1e-10)


def test_vectorized_rule_square_root():
    # the array rule itself on a finite interval; the endpoint singularity
    # takes more than one bisection round, and each round evaluates its
    # new intervals in one call
    sizes = []
    val, err = _adaptive(_batched(np.sqrt, sizes), 0.0, 1.0, 1e-10, 1e-13)
    assert val == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert err <= 1e-10 * val
    assert len(sizes) > 1 and all(n % 21 == 0 for n in sizes)


def test_vectorized_failure_raises_when_limit_exhausted():
    # x = 1 + (1 - t)/t turns this tail into sin(1/t) near t = 0, which
    # bisection cannot resolve within the interval limit
    with pytest.raises(QuadratureFailure, match="error estimate"):
        integrate_semiinfinite(lambda y: np.sin(y) / y**2, a=1.0, decay=0.0,
                               vectorized=True)
