import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from levyfluct import QuadratureFailure, _quadrature
from levyfluct._quadrature import (_EPS, _KRONROD, _NODES, _WEIGHTS, _adaptive, _gk21,
                                   integrate_finite, integrate_semiinfinite)
from levyfluct.validation import run_validation
from conftest import bm, model_b, tempered_mixed


def test_failure_raises_without_warning_from_threads():
    # sin(1/x) exhausts the 200 subdivisions; the failure must surface as
    # QuadratureFailure in every thread, with no warning and no
    # change to the process-wide warning filters
    def run(_):
        with pytest.raises(QuadratureFailure):
            integrate_finite(lambda x: np.sin(1.0 / x), 1e-4, 1.0)
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
    val = integrate_semiinfinite(_batched(lambda y: np.exp(-y), sizes), decay=decay)
    assert val == pytest.approx(1.0, rel=1e-10)
    # every call evaluates whole 21-point rules
    assert sizes and all(n % 21 == 0 for n in sizes)
    shifted = integrate_semiinfinite(lambda y: np.exp(-y), a=2.0, decay=decay)
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
        integrate_semiinfinite(lambda y: np.sin(y) / y**2, a=1.0, decay=0.0)


def test_vectorized_finite_with_break_point():
    # a kink at the break point costs no bisection toward it
    sizes = []
    val = integrate_finite(_batched(lambda x: np.abs(x - 0.3), sizes), 0.0, 1.0,
                           points=(0.3,))
    assert val == pytest.approx(0.5 * (0.3**2 + 0.7**2), rel=1e-12)
    assert sizes == [42]


def test_graded_bounds_power_endpoint_and_power_tail():
    from scipy import special

    from levyfluct._quadrature import integrate_graded

    # integral of u**(a-1) (1+u)**(-a-b) over (0, inf) is B(a, b): an
    # endpoint u**(-1/2) (grade 2) and a tail u**(-1.55) (tail grade 1/0.55)
    sizes = []
    f = _batched(lambda u: u**-0.5 * (1.0 + u) ** -1.05, sizes)
    val = integrate_graded(f, 1.0, 2.0, tail_grade=1.0 / 0.55, rtol=1e-12)
    assert val == pytest.approx(special.beta(0.5, 0.55), rel=1e-11)
    assert sizes and all(n <= 42 * 200 for n in sizes)


def test_graded_alpha_near_two_endpoint():
    from scipy import special

    from levyfluct._quadrature import integrate_graded

    # u**(-0.98) exp(-u), the endpoint of u * pitail(u) at alpha = 1.98,
    # takes grade 50: u = s**50 spans the whole exponent range of doubles
    f = lambda u: u**-0.98 * np.exp(-u)  # noqa: E731
    assert integrate_graded(f, 1.0, 50.0, decay=1.0) == pytest.approx(
        special.gamma(0.02), rel=1e-10)


def test_gk21_matches_qk21_written_on_arrays():
    # QUADPACK's qk21 error scaling resasc * min(1, (200 err/resasc)**1.5)
    # and its 50 eps resabs floor, as whole-array numpy: the sums agree
    # bitwise, the estimates to the rounding of the two powers
    lo, hi = np.array([0.0, 0.5, 1e-9, 2.0]), np.array([0.5, 1.0, 3e-9, 40.0])
    for f in (np.exp, np.sqrt, lambda x: np.sin(30.0 * x), lambda x: x**-0.9):
        half = 0.5 * (hi - lo)
        fx = f((lo + half)[:, None] + half[:, None] * _NODES)
        kronrod, gauss = (fx @ _WEIGHTS).T
        resasc = np.abs(fx - 0.5 * kronrod[:, None]) @ _KRONROD * half
        err = np.abs(kronrod - gauss) * half
        err = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.maximum(err, 50.0 * _EPS * (np.abs(fx) @ _KRONROD * half))
        vals, errs = _gk21(f, lo, hi)
        assert vals == (kronrod * half).tolist()
        assert errs == pytest.approx(err, rel=4 * _EPS, abs=0.0)


def test_zero_integrand_takes_one_round_and_no_error():
    # resasc = err = 0: neither the scaling nor the floor moves the estimate
    sizes = []
    assert _adaptive(_batched(np.zeros_like, sizes), 0.0, 1.0, 1e-10, 1e-13) == (0.0, 0.0)
    assert sizes == [21]


def test_polynomial_meets_a_tight_target_at_the_rounding_floor():
    # the 10-point Gauss sum is exact to degree 19 and the Kronrod sum to
    # 31, so both agree to rounding and the estimate is the floor
    # 50 * eps * resabs of QUADPACK's qk21
    c = np.linspace(1.0, 2.0, 20)
    f = lambda x: np.polynomial.polynomial.polyval(x, c)  # noqa: E731
    sizes = []
    val, err = _adaptive(_batched(f, sizes), 0.0, 1.0, 1e-13, 0.0)
    assert sizes == [21]
    assert val == pytest.approx(sum(ci / (i + 1) for i, ci in enumerate(c)), rel=1e-13)
    resabs = float(np.abs(f(0.5 + 0.5 * _NODES)) @ _KRONROD) * 0.5
    assert err == 50.0 * _EPS * resabs
    assert err <= 1e-13 * val


def test_non_finite_error_estimate_raises():
    # the absolute sums behind the error estimate of +-1e308 overflow, and
    # the estimate comes out NaN; NaN > target is False, so the check must
    # ask for an estimate within the target, not for one above it
    def f(x):
        return np.where(x < 0.0, -1e308, 1e308)

    with np.errstate(over="ignore"), pytest.raises(QuadratureFailure, match=r"\[-1.0, 1.0\]"):
        integrate_finite(f, -1.0, 1.0)


@pytest.mark.parametrize("make, rounds, intervals", [
    (lambda: bm(gamma=1.0), 11, 21),
    (model_b, 63, 143),
    (tempered_mixed, 37, 89),
], ids=["bm", "model_b", "tempered_mixed"])
def test_validation_rule_rounds_are_pinned(monkeypatch, make, rounds, intervals):
    # every adaptive decision of a whole report, counted as rule rounds
    # and the intervals they evaluate: a change to the rule's bookkeeping
    # that moves one bisection moves these counts
    sizes = []
    gk21 = _quadrature._gk21

    def counted(f, lo, hi):
        sizes.append(lo.size)
        return gk21(f, lo, hi)

    monkeypatch.setattr(_quadrature, "_gk21", counted)
    run_validation(make())
    assert (len(sizes), sum(sizes)) == (rounds, intervals)
