import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from levyfluct import QuadratureFailure
from levyfluct._quadrature import integrate_finite


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
