import math

import numpy as np
import pytest

from levyfluct import BadParameterError, g_family, laplace_roundtrip, mittag_leffler
from levyfluct.errors import _check_arg

NAN = math.nan
INF = math.inf


# each of these returned nan, a finite value or a QuadratureFailure before
# the one argument check covered them
@pytest.mark.parametrize("call", [
    pytest.param(lambda e: g_family(e).g(NAN), id="g-nan"),
    pytest.param(lambda e: g_family(e).g_minus(NAN), id="g_minus-nan"),
    pytest.param(lambda e: g_family(e).g_tilde(NAN), id="g_tilde-nan"),
    pytest.param(lambda e: g_family(e).g_minus_beta(0.5, NAN), id="g_minus_beta-nan"),
    pytest.param(lambda e: mittag_leffler(1.5, 1.5, NAN), id="ml-z-nan"),
    pytest.param(lambda e: mittag_leffler(1.5, 1.5, INF), id="ml-z-inf"),
    pytest.param(lambda e: mittag_leffler(3.0, 1.0, 2.0), id="ml-a-above-2"),
    pytest.param(lambda e: laplace_roundtrip(e, 0.5, NAN), id="roundtrip-lam-nan"),
    pytest.param(lambda e: laplace_roundtrip(e, 0.5, INF), id="roundtrip-lam-inf"),
    pytest.param(lambda e: e.model.ladder_tail(NAN), id="ladder_tail-nan"),
    pytest.param(lambda e: e.model.ladder_tail(INF), id="ladder_tail-inf"),
])
def test_public_entry_points_reject_non_finite_arguments(engine_b, call):
    with pytest.raises(BadParameterError):
        call(engine_b)


def test_mittag_leffler_domain_edges():
    assert mittag_leffler(2.0, 1.0, 4.0) == pytest.approx(math.cosh(2.0), rel=1e-12)
    for a, b in ((0.0, 1.0), (1.5, NAN), (1.5, INF)):
        with pytest.raises(BadParameterError):
            mittag_leffler(a, b, 1.0)


def test_array_check_names_the_first_bad_point():
    with pytest.raises(BadParameterError, match=r"^x must be finite and > 0, got nan$"):
        _check_arg("x", np.array([0.5, NAN, -1.0]))
    with pytest.raises(BadParameterError, match=r"^y must be finite, got inf$"):
        _check_arg("y", np.array([[-3.0, 2.0], [INF, 0.0]]), -INF)
    out = _check_arg("x", np.array([0, 1, 2]), strict=False)
    assert out.dtype == float and out.tolist() == [0.0, 1.0, 2.0]


def test_scalar_check_wording_and_bounds():
    assert _check_arg("beta", 0.0, strict=False) == 0.0
    assert isinstance(_check_arg("x", np.float32(2.0)), float)
    with pytest.raises(BadParameterError, match=r"^beta must be finite and >= 0, got -1.0$"):
        _check_arg("beta", -1.0, strict=False)
    with pytest.raises(BadParameterError, match=r"^lam must be finite and > 1.5, got 1.5$"):
        _check_arg("lam", 1.5, 1.5)
