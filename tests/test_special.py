import math

import numpy as np
import pytest
from scipy import special

from levyfluct._special import _SPLIT, _incomplete_gamma, _rgamma
from levyfluct.scale import mittag_leffler

# z = 0, a log grid up to where exp(-z) nears underflow, and both sides of
# the split between the series and the Laguerre rule / continued fraction
Z = np.concatenate([
    [0.0],
    np.geomspace(1e-12, 700.0, 400),
    [np.nextafter(_SPLIT, 0.0), _SPLIT, np.nextafter(_SPLIT, 2.0)],
    np.linspace(1.0, 2.0, 41),
])


@pytest.mark.parametrize("s", [0.01, 0.05, 0.5, 0.95, 0.99, 2.0, 3.0])
def test_incomplete_gamma_matches_scipy(s):
    lower_ref = special.gamma(s) * special.gammainc(s, Z)
    upper_ref = special.gamma(s) * special.gammaincc(s, Z)
    lower, upper = _incomplete_gamma(s, Z)
    np.testing.assert_allclose(lower, lower_ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(upper, upper_ref, rtol=1e-12, atol=0.0)
    scalars = [_incomplete_gamma(s, float(z)) for z in Z]
    assert all(type(lo) is float and type(up) is float for lo, up in scalars)
    np.testing.assert_allclose(np.array(scalars), np.stack([lower, upper], axis=1),
                               rtol=1e-12, atol=0.0)


def test_incomplete_gamma_limits():
    # Gamma(s, inf) = 0 on both paths, with the whole mass in gamma(s, inf)
    assert _incomplete_gamma(0.5, math.inf) == (math.gamma(0.5), 0.0)
    lower, upper = _incomplete_gamma(3.0, np.array([0.0, np.inf]))
    assert lower.tolist() == [0.0, 2.0] and upper.tolist() == [2.0, 0.0]


def test_rgamma_matches_scipy_and_vanishes_at_poles():
    x = np.linspace(-120.0, 5.0, 20001)
    x = x[x != np.round(x)]
    got = np.array([_rgamma(v) for v in x.tolist()])
    np.testing.assert_allclose(got, special.rgamma(x), rtol=1e-14, atol=0.0)
    assert all(_rgamma(float(-k)) == 0.0 for k in range(121))
    assert _rgamma(-0.0) == 0.0
    assert _rgamma(1.0) == 1.0
    assert _rgamma(200.0) == special.rgamma(200.0) == 0.0


# E_{a,b}(z) as computed before the special functions left SciPy, on both
# sides of the series / asymptotic switch at z = 80
ML_REFERENCE = {
    (1.5, 1.5): [1.1283791670955126, 1.7232443570326095, 17630773.382971294,
                 18169719.745382078, 81200947892128.08],
    (1.5, 0.5): [0.5641895835477563, 1.9104380458436816, 327066363.9199541,
                 337626535.8147285, 2777033354857736.5],
    (1.5, 1.0): [1.0, 1.9394872614337488, 75937032.7575348, 78323556.70503972,
                 474866023992562.25],
    (1.2, 0.2): [0.2178248842116673, 2.305680614738514, 8.115686172190336e+17,
                 8.808846189408698e+17, 2.3583268839292433e+37],
    (1.99, 0.99): [0.9941622992160638, 1.5485482959385835, 4322.0737941466095,
                   4371.511388626859, 864710.0551658788],
}


@pytest.mark.parametrize("a, b", sorted(ML_REFERENCE))
def test_mittag_leffler_matches_reference_values(a, b):
    z = np.array([0.0, 1.0, 79.9, 80.1, 200.0])
    np.testing.assert_allclose(mittag_leffler(a, b, z), ML_REFERENCE[a, b], rtol=1e-13, atol=0.0)
