import math

import numpy as np
import pytest

from levyfluct import (
    BadConfigError,
    BadParameterError,
    InversionFailure,
    LevyModel,
    ScaleConfig,
    SeriesDivergence,
    TemperedStableJumps,
    laplace_roundtrip,
    make_engine,
    mittag_leffler,
    w_series_check,
)
from conftest import bm, model_b, stable_sn, tempered_mixed


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_method():
    with pytest.raises(BadConfigError):
        ScaleConfig(method="magic")
    with pytest.raises(BadConfigError):
        ScaleConfig(inversion="stehfest")
    with pytest.raises(BadConfigError):
        ScaleConfig(nodes=0)
    with pytest.raises(BadConfigError):
        ScaleConfig(target=-1e-8)


def test_closed_form_routing():
    assert make_engine(bm()).closed_kind == "rational"
    assert make_engine(model_b()).closed_kind == "rational"
    assert make_engine(stable_sn()).closed_kind == "stable"
    assert make_engine(tempered_mixed()).closed_kind is None


# ---------------------------------------------------------------------------
# support and boundary behaviour
# ---------------------------------------------------------------------------


def test_w_vanishes_left_of_origin(engine_b):
    for x in (-3.0, -0.1, 0.0):
        assert engine_b.w(2.5, x) == 0.0
    assert engine_b.z(2.5, -1.0) == 1.0
    assert engine_b.z(2.5, 0.0) == 1.0


def test_w_prime_at_origin_is_two_over_sigma2(engine_b, engine_bm0):
    assert engine_b.w_prime(0.0, 0.0) == pytest.approx(1.0, rel=1e-12)   # sigma2 = 2
    assert engine_bm0.w_prime(0.0, 0.0) == pytest.approx(2.0, rel=1e-12)


def test_w_nondecreasing(engine_b):
    xs = np.linspace(0.05, 6.0, 40)
    vals = [engine_b.w(2.5, float(x)) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_brownian_matches_sinh(engine_bm0):
    for q in (0.5, 2.0):
        r = math.sqrt(2.0 * q)
        for x in (0.1, 1.0, 3.0):
            assert engine_bm0.w(q, x) == pytest.approx(2.0 / r * math.sinh(r * x), rel=1e-12)
            assert engine_bm0.z(q, x) == pytest.approx(math.cosh(r * x), rel=1e-12)


def test_brownian_zero_rate_is_linear(engine_bm0):
    assert engine_bm0.w(0.0, 1.7) == pytest.approx(3.4, rel=1e-12)


def test_stable_power_and_mittag_leffler():
    e = make_engine(stable_sn(alpha=1.5, scale=1.0))
    assert e.w(0.0, 2.0) == pytest.approx(math.sqrt(2.0) / math.gamma(1.5), rel=1e-10)
    # q > 0 via the two-parameter Mittag-Leffler series
    q, x = 1.3, 0.8
    target = x ** 0.5 * mittag_leffler(1.5, 1.5, q * x ** 1.5)
    assert e.w(q, x) == pytest.approx(target, rel=1e-10)


def test_mittag_leffler_exponential_case():
    # E_{1,1}(z) = exp(z)
    assert mittag_leffler(1.0, 1.0, 2.5) == pytest.approx(math.exp(2.5), rel=1e-12)


FROZEN_B = {
    # q = 0 values for the mixed Gaussian + exponential-jump model
    0.5: 0.3275449096,
    1.0: 0.4859633384,
    2.0: 0.6614506776,
}


def test_model_b_frozen_values(engine_b):
    for x, val in FROZEN_B.items():
        assert engine_b.w(0.0, x) == pytest.approx(val, rel=1e-9)
    assert engine_b.w_prime(0.0, 1.0) == pytest.approx(0.2414277240, rel=1e-9)
    assert engine_b.w_prime(0.0, 0.5) == pytest.approx(0.42377695892279493, rel=1e-10)


# ---------------------------------------------------------------------------
# oracle triangle
# ---------------------------------------------------------------------------


def test_contour_agrees_with_closed_form():
    for make in (bm, model_b):
        closed = make_engine(make())
        contour = make_engine(make(), ScaleConfig(method="contour"))
        for q in (0.0, 0.5, 2.5):
            for x in (0.01, 0.1, 1.0, 5.0, 10.0):
                a = closed.w(q, x)
                b = contour.w(q, x)
                assert b == pytest.approx(a, rel=1e-6, abs=1e-12)


def test_bromwich_alternative(engine_b):
    alt = make_engine(model_b(), ScaleConfig(method="contour", inversion="bromwich"))
    for x in (0.5, 2.0):
        assert alt.w(2.5, x) == pytest.approx(engine_b.w(2.5, x), rel=1e-6)


def test_series_oracle(engine_bm0, engine_b):
    chk = w_series_check(engine_bm0, 1.0, 0.25)
    assert abs(chk.rel_gap) <= 1e-5
    chk = w_series_check(engine_b, 0.5, 0.1)
    assert abs(chk.rel_gap) <= 1e-5


def test_series_zero_rate_is_exact(engine_b):
    chk = w_series_check(engine_b, 0.0, 0.7)
    assert abs(chk.rel_gap) <= 1e-12


def test_series_divergence_outside_domination(engine_bm0):
    # q * x * W(x) >= 1 breaks the geometric bound
    with pytest.raises(SeriesDivergence):
        w_series_check(engine_bm0, 5.0, 3.0)


def test_laplace_roundtrip_values(engine_bm0, engine_b):
    rt = laplace_roundtrip(engine_bm0, 1.0, 3.0)
    assert rt.exact == pytest.approx(1.0 / 3.5, rel=1e-12)
    assert abs(rt.rel_gap) <= 1e-6
    rt = laplace_roundtrip(engine_b, 2.5, 2.0)
    assert rt.exact == pytest.approx(1.0 / (8.0 - 2.0 / 3.0 - 2.5), rel=1e-12)
    assert abs(rt.rel_gap) <= 1e-6


def test_laplace_roundtrip_stable():
    e = make_engine(stable_sn())
    rt = laplace_roundtrip(e, 0.0, 1.0)
    assert rt.exact == pytest.approx(1.0, rel=1e-12)
    assert abs(rt.rel_gap) <= 1e-6


def test_roundtrip_requires_rate_beyond_inverse(engine_bm0):
    with pytest.raises(BadParameterError):
        laplace_roundtrip(engine_bm0, 2.0, 0.5)


# ---------------------------------------------------------------------------
# derivative and details
# ---------------------------------------------------------------------------


def test_w_prime_matches_finite_difference(engine_b):
    for q in (0.5, 2.5):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            h = 1e-5 * max(1.0, x)
            fd = (engine_b.w(q, x + h) - engine_b.w(q, x - h)) / (2.0 * h)
            assert engine_b.w_prime(q, x) == pytest.approx(fd, rel=1e-4)


def test_detail_reports_method_and_error(engine_b):
    d = engine_b.w_detail(2.5, 1.0)
    assert d.method == "closed_form"
    assert 0.0 <= d.est_error < 1e-8
    contour = make_engine(tempered_mixed())
    d = contour.w_detail(2.5, 1.0)
    assert d.method == "contour"
    assert d.est_error < 1e-6


@pytest.mark.parametrize("gamma", [1e-4, 5e-4, -5e-4])
def test_brownian_small_drift_keeps_both_poles(gamma):
    # the poles 0 and -2*gamma sit closer than 1e-3; they are distinct and
    # must not be merged into a double pole
    engine = make_engine(bm(gamma))
    for x in (0.01, 1.0, 100.0, 1000.0):
        exact = -math.expm1(-2.0 * gamma * x) / gamma
        assert engine.w(0.0, x) == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------------------
# leading-term split
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha, scale, q", [(1.2, 0.7, 0.5), (1.5, 1.0, 2.5), (1.9, 1.3, 10.0)])
def test_stable_split_continuous_at_zarg_60(alpha, scale, q):
    # the splits must be continuous in x; a switch to the Mittag-Leffler
    # algebraic tail at (q/scale)*x**alpha = 60 made them jump by up to 2e-3
    engine = make_engine(stable_sn(alpha=alpha, scale=scale))
    x60 = (60.0 * scale / q) ** (1.0 / alpha)
    for split in (engine.w_minus_leading, engine.z_minus_leading):
        below = split(q, x60 * (1.0 - 1e-9))
        above = split(q, x60 * (1.0 + 1e-9))
        assert above == pytest.approx(below, rel=1e-7)


@pytest.mark.parametrize(
    "model",
    [bm(1.0), model_b(), stable_sn(), tempered_mixed()],
    ids=["bm_up", "model_b", "stable", "tempered"],
)
def test_split_plus_leading_term_reconstructs_w_and_z(model):
    engine = make_engine(model)
    for q in (0.5, 2.5):
        phi = model.phi(q)
        phip = model.phi_prime(q)
        for x in (0.1, 1.0, 3.0):
            lead = phip * math.exp(phi * x)
            w = engine.w_minus_leading(q, x) + lead
            z = engine.z_minus_leading(q, x) + (q / phi) * lead
            assert w == pytest.approx(engine.w(q, x), rel=1e-9)
            assert z == pytest.approx(engine.z(q, x), rel=1e-9)


def test_rational_z_agrees_with_contour():
    for model in (model_b(), bm(-1.0)):
        closed = make_engine(model)
        contour = make_engine(model, ScaleConfig(method="contour"))
        for q in (0.5, 2.5):
            for x in (0.01, 0.1, 1.0, 5.0):
                assert closed.z(q, x) == pytest.approx(contour.z(q, x), rel=1e-9)


# ---------------------------------------------------------------------------
# array calls
# ---------------------------------------------------------------------------

_ARRAY_X = np.array([-1.0, 0.0, 1e-3, 0.05, 0.5, 1.0, 2.5, 6.0])


@pytest.mark.parametrize(
    "model",
    [bm(), model_b(), stable_sn(), tempered_mixed()],
    ids=["bm", "model_b", "stable", "tempered"],
)
def test_array_calls_match_scalar_calls(model):
    engine = make_engine(model)
    grid = _ARRAY_X.reshape(2, 4)
    for q in (0.0, 0.5, 2.5):
        for fn in (engine.w, engine.w_prime, engine.z):
            got = fn(q, grid)
            want = [fn(q, float(x)) for x in _ARRAY_X]
            assert isinstance(got, np.ndarray) and got.shape == grid.shape
            assert all(isinstance(v, float) for v in want)
            np.testing.assert_allclose(got.ravel(), want, rtol=1e-14, atol=0.0)
    inside = _ARRAY_X[_ARRAY_X >= 0.0]
    for q in (0.5, 2.5):
        for fn in (engine.w_minus_leading, engine.z_minus_leading):
            got = fn(q, inside)
            want = [fn(q, float(x)) for x in inside]
            assert isinstance(got, np.ndarray) and np.all(np.isfinite(got))
            assert all(isinstance(v, float) for v in want)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        with pytest.raises(BadParameterError):
            engine.w_minus_leading(q, _ARRAY_X)


def test_array_with_a_failing_point_raises():
    # W'^(0)(5) of this drifting tempered model has decayed below the
    # contour's noise floor; a batch holding that point must raise for
    # it, naming it, instead of returning NaN there
    engine = make_engine(
        LevyModel(gamma=1.0, sigma2=0.5,
                  jumps=TemperedStableJumps(alpha=1.5, scale=1.0, tempering=1.0))
    )
    with pytest.raises(InversionFailure, match="x=5.0"):
        engine.w_prime(0.0, np.array([0.1, 1.0, 5.0, 2.0]))
    with pytest.raises(InversionFailure, match="x=5.0"):
        engine.w_prime(0.0, 5.0)
    assert np.all(np.isfinite(engine.w_prime(0.0, np.array([0.1, 1.0, 2.0]))))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("model", [bm(), stable_sn()], ids=["bm", "stable"])
def test_overflowing_closed_form_raises(model):
    # exp(phi(2)*1000) is far beyond double precision: a scalar call
    # raises like an array call instead of returning inf (numpy's
    # overflow warning comes first)
    engine = make_engine(model)
    for fn in (engine.w, engine.w_prime, engine.z):
        with pytest.raises(InversionFailure, match="x=1000.0"):
            fn(2.0, 1000.0)
        with pytest.raises(InversionFailure, match="x=1000.0"):
            fn(2.0, np.array([1.0, 1000.0]))
