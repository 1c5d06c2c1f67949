import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyfluct import (
    BadParameterError,
    BoundedVariationError,
    ExpJumps,
    LevyModel,
    ModelFormatError,
    NoJumps,
    Regime,
    StableJumps,
    TemperedStableJumps,
    model_from_dict,
    model_to_dict,
    parse_model,
    run_validation,
)
from conftest import bm, model_b, stable_sn, tempered_mixed


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_gaussian_part_must_be_nonnegative():
    with pytest.raises(BadParameterError):
        LevyModel(gamma=0.0, sigma2=-1.0, jumps=NoJumps())


def test_stable_index_range():
    for alpha in (0.5, 1.0, 2.0, 2.5):
        with pytest.raises(BadParameterError):
            StableJumps(alpha=alpha, scale=1.0)


def test_bounded_variation_rejected():
    # finite-activity jumps with no Gaussian part: monotone between jumps
    with pytest.raises(BoundedVariationError):
        LevyModel(gamma=1.0, sigma2=0.0, jumps=ExpJumps(rate=1.0, jump_rate=1.0))


def test_stable_pure_jump_accepted():
    # infinite-variation jumps satisfy the standing assumption without sigma2
    m = stable_sn()
    assert m.sigma2 == 0.0


# ---------------------------------------------------------------------------
# Laplace exponent values
# ---------------------------------------------------------------------------


def test_psi_brownian():
    m = bm(gamma=1.0, sigma2=2.0)
    assert m.psi(3.0) == pytest.approx(3.0 + 9.0, rel=1e-14)


def test_psi_model_b_values():
    m = model_b()
    # 2 lam + lam^2 - lam/(1+lam)
    assert m.psi(1.0) == pytest.approx(2.5, rel=1e-14)
    assert m.psi(2.0) == pytest.approx(4.0 + 4.0 - 2.0 / 3.0, rel=1e-14)
    assert m.mean == pytest.approx(1.0, rel=1e-14)


def test_psi_stable_is_power():
    m = stable_sn(alpha=1.5, scale=1.0)
    for lam in (0.3, 1.0, 4.0):
        assert m.psi(lam) == pytest.approx(lam ** 1.5, rel=1e-12)


def test_psi_tempered_is_compensated():
    m = tempered_mixed()
    # full compensation leaves the drift as the mean
    assert m.mean == pytest.approx(m.gamma, abs=1e-12)
    assert m.psi(0.0) == 0.0


def test_pi_tail_exponential():
    m = model_b()
    assert float(m.pi_tail(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_jump_measure_rejects_non_finite_arguments():
    # a nan or infinite argument raises, alone or inside an array
    m = model_b()
    for bad in (math.nan, math.inf, np.array([1.0, math.nan])):
        with pytest.raises(BadParameterError, match="pi_tail"):
            m.pi_tail(bad)
        with pytest.raises(BadParameterError, match="ladder_exponent"):
            m.ladder_exponent(bad)


def test_pi_tail_stable_normalization():
    # tail chosen so the compensated integral reproduces c*lam^alpha
    m = stable_sn(alpha=1.5, scale=1.0)
    expected = 0.5 / math.gamma(0.5)
    assert float(m.pi_tail(1.0)) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# right inverse phi
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [bm, lambda: bm(1.0), lambda: bm(-1.0),
                                  model_b, stable_sn, tempered_mixed])
def test_phi_inverts_psi(make):
    m = make()
    for q in np.logspace(-4, 4, 9):
        lam = m.phi(float(q))
        assert m.psi(lam) == pytest.approx(q, rel=1e-10)


def test_phi_zero_by_regime():
    assert bm(1.0).phi(0.0) == 0.0
    assert bm(0.0).phi(0.0) == 0.0
    # negative drift: largest root of lam^2/2 - lam = 0
    assert bm(-1.0).phi(0.0) == pytest.approx(2.0, rel=1e-12)


def test_phi_prime_is_inverse_derivative():
    m = model_b()
    for q in (0.1, 1.0, 10.0):
        assert m.phi_prime(q) * m.psi_prime(m.phi(q)) == pytest.approx(1.0, rel=1e-9)


def test_phi_model_b_value():
    # psi(1) = 2.5 exactly, so phi(2.5) = 1
    assert model_b().phi(2.5) == pytest.approx(1.0, rel=1e-12)


def test_phi_rejects_negative():
    with pytest.raises(BadParameterError):
        bm().phi(-0.5)


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(-3.0, 3.0),
    sigma2=st.floats(0.1, 4.0),
    rate=st.floats(0.1, 5.0),
    jump_rate=st.floats(0.2, 5.0),
    q=st.floats(1e-3, 1e3),
)
# Newton lands one ulp below the root here, and the bracket safeguard
# must keep the answer at the largest root, not bisect below it
@example(gamma=-1.746951694985091, sigma2=0.7578125, rate=3.0,
         jump_rate=4.623939047807808, q=0.001)
def test_phi_inverse_property(gamma, sigma2, rate, jump_rate, q):
    m = LevyModel(gamma=gamma, sigma2=sigma2,
                  jumps=ExpJumps(rate=rate, jump_rate=jump_rate))
    lam = m.phi(q)
    assert lam >= m.phi(0.0)
    assert m.psi(lam) == pytest.approx(q, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(-2.0, 2.0),
    sigma2=st.floats(0.0, 3.0),
    alpha=st.floats(1.05, 1.95),
    scale=st.floats(0.1, 3.0),
)
def test_serialisation_roundtrip_property(gamma, sigma2, alpha, scale):
    m = LevyModel(gamma=gamma, sigma2=sigma2,
                  jumps=StableJumps(alpha=alpha, scale=scale))
    assert parse_model(json.dumps(model_to_dict(m))) == m


# ---------------------------------------------------------------------------
# drift regime
# ---------------------------------------------------------------------------


def test_drift_regimes():
    assert bm(1.0).drift_regime().kind is Regime.TO_PLUS_INFINITY
    assert bm(0.0).drift_regime().kind is Regime.OSCILLATING
    down = bm(-1.0).drift_regime()
    assert down.kind is Regime.TO_MINUS_INFINITY
    assert down.phi0 == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# ladder height exponent
# ---------------------------------------------------------------------------


def test_ladder_exponent_brownian():
    m = bm()
    assert m.ladder_exponent(3.0) == pytest.approx(1.5, rel=1e-12)


def test_ladder_exponent_removable_singularity():
    m = bm(-1.0)
    # at lam = phi(0) the quotient extends continuously to psi'(phi(0))
    assert m.ladder_exponent(2.0) == pytest.approx(1.0, rel=1e-9)


def test_ladder_exponent_at_zero():
    assert model_b().ladder_exponent(0.0) == pytest.approx(1.0, rel=1e-12)


def test_ladder_tail_model_b():
    m = model_b()
    assert m.ladder_tail(0.5) == pytest.approx(math.exp(-0.5), rel=1e-9)
    assert m.ladder_tail(1.0) == pytest.approx(math.exp(-1.0), rel=1e-9)


@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_ladder_tail_stable_closed_form(gamma):
    # with psi'(0+) >= 0, phi(0) = 0 and the tail is the integral of
    # pitail(z) over z > x: scale * x**(1 - alpha) / Gamma(2 - alpha)
    m = LevyModel(gamma=gamma, sigma2=0.0, jumps=StableJumps(alpha=1.5, scale=0.7))
    for x in (0.1, 1.0, 5.0):
        assert m.ladder_tail(x) == pytest.approx(0.7 * x**-0.5 / math.gamma(0.5), rel=1e-9)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def test_dict_roundtrip():
    for make in (bm, model_b, stable_sn, tempered_mixed):
        m = make()
        again = model_from_dict(model_to_dict(m))
        assert again == m


def test_parse_model_roundtrip():
    m = model_b()
    again = parse_model(json.dumps(model_to_dict(m)))
    assert again == m


def test_parse_model_bad_json_names_position():
    with pytest.raises(ModelFormatError, match="line 1"):
        parse_model("{bad json")


def test_parse_model_rejects_unknown_fields():
    with pytest.raises(ModelFormatError, match="unknown field"):
        model_from_dict({"gamma": 0.0, "sigma2": 1.0, "drift": 3.0})
    with pytest.raises(ModelFormatError, match="unknown field"):
        model_from_dict({
            "gamma": 0.0, "sigma2": 1.0,
            "jumps": {"family": "cp_exp", "rate": 1.0, "jump_rate": 1.0, "mu": 2.0},
        })


def test_parse_model_rejects_bad_types():
    with pytest.raises(ModelFormatError, match="gamma"):
        model_from_dict({"gamma": "zero", "sigma2": 1.0})
    with pytest.raises(ModelFormatError, match="sigma2"):
        model_from_dict({"gamma": 0.0, "sigma2": True})


def test_parse_model_missing_jump_field():
    with pytest.raises(ModelFormatError, match="rate"):
        model_from_dict({"gamma": 0.0, "sigma2": 1.0,
                         "jumps": {"family": "cp_exp", "jump_rate": 1.0}})


def test_tempered_psi_vanishes_exactly_at_zero():
    model = LevyModel(
        gamma=0.0,
        sigma2=0.9943653504819232,
        jumps=TemperedStableJumps(
            alpha=1.6009324230817334, scale=0.8210582819668469, tempering=1.5354014247238896
        ),
    )
    assert model.psi(0.0) == 0.0
    report = run_validation(model)
    assert report.ok, [c.name for c in report.failures]


@pytest.mark.parametrize("q", [1e-12, 1e-14, 1e-16])
def test_phi_small_q_brownian(q):
    # psi(lam) = lam^2/2, so phi(q) = sqrt(2q); the stopping rule must be
    # relative at tiny q, not an absolute floor on |psi - q|
    assert bm().phi(q) == pytest.approx(math.sqrt(2.0 * q), rel=1e-10)


@pytest.mark.parametrize("alpha", [1.5, 1.6, 1.9])
def test_tempered_tail_series_meets_direct_form(alpha):
    # the tempered tail transforms switch from the binomial series to the
    # direct form at s = r/theta = _SERIES_SWITCH; both branches must agree
    # on either side of it
    from levyfluct.model import _SERIES_SWITCH, _tempered_direct, _tempered_series

    s = _SERIES_SWITCH * np.array([0.9, 0.999, 1.0, 1.001, 1.1])
    for series, direct in zip(_tempered_series(alpha, s), _tempered_direct(alpha, s)):
        assert np.max(np.abs(series - direct) / np.abs(direct)) <= 1e-13


@pytest.mark.parametrize("alpha", [1.05, 1.6, 1.95])
def test_tempered_tail_parts_computed_alone_are_bit_identical(alpha):
    # tail_transform and tail_moment each compute only their own part
    from levyfluct.model import _tempered_direct, _tempered_series

    s = np.concatenate([np.logspace(-6, np.log10(0.49), 20), np.logspace(0, 3, 20)])
    for branch in (_tempered_series, _tempered_direct):
        transform, moment = branch(alpha, s)
        assert np.array_equal(branch(alpha, s, ("transform",))[0], transform)
        assert np.array_equal(branch(alpha, s, ("moment",))[0], moment)
