import math

import pytest

from levyfluct import (
    BadParameterError,
    constant_A,
    dual_lifetime_masses,
    entrance_constants,
    entrance_law_laplace,
    intensity_cross_before,
    intensity_negative_start,
    intensity_stay_positive,
    intensity_table,
    intensity_total,
    intensity_upper_creep,
    occupation_overshoot_identity,
    overshoot_mass,
)


# ---------------------------------------------------------------------------
# the decomposition table
# ---------------------------------------------------------------------------


EXACT_B = {
    "total": 3.75,
    "upperCreep": 1.0,
    "stayPositiveForever": 1.0,
    "crossBefore": 0.25,
    "negativeStartFinite": 1.0,
    "negativeStartInfinite": 0.0,
    "crossAfter": 0.5,
}


def test_mixed_model_table_exact(engine_b):
    table = intensity_table(engine_b, 2.5).as_dict()
    for key, val in EXACT_B.items():
        assert table[key] == pytest.approx(val, abs=1e-10), key
    assert abs(table["residual"]) <= 1e-8


def test_table_keys_are_stable(engine_b):
    assert list(intensity_table(engine_b, 2.5).as_dict()) == [
        "beta", "total", "upperCreep", "stayPositiveForever", "crossBefore",
        "negativeStartFinite", "negativeStartInfinite", "crossAfter", "residual",
    ]


def test_partition_residual_small_across_models(
        engine_bm0, engine_bm_up, engine_bm_down, engine_b, engine_stable):
    for engine in (engine_bm0, engine_bm_up, engine_bm_down, engine_b, engine_stable):
        for beta in (0.1, 0.5, 2.5, 10.0):
            res = intensity_table(engine, beta).residual
            total = intensity_total(engine, beta)
            assert abs(res) <= 1e-6 * total


def test_total_is_speed_of_inverse(engine_b):
    m = engine_b.model
    beta = 2.5
    assert intensity_total(engine_b, beta) == pytest.approx(
        m.psi_prime(m.phi(beta)), rel=1e-12)


def test_stay_positive_is_positive_mean_only(engine_bm0, engine_bm_up, engine_bm_down):
    assert intensity_stay_positive(engine_bm0) == 0.0
    assert intensity_stay_positive(engine_bm_up) == pytest.approx(1.0, rel=1e-12)
    assert intensity_stay_positive(engine_bm_down) == 0.0


def test_negative_start_split(engine_bm_down, engine_bm_up):
    # drift to -inf: some excursions never come back up
    down = intensity_negative_start(engine_bm_down, 2.5)
    assert down.infinite > 0.0
    assert down.finite + down.infinite == pytest.approx(down.total, rel=1e-12)
    up = intensity_negative_start(engine_bm_up, 2.5)
    assert up.infinite == 0.0


def test_negative_start_total_is_gaussian_mass(engine_b):
    # (sigma2/2) * phi(beta): only the Gaussian part can start downward
    m = engine_b.model
    for beta in (0.5, 2.5):
        got = intensity_negative_start(engine_b, beta).total
        assert got == pytest.approx(0.5 * m.sigma2 * m.phi(beta), rel=1e-10)


def test_no_jump_crossings_without_jumps(engine_bm0):
    table = intensity_table(engine_bm0, 2.5).as_dict()
    assert table["crossBefore"] == 0.0
    assert table["crossAfter"] == 0.0


def test_cross_before_unimodal_shape(engine_b):
    # phi/(1+phi)^2 for unit-rate exponential jumps, maximal where phi = 1
    m = engine_b.model
    for beta in (0.5, 2.5, 10.0):
        phib = m.phi(beta)
        assert intensity_cross_before(engine_b, beta) == pytest.approx(
            phib / (1.0 + phib) ** 2, rel=1e-8)


def test_upper_creep_needs_gaussian_part(engine_stable, engine_b):
    assert intensity_upper_creep(engine_stable, 2.5) == 0.0
    assert intensity_upper_creep(engine_b, 2.5) > 0.0


def test_infinite_lifetime_limits(engine_b):
    # beta -> 0 the total tends to the unkilled value psi'(phi(0))
    m = engine_b.model
    assert intensity_total(engine_b, 0.0) == pytest.approx(
        m.psi_prime(m.phi(0.0)), rel=1e-12)
    small = intensity_total(engine_b, 1e-10)
    assert small == pytest.approx(intensity_total(engine_b, 0.0), rel=1e-6)


def test_beta_rejected_when_not_positive(engine_b):
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(BadParameterError):
            intensity_table(engine_b, bad)


# ---------------------------------------------------------------------------
# dual lifetimes and entrance law
# ---------------------------------------------------------------------------


def test_dual_lifetime_product(engine_b):
    for beta in (0.5, 2.5):
        up, down = dual_lifetime_masses(engine_b, beta)
        assert up * down == pytest.approx(beta, rel=1e-12)
        assert up == pytest.approx(engine_b.model.phi(beta), rel=1e-12)


def test_entrance_constants_mixed_model(engine_b):
    m = engine_b.model
    c = entrance_constants(engine_b, 2.5)
    slope = m.phi_prime(2.5) * m.phi(2.5)
    assert c.c_neg == pytest.approx(1.0 / slope, rel=1e-10)
    assert c.c_pos == pytest.approx(1.0 / (1.0 - slope), rel=1e-10)


def test_entrance_constants_internal_relation(engine_bm0, engine_b):
    # c_stay couples the other two: phi'(beta) * c_pos
    for engine in (engine_bm0, engine_b):
        m = engine.model
        c = entrance_constants(engine, 1.5)
        assert c.c_stay == pytest.approx(m.phi_prime(1.5) * c.c_pos, rel=1e-12)
        assert c.c_neg > 0.0 and c.c_pos > 0.0


def test_entrance_law_positive_weight(engine_b):
    law = entrance_law_laplace(engine_b, 1.0, lambda x: 1.0, (-5.0, 5.0))
    assert law.full_line > 0.0
    assert law.positive_part > 0.0
    only_pos = entrance_law_laplace(engine_b, 1.0, lambda x: 1.0, (0.0, 5.0))
    assert only_pos.positive_part == pytest.approx(law.positive_part, rel=1e-8)


def test_entrance_law_needs_finite_support(engine_b):
    with pytest.raises(BadParameterError):
        entrance_law_laplace(engine_b, 1.0, lambda x: 1.0, (0.0, math.inf))


# ---------------------------------------------------------------------------
# overshoot
# ---------------------------------------------------------------------------


def test_overshoot_mass_finite_for_exponential_jumps(engine_b):
    # integral of u e^{-u} du = 1
    assert overshoot_mass(engine_b) == pytest.approx(1.0, rel=1e-8)


def test_overshoot_mass_infinite_for_oscillating_stable(engine_stable):
    assert overshoot_mass(engine_stable) == math.inf


@pytest.mark.parametrize("mean", [0.5, 0.0, -0.5], ids=["up", "oscillating", "down"])
@pytest.mark.parametrize("family", ["bm", "cp_exp", "stable", "tempered"])
def test_overshoot_mass_is_tail_moment_at_phi0(family, mean):
    # the mass is the jump family's tail moment at phi(0) in every drift
    # regime, +inf exactly where u*pitail(u) is not integrable: the stable
    # family at phi(0) = 0
    jumps = {"bm": NoJumps(), "cp_exp": ExpJumps(rate=1.0, jump_rate=1.0),
             "stable": StableJumps(alpha=1.5, scale=1.0),
             "tempered": TemperedStableJumps(alpha=1.6, scale=0.8, tempering=1.5)}[family]
    m = LevyModel(gamma=mean - jumps.mean_at_zero, sigma2=0.0 if family == "stable" else 1.0,
                  jumps=jumps)
    assert m.mean == mean
    phi0 = m.phi(0.0)
    assert (phi0 == 0.0) == (mean >= 0.0)
    got = overshoot_mass(make_engine(m))
    assert repr(got) == repr(float(jumps.tail_moment(phi0)))
    assert math.isinf(got) == (family == "stable" and phi0 == 0.0)


def test_occupation_identity_cross_check(engine_b):
    direct, via = occupation_overshoot_identity(engine_b)
    assert via == pytest.approx(direct, rel=1e-6)


def test_occupation_identity_tempered(engine_tempered):
    # the jump density's u**(-1 - alpha) endpoint under the graded map
    direct, via = occupation_overshoot_identity(engine_tempered)
    assert via == pytest.approx(direct, rel=1e-9)


def test_occupation_identity_rejects_infinite_mass(engine_stable):
    with pytest.raises(BadParameterError):
        occupation_overshoot_identity(engine_stable)


def test_constant_a_by_regime(engine_bm0, engine_b, engine_stable, engine_tempered):
    assert constant_A(engine_bm0) == pytest.approx(1.0, rel=1e-9)
    assert constant_A(engine_b) == 0.0          # positive mean
    assert constant_A(engine_stable) == 0.0     # oscillating, infinite variance
    m = engine_tempered.model
    assert constant_A(engine_tempered) == pytest.approx(
        1.0 / m.psi_second(0.0), rel=1e-9)


# ---------------------------------------------------------------------------
# closed-form crossing intensities
# ---------------------------------------------------------------------------

from levyfluct import (  # noqa: E402
    ExpJumps,
    LevyModel,
    NoJumps,
    StableJumps,
    TemperedStableJumps,
    intensity_cross_after,
    make_engine,
)
from levyfluct.excursion import _quadrature_crossings  # noqa: E402


def _tempered(gamma, sigma2, alpha, scale, tempering):
    return LevyModel(gamma=gamma, sigma2=sigma2,
                     jumps=TemperedStableJumps(alpha=alpha, scale=scale, tempering=tempering))


def test_stable_cross_after_at_tiny_beta_is_closed_form(engine_stable):
    # scale * phi(beta)^(alpha - 1); a quadrature of the difference of two
    # nearly equal exponentials returned a negative value here
    m = engine_stable.model
    beta = 1e-13
    want = m.jumps.scale * m.phi(beta) ** (m.jumps.alpha - 1.0)
    got = intensity_cross_after(engine_stable, beta)
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-12)


def test_stable_with_drift_crossings_at_small_beta():
    m = LevyModel(gamma=0.5, sigma2=0.0, jumps=StableJumps(alpha=1.5, scale=1.0))
    engine = make_engine(m)
    beta = 1e-6
    phib = m.phi(beta)
    # phi(0) = 0 here, so both are powers of phi(beta)
    assert intensity_cross_before(engine, beta) == pytest.approx(0.5 * phib**0.5, rel=1e-12)
    assert intensity_cross_after(engine, beta) == pytest.approx(phib**0.5, rel=1e-12)


@pytest.mark.parametrize("model, betas", [
    # small tempering: the jump tail is a bare power tail out to u ~ 100
    (_tempered(0.0, 1.0, 1.9, 0.8, 0.01), (0.1, 0.5, 2.5, 10.0)),
    (_tempered(0.0, 1.0061488508169703, 1.621069576555539, 0.785206843435043,
               1.5229388446766987), (0.49635540561933056,)),
])
def test_intensity_table_closes_where_quadrature_failed(model, betas):
    engine = make_engine(model)
    for beta in betas:
        t = intensity_table(engine, beta)
        values = [v for k, v in t.as_dict().items() if k != "beta"]
        assert all(math.isfinite(v) for v in values)
        assert abs(t.residual) <= 1e-12 * t.total


def test_closed_crossings_match_quadrature(engine_b, engine_stable, engine_tempered):
    # tempered_mixed is also the tempered model of the benchmark's tables;
    # the drifting-up tempered model is the one of its fault table
    drifting = make_engine(_tempered(1.0, 0.5, 1.5, 1.0, 1.0))
    for engine in (engine_b, engine_stable, engine_tempered, drifting):
        for beta in (0.1, 0.5, 2.5, 10.0):
            before, after = _quadrature_crossings(engine, beta)
            assert intensity_cross_before(engine, beta) == pytest.approx(before, rel=1e-9)
            assert intensity_cross_after(engine, beta) == pytest.approx(after, rel=1e-9)


# beta = 0: the unkilled masses n(zeta = inf) of the total and the jump crossing

_CP_DOWN = LevyModel(gamma=0.5, sigma2=1.0, jumps=ExpJumps(rate=2.0, jump_rate=3.0))
_TEMPERED_DOWN = _tempered(-0.5, 1.0, 1.5, 0.8, 1.5)


def test_total_at_beta_zero_in_each_drift_regime(
        engine_bm0, engine_bm_up, engine_bm_down, engine_b, engine_stable, engine_tempered):
    # BM: psi'(phi(0)+) = |gamma|
    assert intensity_total(engine_bm_up, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert intensity_total(engine_bm_down, 0.0) == pytest.approx(1.0, rel=1e-12)
    for m in (engine_b.model, _CP_DOWN, _TEMPERED_DOWN):
        want = float(m.psi_prime(m.phi(0.0)))
        assert want > 0.0
        assert intensity_total(make_engine(m), 0.0) == pytest.approx(want, rel=1e-12)
    assert engine_b.model.mean > 0.0 > max(_CP_DOWN.mean, _TEMPERED_DOWN.mean)
    for oscillating in (engine_bm0, engine_stable, engine_tempered):
        assert oscillating.model.mean == 0.0
        assert intensity_total(oscillating, 0.0) == 0.0


def test_cross_before_at_beta_zero(engine_bm0, engine_bm_up, engine_b, engine_stable,
                                   engine_tempered):
    # drifting to -inf: phi(0) * tail_moment(phi(0)), here rate/(jump_rate + phi0)^2
    # for exponential jumps and the quadrature reference for tempered ones
    phi0 = _CP_DOWN.phi(0.0)
    assert phi0 > 0.0
    assert intensity_cross_before(make_engine(_CP_DOWN), 0.0) == pytest.approx(
        phi0 * 2.0 / (3.0 + phi0) ** 2, rel=1e-12)
    engine = make_engine(_TEMPERED_DOWN)
    before, _ = _quadrature_crossings(engine, 0.0)
    assert before > 0.0
    assert intensity_cross_before(engine, 0.0) == pytest.approx(before, rel=1e-9)
    for other in (engine_bm0, engine_bm_up, engine_b, engine_stable, engine_tempered):
        assert intensity_cross_before(other, 0.0) == 0.0


@pytest.mark.parametrize("fn", [intensity_total, intensity_cross_before])
@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_unkilled_branches_reject_bad_beta(engine_b, fn, bad):
    with pytest.raises(BadParameterError):
        fn(engine_b, bad)


# ---------------------------------------------------------------------------
# jump-tail references on the array rule
# ---------------------------------------------------------------------------

import numpy as np  # noqa: E402


def _stable(gamma, sigma2, alpha):
    return LevyModel(gamma=gamma, sigma2=sigma2, jumps=StableJumps(alpha=alpha, scale=1.0))


# stable models with phi(0) = 0 (a bare power tail) and drifting down
# (phi(0) = 3.5e-11 at alpha = 1.05: a power tail cut off very far out);
# tempered with and without a Gaussian part
REFERENCE_MODELS = [
    _stable(gamma, sigma2, alpha)
    for alpha in (1.05, 1.5, 1.95)
    for gamma, sigma2 in ((0.5, 0.0), (-0.3, 0.5))
] + [
    _tempered(gamma, sigma2, alpha, 0.8, 1.5)
    for alpha in (1.5, 1.95)
    for gamma, sigma2 in ((0.0, 1.0), (1.0, 0.0))
]


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=repr)
def test_array_quadrature_crossings_match_closed_forms(model):
    engine = make_engine(model)
    for beta in (0.1, 0.5, 2.5, 10.0):
        before, after = _quadrature_crossings(engine, beta)
        assert before == pytest.approx(intensity_cross_before(engine, beta), rel=1e-9)
        assert after == pytest.approx(intensity_cross_after(engine, beta), rel=1e-9)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 1.85, 1.9, 1.95])
@pytest.mark.parametrize("tempering", [0.0, 1.0])
def test_quadrature_crossings_on_both_sides_of_the_head_grade_cap(alpha, tempering):
    # the head takes grade 2/(2 - alpha) below alpha = 1.8 and
    # 1/(2 - alpha) from there on, where 2/(2 - alpha) would pass 10
    # (2/(2 - 1.8) is 10.000000000000002 in floats)
    jumps = (TemperedStableJumps(alpha=alpha, scale=0.8, tempering=tempering) if tempering
             else StableJumps(alpha=alpha, scale=0.8))
    engine = make_engine(LevyModel(gamma=0.5, sigma2=0.5, jumps=jumps))
    for beta in (0.5, 2.0):
        before, after = _quadrature_crossings(engine, beta)
        assert before == pytest.approx(intensity_cross_before(engine, beta), rel=1e-9)
        assert after == pytest.approx(intensity_cross_after(engine, beta), rel=1e-9)


def test_tail_difference_keeps_small_arguments():
    # exp(-0*y) - exp(-phib*y) rounds to 0 below y ~ 1e-17 and keeps only
    # about 4 digits at 1e-12; the expm1 form keeps pitail(y)*phib*y
    from levyfluct.excursion import _tail_difference

    jumps = StableJumps(alpha=1.95, scale=1.0)
    y = np.array([1e-12, 1e-20])
    got = _tail_difference(jumps, 0.0, 2.0, y)
    want = jumps.tail(y) * -np.expm1(-2.0 * y)
    assert np.all(got > 0.0)
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    assert got[0] == pytest.approx(float(jumps.tail(1e-12)) * 2e-12, rel=1e-11)
