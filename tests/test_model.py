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
from levyfluct.model import _EPS, _psi_size
from conftest import bm, model_b, stable_sn, tempered_mixed

# one model of each jump family
FAMILIES = [bm, model_b, stable_sn, tempered_mixed]


def tempered_pow_split():
    # numpy's pow and Python's give theta**alpha one ulp apart on this model
    return LevyModel(
        gamma=0.0,
        sigma2=0.9943653504819232,
        jumps=TemperedStableJumps(
            alpha=1.6009324230817334, scale=0.8210582819668469, tempering=1.5354014247238896
        ),
    )


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


@pytest.mark.parametrize("make", FAMILIES)
def test_exponent_of_a_float_is_a_float_near_the_array_value(make):
    # a float goes through float arithmetic, an array through numpy; their
    # pow may differ by an ulp, which these points, where no terms cancel,
    # keep within 4 ulp of the result
    m = make()
    for lam in (2.0, 5.0, 13.0):
        for f in (m.psi, m.psi_prime, m.psi_second):
            got, want = f(lam), f(np.array([lam]))[0]
            assert type(got) is float
            assert abs(got - want) <= 4.0 * math.ulp(want), (f.__name__, lam)
    for q in (0.1, 1.0, 10.0):
        got, want = m.phi_prime(q), 1.0 / m.psi_prime(np.array([m.phi(q)]))[0]
        assert type(got) is float
        assert abs(got - want) <= 4.0 * math.ulp(want), q


@pytest.mark.parametrize("make", FAMILIES + [tempered_pow_split])
def test_psi_vanishes_exactly_at_zero_on_floats_and_arrays(make):
    m = make()
    assert m.psi(0.0) == 0.0
    assert m.psi(np.array([0.0]))[0] == 0.0


def test_stable_psi_second_is_infinite_at_zero():
    # Python's 0.0 ** (alpha - 2) raises where numpy's pow gives inf
    m = stable_sn()
    assert m.psi_second(0.0) == math.inf
    assert m.psi_second(np.array([0.0]))[0] == math.inf


@pytest.mark.parametrize("make, below", [(stable_sn, -0.5), (tempered_mixed, -2.0)])
def test_exponent_below_its_domain_is_nan_not_complex(make, below):
    # the domain ends at 0 (stable) and -theta = -1.5 (tempered); Python's
    # pow would turn a float below it complex
    m = make()
    for f in (m.psi, m.psi_prime, m.psi_second):
        got = f(below)
        assert type(got) is float and math.isnan(got)
        with np.errstate(invalid="ignore"):
            arr = f(np.array([below]))
        assert arr.dtype == float and np.isnan(arr[0])


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
        assert type(lam) is float
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


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["none", "cp_exp", "stable", "tempered_stable"]),
    gamma=st.floats(-2.0, 2.0),
    sigma2=st.floats(0.0, 3.0),
    alpha=st.floats(1.05, 1.95),
    scale=st.floats(0.1, 3.0),
    rate=st.floats(0.2, 5.0),
    log_q=st.floats(-8.0, 6.0),
)
def test_phi_solve_holds_on_the_array_exponent(family, gamma, sigma2, alpha, scale, rate, log_q):
    # phi solves on floats; numpy's psi and psi' at its root must still meet
    # the solver's stopping rule, give or take the one ulp of the terms' size
    # by which the two pows differ, and invert phi' to 1e-12 or to the
    # rounding floor of psi', where the tempered constants cancel at small lam
    jumps = {"none": NoJumps(), "cp_exp": ExpJumps(rate=scale, jump_rate=rate),
             "stable": StableJumps(alpha=alpha, scale=scale),
             "tempered_stable": TemperedStableJumps(alpha=alpha, scale=scale, tempering=rate)}
    if family in ("none", "cp_exp"):
        sigma2 = max(sigma2, 0.1)
    m = LevyModel(gamma=gamma, sigma2=sigma2, jumps=jumps[family])
    q = 10.0**log_q
    lam = m.phi(q)
    gap = abs(m.psi(np.array([lam]))[0] - q)
    assert gap <= 1e-13 * q + 9.0 * _EPS * _psi_size(m, lam)
    d1 = m.psi_prime(np.array([lam]))[0]
    size = abs(gamma) + sigma2 * lam + abs(m.jumps.psi_part_d1(lam))
    if family == "tempered_stable":
        size += 2.0 * scale * alpha * rate ** (alpha - 1.0)
    assert abs(m.phi_prime(q) * d1 - 1.0) <= 1e-12 + 8.0 * _EPS * size / d1


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


@pytest.mark.parametrize("make, jumps", [
    (bm, {"family": "none"}),
    (model_b, {"family": "cp_exp", "rate": 1.0, "jump_rate": 1.0}),
    (stable_sn, {"family": "stable", "alpha": 1.5, "scale": 1.0}),
    (tempered_mixed, {"family": "tempered_stable", "alpha": 1.6, "scale": 0.8,
                      "tempering": 1.5}),
])
def test_model_to_dict_snapshot(make, jumps):
    m = make()
    expected = {"gamma": m.gamma, "sigma2": m.sigma2, "jumps": jumps}
    # the emitted JSON, key order included
    assert json.dumps(model_to_dict(m)) == json.dumps(expected)


def test_jump_field_messages():
    base = {"gamma": 0.0, "sigma2": 1.0}
    with pytest.raises(ModelFormatError) as info:
        model_from_dict({**base, "jumps": {"family": "stable", "alpha": 1.5, "rate": 1.0,
                                           "mu": 2.0}})
    assert str(info.value) == "jumps: unknown field(s) ['mu', 'rate'] for family 'stable'"
    with pytest.raises(ModelFormatError) as info:
        model_from_dict({**base, "jumps": {"family": "tempered_stable", "alpha": 1.5}})
    assert str(info.value) == "jumps.scale: field is required for family 'tempered_stable'"


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
    model = tempered_pow_split()
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
    for part in ("transform", "moment"):
        series, direct = _tempered_series(alpha, s, part), _tempered_direct(alpha, s, part)
        assert np.max(np.abs(series - direct) / np.abs(direct)) <= 1e-13


@pytest.mark.parametrize("alpha", [1.05, 1.6, 1.95])
def test_tempered_tail_parts_computed_alone_are_bit_identical(alpha):
    # tail_transform and tail_moment each compute only their own part, bit
    # for bit what the two parts computed together give
    from levyfluct.model import _binomials, _tempered_direct, _tempered_series

    s = np.concatenate([np.logspace(-6, np.log10(0.49), 20), np.logspace(0, 3, 20)])
    c = _binomials(alpha)
    k = np.arange(c.size)
    powers = s[:, None] ** k
    grown = np.expm1(alpha * np.log1p(s)) / s
    both = {
        _tempered_series: (s * (powers @ c), powers @ ((k + 1.0) * c)),
        _tempered_direct: (grown - alpha, (alpha * np.power(1.0 + s, alpha - 1.0) - grown) / s),
    }
    for branch, (transform, moment) in both.items():
        assert np.array_equal(branch(alpha, s, "transform"), transform)
        assert np.array_equal(branch(alpha, s, "moment"), moment)
