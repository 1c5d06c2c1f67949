import math

import pytest

from levyfluct import (
    QuadratureFailure,
    conditioned_resolvent_density,
    creeping_probability,
    g_family,
    h_beta,
    hitting_laplace,
    kernel_K,
    make_engine,
    passage_below_laplace,
    resolvent_density,
    survival_probability,
)
from levyfluct._quadrature import integrate_finite, integrate_semiinfinite
from conftest import bm, stable_sn


# ---------------------------------------------------------------------------
# resolvent density
# ---------------------------------------------------------------------------


def test_resolvent_mass_is_one_over_rate(engine_b):
    q = 2.0
    pos = integrate_semiinfinite(lambda y: resolvent_density(engine_b, q, y),
                                 decay=0.5, rtol=1e-8, atol=1e-10)
    neg = integrate_semiinfinite(lambda y: resolvent_density(engine_b, q, -y),
                                 decay=0.0, rtol=1e-7, atol=1e-10)
    assert q * (pos + neg) == pytest.approx(1.0, rel=1e-5)


def test_resolvent_decomposition_identity(engine_b):
    # whole = avoiding part + hitting part, evaluated independently
    q, x, y = 2.5, 0.7, 1.3
    whole = resolvent_density(engine_b, q, y - x)
    u0 = resolvent_density(engine_b, q, 0.0)
    hit = resolvent_density(engine_b, q, -x) * resolvent_density(engine_b, q, y) / u0
    avoid = whole - hit
    assert avoid + hit == pytest.approx(whole, rel=1e-10)
    assert avoid >= 0.0


def test_resolvent_brownian_closed_form(engine_bm0):
    # u_q(y) = exp(-|y| sqrt(2q))/sqrt(2q) for driftless unit-variance case
    q = 2.0
    r = math.sqrt(2.0 * q)
    for y in (-1.0, -0.2, 0.0, 0.4, 2.0):
        assert resolvent_density(engine_bm0, q, y) == pytest.approx(
            math.exp(-abs(y) * r) / r, rel=1e-10)


# ---------------------------------------------------------------------------
# h and the transforms
# ---------------------------------------------------------------------------


def test_frozen_mixed_model_values(engine_b):
    assert resolvent_density(engine_b, 2.5, 0.5) == pytest.approx(0.16174150925670225, rel=1e-9)
    assert h_beta(engine_b, 2.5, 1.0) == pytest.approx(0.23431287845989154, rel=1e-9)
    assert hitting_laplace(engine_b, 2.5, 1.0) == pytest.approx(0.1213267057754067, rel=1e-9)
    assert passage_below_laplace(engine_b, 2.5, 1.0) == pytest.approx(0.16427650101432517, rel=1e-9)
    assert creeping_probability(engine_b, 1.0) == pytest.approx(0.2414277239783102, rel=1e-9)
    assert survival_probability(engine_b, 1.0) == pytest.approx(0.48596333835916067, rel=1e-9)


def test_h_positive_both_sides(engine_b):
    for y in (-2.0, -0.1, 0.1, 2.0):
        assert h_beta(engine_b, 2.5, y) > 0.0


def test_h_boundary_slopes(engine_b):
    # near 0 the excessive function is linear from below with slope
    # phi'(beta) phi(beta), and proportional to W from above
    m = engine_b.model
    for beta in (0.5, 2.5):
        slope = m.phi_prime(beta) * m.phi(beta)
        eps = 1e-6
        assert h_beta(engine_b, beta, -eps) / eps == pytest.approx(slope, rel=1e-3)
        ratio = h_beta(engine_b, beta, eps) / engine_b.w(beta, eps)
        assert ratio == pytest.approx(1.0 - 0.5 * m.sigma2 * slope, rel=1e-3)


def test_known_boundary_slopes_mixed_model(engine_b):
    m = engine_b.model
    slope = m.phi_prime(2.5) * m.phi(2.5)
    assert slope == pytest.approx(1.0 / 3.75, rel=1e-10)
    assert 1.0 - 0.5 * m.sigma2 * slope == pytest.approx(11.0 / 15.0, rel=1e-10)


def test_passage_equals_hitting_for_continuous_paths(engine_bm0):
    for beta in (0.5, 2.5):
        for y in (0.3, 1.0, 3.0):
            assert passage_below_laplace(engine_bm0, beta, y) == pytest.approx(
                hitting_laplace(engine_bm0, beta, y), rel=1e-8)


def test_passage_below_brownian_value(engine_bm0):
    # from x the level 0 is reached at Laplace cost exp(-x sqrt(2 beta))
    assert passage_below_laplace(engine_bm0, 2.0, 1.0) == pytest.approx(
        math.exp(-2.0), rel=1e-10)


# ---------------------------------------------------------------------------
# creeping and survival
# ---------------------------------------------------------------------------


def test_creeping_needs_gaussian_part(engine_stable):
    for x in (0.2, 1.0, 4.0):
        assert creeping_probability(engine_stable, x) == 0.0


def test_creeping_brownian_is_passage(engine_bm_up):
    # continuous paths always creep: the probability equals the chance
    # of ever reaching the level going down, exp(-2 gamma x / sigma2)
    for x in (0.5, 1.0, 2.0):
        assert creeping_probability(engine_bm_up, x) == pytest.approx(
            math.exp(-2.0 * x), rel=1e-10)


def test_survival_zero_without_upward_drift(engine_bm0, engine_bm_down):
    assert survival_probability(engine_bm0, 1.0) == 0.0
    assert survival_probability(engine_bm_down, 1.0) == 0.0


def test_survival_brownian(engine_bm_up):
    # mean * W(x) = 1 - exp(-2x) for unit drift and variance
    for x in (0.5, 2.0):
        assert survival_probability(engine_bm_up, x) == pytest.approx(
            1.0 - math.exp(-2.0 * x), rel=1e-10)


# ---------------------------------------------------------------------------
# jump kernel
# ---------------------------------------------------------------------------


def test_kernel_zero_without_jumps(engine_bm0):
    assert kernel_K(engine_bm0, 0.0, 1.0, lambda y, z: 1.0) == 0.0


def test_kernel_bounded_by_passage(engine_b):
    # K_beta 1(x) counts only the passage times that jump across 0
    for x in (0.5, 1.0, 2.0):
        k = kernel_K(engine_b, 2.5, x, lambda y, z: 1.0)
        assert 0.0 < k <= passage_below_laplace(engine_b, 2.5, x) + 1e-12


def test_kernel_deadline_cancels(engine_b):
    with pytest.raises(QuadratureFailure, match="deadline"):
        kernel_K(engine_b, 2.5, 1.0, lambda y, z: 1.0, deadline=0.0)


# ---------------------------------------------------------------------------
# conditioned resolvent
# ---------------------------------------------------------------------------


def test_conditioned_resolvent_positive_and_vanishing(engine_bm0):
    val = conditioned_resolvent_density(engine_bm0, 1.0, 1.0, 1.0, 1.0)
    assert val > 0.0
    near_zero = conditioned_resolvent_density(engine_bm0, 1.0, 1.0, 1.0, 1e-12)
    assert abs(near_zero) < 1e-9


def test_conditioned_resolvent_mass_bound(engine_bm0):
    beta, lam, x = 1.0, 1.0, 1.0
    mass = integrate_finite(
        lambda y: conditioned_resolvent_density(engine_bm0, beta, lam, x, y),
        -30.0, -1e-9, rtol=1e-7, atol=1e-9,
    ) + integrate_finite(
        lambda y: conditioned_resolvent_density(engine_bm0, beta, lam, x, y),
        1e-9, 30.0, rtol=1e-7, atol=1e-9,
    )
    assert mass <= 1.0 / lam + 1e-6


# ---------------------------------------------------------------------------
# conditioning weights
# ---------------------------------------------------------------------------


def test_constant_a_three_cases(engine_bm0, engine_bm_up, engine_bm_down):
    assert g_family(engine_bm0).constant_a == pytest.approx(1.0, rel=1e-9)
    assert g_family(engine_bm_up).constant_a == 0.0
    assert g_family(engine_bm_down).constant_a == pytest.approx(2.0, rel=1e-9)


def test_g_is_negation_when_drift_nonnegative(engine_bm0):
    fam = g_family(engine_bm0)
    assert fam.g(0.0) == 0.0
    assert fam.g(-1.5) == 1.5
    assert fam.g_minus(-2.0) == 2.0


def test_g_plus_is_scale_function(engine_b):
    fam = g_family(engine_b)
    for x in (0.3, 1.0):
        assert fam.g_plus(x) == pytest.approx(engine_b.w(0.0, x), rel=1e-12)


def test_g_minus_beta_monotone_in_killing(engine_b):
    fam = g_family(engine_b)
    x = -0.7
    betas = (10.0, 2.5, 0.5, 0.1, 1e-4, 1e-8)
    vals = [fam.g_minus_beta(b, x) for b in betas]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(fam.g_minus(x), rel=1e-6)


def test_g_tilde_infinite_flag(engine_bm_down, engine_bm_up):
    assert g_family(engine_bm_down).g_tilde_infinite
    assert g_family(engine_bm_down).g_tilde(-1.0) == math.inf
    assert not g_family(engine_bm_up).g_tilde_infinite


def test_survival_small_drift_far_start():
    # psi'(0+) W(x) = 1 - exp(-2*gamma*x/sigma2) for Brownian motion
    engine = make_engine(bm(1e-4))
    exact = -math.expm1(-0.2)
    assert survival_probability(engine, 1000.0) == pytest.approx(exact, rel=1e-9)


def test_h_beta_small_y_matches_mittag_leffler():
    # pure stable: W^(beta)(y) = y^(alpha-1) E_{alpha,alpha}(beta y^alpha/c)/c,
    # phi(beta) = (beta/c)^(1/alpha) and phi'(beta) = phi/(alpha beta), so
    # h_beta(y) = W^(beta)(y) - phi' expm1(phi y) in closed form.  Near 0,
    # h_beta ~ y^(alpha-1) is far below phi', which must not be subtracted
    alpha, c, beta = 1.9, 1.3, 0.1
    engine = make_engine(stable_sn(alpha=alpha, scale=c))
    phi = (beta / c) ** (1.0 / alpha)
    phip = phi / (alpha * beta)
    for y in (1e-6, 3e-6, 4e-5, 1e-3, 0.1, 1.0, 3.0):
        z = beta * y**alpha / c
        ml = math.fsum(z**k / math.gamma(alpha * k + alpha) for k in range(60))
        exact = y ** (alpha - 1.0) * ml / c - phip * math.expm1(phi * y)
        assert h_beta(engine, beta, y) == pytest.approx(exact, rel=1e-10)
