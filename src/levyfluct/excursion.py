"""Excursion-measure quantities away from 0.

Under the excursion measure n of the process away from the point 0, with
e_beta an independent exponential killing time of rate beta, the masses
of the basic path events all reduce to expressions in the exponent psi,
its right inverse phi, and the jump tail.  This module evaluates:

* the killed-lifetime intensities n(zeta > e_beta) and the partition of
  that event by how the excursion first goes negative (never / at the
  start / by a jump before or after e_beta / by creeping); beta = 0
  gives the unkilled masses of the total and the jump crossing,
* the normalizing constants of the entrance laws conditioned on the sign
  behaviour at the start of the excursion,
* Laplace functionals of the entrance law, up to the local-time
  normalization (the free constant is fixed to 1 here),
* the expected overshoot-like mass of level crossings accumulated over
  an excursion, and its recomputation against the occupation density.

The total n(zeta > e_beta) = 1/phi'(beta) is also the Laplace exponent
of the inverse local time at 0 (Bertoin 1996, ch. IV), a subordinator
with no drift in the supported class: 1/(beta*phi'(beta)) -> 0 as beta
grows, since the time a path of unbounded variation spends at 0 has
Lebesgue measure 0.

Everything is closed-form.  The two parts of the partition that
integrate the jump tail pitail are exact transforms of the exponent:
with psi_J the jump part of psi,

    integral (1 - exp(-r*y)) pitail(y) dy = psi_J(r)/r  (up to a constant),
    integral exp(-r*u) * u * pitail(u) du  = its r-derivative,

so the crossing intensities and the overshoot mass come from the jump
family's ``tail_transform`` and ``tail_moment``.  With them the
partition holds by algebra, so the quadratures of the paper's
integrands are kept only as an independent reference: the validation
suite measures the partition residual with them too, and
``occupation_overshoot_identity`` recomputes the overshoot mass from the
occupation density, its double integral collapsed by Fubini to one
quadrature of the jump density.  Those integrals (and the ladder form of
the validation suite) run on the array Gauss-Kronrod rule over the jump
family's array tail or density, with graded maps that bound the
u**(1 - alpha) endpoint at 0 and a bare power tail at infinity.

All functions take a ScaleEngine so repeated calls share the engine's
caches; the model is reached through ``engine.model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import _jump_quadrature, integrate_finite
from ._special import _incomplete_gamma
from .errors import BadParameterError, DegenerateDenominator, _check_arg
from .model import NoJumps

__all__ = [
    "IntensityTable",
    "NegativeStart",
    "EntranceConstants",
    "EntranceLaw",
    "intensity_total",
    "intensity_upper_creep",
    "intensity_stay_positive",
    "intensity_cross_before",
    "intensity_negative_start",
    "intensity_cross_after",
    "intensity_table",
    "dual_lifetime_masses",
    "entrance_constants",
    "entrance_law_laplace",
    "overshoot_mass",
    "occupation_overshoot_identity",
]


@dataclass(frozen=True)
class NegativeStart:
    """Mass of excursions that are negative immediately, split by lifetime."""

    finite: float
    infinite: float
    total: float


@dataclass(frozen=True)
class IntensityTable:
    """All killed-lifetime intensities of one model at one killing rate."""

    beta: float
    total: float
    upper_creep: float
    stay_positive_forever: float
    cross_before: float
    negative_start_finite: float
    negative_start_infinite: float
    cross_after: float
    residual: float

    def as_dict(self):
        return {
            "beta": self.beta,
            "total": self.total,
            "upperCreep": self.upper_creep,
            "stayPositiveForever": self.stay_positive_forever,
            "crossBefore": self.cross_before,
            "negativeStartFinite": self.negative_start_finite,
            "negativeStartInfinite": self.negative_start_infinite,
            "crossAfter": self.cross_after,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class EntranceConstants:
    c_neg: float
    c_pos: float
    c_stay: float


@dataclass(frozen=True)
class EntranceLaw:
    full_line: float
    positive_part: float


# ---------------------------------------------------------------------------
# lifetime intensities
# ---------------------------------------------------------------------------


def intensity_total(engine, beta):
    """n(zeta > e_beta) = 1/phi'(beta) = psi'(phi(beta)), for beta >= 0.

    beta = 0 gives n(zeta = inf) = psi'(phi(0)+), zero when oscillating.
    For beta > 0 this is also the Laplace exponent of the inverse local
    time at 0, whose drift lim 1/(beta*phi'(beta)) is 0 for every model
    of the supported class (unbounded variation), so the exponent is its
    jump part alone.
    """
    beta = _check_arg("beta", beta, strict=False)
    m = engine.model
    return float(m.psi_prime(m.phi(beta)))


def intensity_upper_creep(engine, beta):
    """n(e_beta < zeta = tau0minus < inf): ends by creeping downward across 0.

    Equals (sigma2/2)(phi(beta) - phi(0)); vanishes without a Gaussian
    part, since only the Brownian component can hit a level continuously.
    """
    beta = _check_arg("beta", beta)
    m = engine.model
    return float(0.5 * m.sigma2 * (m.phi(beta) - m.phi(0.0)))


def intensity_stay_positive(engine):
    """n(tau0minus = inf) = psi'(0+) when drifting to +inf, else 0."""
    return max(engine.model.mean, 0.0)


def intensity_cross_before(engine, beta):
    """n(0 < tau0minus < e_beta < zeta): goes negative by a jump, then survives.

    phi(beta) * integral_0^inf exp(-phi(beta)*u) * u * pitail(u) du, for
    beta >= 0.  beta = 0 gives the same event with zeta = inf, nonzero
    only when drifting to -inf.
    """
    beta = _check_arg("beta", beta, strict=False)
    m = engine.model
    phib = m.phi(beta)
    if phib == 0.0:
        return 0.0
    return float(phib * m.jumps.tail_moment(phib))


def intensity_negative_start(engine, beta):
    """n(tau0minus = 0, ...): excursions that dip negative immediately.

    The finite-lifetime part above e_beta is (sigma2/2)(phi(beta)-phi(0)),
    the never-ending part is (sigma2/2)*phi(0), and their sum
    (sigma2/2)*phi(beta) holds in every drift regime.
    """
    beta = _check_arg("beta", beta)
    m = engine.model
    half_s2 = 0.5 * m.sigma2
    phi0 = m.phi(0.0)
    phib = m.phi(beta)
    return NegativeStart(
        finite=float(half_s2 * (phib - phi0)),
        infinite=float(half_s2 * phi0),
        total=float(half_s2 * phib),
    )


def intensity_cross_after(engine, beta):
    """n(e_beta < tau0minus < zeta): survives e_beta positive, then jumps below.

    integral_0^inf pitail(y) * (exp(-phi(0)*y) - exp(-phi(beta)*y)) dy,
    the difference of the tail transform at phi(beta) and at phi(0).
    """
    beta = _check_arg("beta", beta)
    m = engine.model
    tail_transform = m.jumps.tail_transform
    return float(tail_transform(m.phi(beta)) - tail_transform(m.phi(0.0)))


def _tail_difference(jumps, phi0, phib, y):
    # pitail(y) * (exp(-phi0*y) - exp(-phib*y)); expm1 keeps the
    # difference at small y, where exp(-phi0*y) rounds to 1
    return jumps.tail(y) * (np.expm1(-phi0 * y) - np.expm1(-phib * y))


def _quadrature_crossings(engine, beta):
    # cross_before and cross_after by quadrature of the paper's
    # integrands, the independent reference for the closed forms
    m = engine.model
    jumps = m.jumps
    if isinstance(jumps, NoJumps):
        return 0.0, 0.0
    phi0 = m.phi(0.0)
    phib = m.phi(beta)

    def moment(u):
        return np.exp(-phib * u) * u * jumps.tail(u)

    before = float(phib * _jump_quadrature(jumps, moment, phib))
    after = _jump_quadrature(jumps, lambda y: _tail_difference(jumps, phi0, phib, y), phi0)
    return before, after


def _quadrature_residual(engine, table):
    # the table's residual with both crossings taken from the quadratures
    before, after = _quadrature_crossings(engine, table.beta)
    neg = float(0.5 * engine.model.sigma2 * engine.model.phi(table.beta))
    return table.total - (neg + before + table.upper_creep
                          + table.stay_positive_forever + after)


def intensity_table(engine, beta):
    """Assemble every intensity of one model at one killing rate beta > 0.

    ``residual`` is the total mass minus the partition by first-negative
    behaviour.  It vanishes up to rounding, since every part is
    closed-form; it is reported, not raised, so the validation layer can
    assert it at its own tolerance.
    """
    beta = _check_arg("beta", beta)
    neg = intensity_negative_start(engine, beta)
    total = intensity_total(engine, beta)
    before = intensity_cross_before(engine, beta)
    creep = intensity_upper_creep(engine, beta)
    stay = intensity_stay_positive(engine)
    after = intensity_cross_after(engine, beta)
    residual = total - (neg.total + before + creep + stay + after)
    return IntensityTable(
        beta=beta,
        total=total,
        upper_creep=creep,
        stay_positive_forever=stay,
        cross_before=before,
        negative_start_finite=neg.finite,
        negative_start_infinite=neg.infinite,
        cross_after=after,
        residual=residual,
    )


def dual_lifetime_masses(engine, beta):
    """Killed-lifetime masses for the two reflected processes.

    Excursions of the running-maximum reflection have mass phi(beta) above
    an independent e_beta; those of the running-minimum reflection have
    beta/phi(beta).  Their product against u_beta(0) = phi'(beta) is the
    consistency relation the validation suite asserts.
    """
    beta = _check_arg("beta", beta)
    phib = float(engine.model.phi(beta))
    return phib, beta / phib


# ---------------------------------------------------------------------------
# entrance law
# ---------------------------------------------------------------------------


def entrance_constants(engine, beta):
    """Normalizers of the entrance law split by starting sign behaviour.

    c_neg = 1/(phi(beta) phi'(beta)) for the immediately-negative part,
    c_pos = 1/(1 - (sigma2/2) phi'(beta) phi(beta)) for the positive-start
    part, and c_stay = phi'(beta) * c_pos for starting positive and
    staying positive up to e_beta.
    """
    beta = _check_arg("beta", beta)
    m = engine.model
    phib = m.phi(beta)
    phipb = m.phi_prime(beta)
    den = 1.0 - 0.5 * m.sigma2 * phipb * phib
    if den <= 1e-12:
        raise DegenerateDenominator(
            f"entrance-law denominator 1 - (sigma2/2)*phi'(beta)*phi(beta) "
            f"= {den:.3e} at beta = {beta}"
        )
    return EntranceConstants(
        c_neg=float(1.0 / (phib * phipb)),
        c_pos=float(1.0 / den),
        c_stay=float(phipb / den),
    )


def entrance_law_laplace(engine, q, f, support):
    """Two Laplace-type functionals of the entrance law against f.

    ``full_line`` integrates f(x) * (exp(-phi(q)x) - W^(q)(-x)/phi'(q))
    over the support; the weight is the q-resolvent at 0 scaled by
    1/phi'(q), so it is nonnegative on both half lines.  ``positive_part``
    integrates exp(-phi(q)x) f(x) over the positive part of the support
    only.  Both are normalized with the free local-time constant set
    to 1.

    f must be integrable on the finite interval ``support = (lo, hi)``.
    It is called on 1-D numpy arrays of points and returns their values,
    or a constant that broadcasts against them.
    """
    q = _check_arg("q", q)
    try:
        lo, hi = support
    except (TypeError, ValueError):
        raise BadParameterError(f"support must be a pair (lo, hi), got {support!r}") from None
    lo, hi = (_check_arg("support", s, -math.inf) for s in (lo, hi))
    if not lo < hi:
        raise BadParameterError(f"support must be an interval (lo, hi), got {support}")
    m = engine.model
    phi = m.phi(q)
    phip = m.phi_prime(q)

    # on x >= 0 the full-line weight is exp(-phi(q)x), so the positive
    # part is also the full line's share of [0, hi]
    positive = 0.0
    if hi > 0.0:
        positive = integrate_finite(lambda x: np.exp(-phi * x) * f(x), max(lo, 0.0), hi)
    full = positive
    if lo < 0.0:
        full += integrate_finite(
            lambda x: -f(x) * engine.w_minus_leading(q, -x) / phip, lo, min(hi, 0.0)
        )
    return EntranceLaw(full_line=full, positive_part=positive)


# ---------------------------------------------------------------------------
# overshoot / occupation quantities
# ---------------------------------------------------------------------------


def overshoot_mass(engine):
    """integral_0^inf exp(-phi(0)*u) * u * pitail(u) du, the tail moment at phi(0).

    math.inf exactly when the process does not drift to -inf and the
    variance blows up (psi''(0+) = inf, the stable family at phi(0) = 0):
    then u*pitail(u) has a nonintegrable tail and no exponential damping
    rescues it.
    """
    m = engine.model
    return float(m.jumps.tail_moment(m.phi(0.0)))


def occupation_overshoot_identity(engine):
    """Cross-check pair (direct mass, occupation-integral mass).

    Recomputes overshoot_mass by integrating the occupation density
    against the jump measure weighted by the harmonic-minorant scale
    g(w) = (1 - exp(phi(0)w))/phi(0), w < 0.  Fubini collapses that
    double integral to one quadrature of the jump density,

        integral_0^inf pi(u) * P(2, phi(0)*u)/phi(0)**2 du,

    with P the regularized lower incomplete gamma function, whose kernel
    is u**2/2 at phi(0) = 0.  The two results agree up to quadrature
    error whenever the mass is finite.
    """
    m = engine.model
    direct = overshoot_mass(engine)
    if isinstance(m.jumps, NoJumps):
        return 0.0, 0.0
    if math.isinf(direct):
        raise BadParameterError(
            "occupation cross-check requires a finite overshoot mass"
        )
    phi0 = m.phi(0.0)

    def kernel(u):
        # integral_0^u exp(-phi0*(u - s)) g(-s) ds
        if phi0 == 0.0:
            return 0.5 * u * u
        return _incomplete_gamma(2.0, phi0 * u)[0] / phi0**2

    via = _jump_quadrature(m.jumps, lambda u: m.jumps.density(u) * kernel(u), phi0)
    return direct, via

