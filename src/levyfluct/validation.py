"""Invariant suites for one model: the machinery behind `validate`.

Every identity the library is built on is checked here at documented
tolerances: inverse-function and Wiener-Hopf relations on the exponent,
support/monotonicity/roundtrip properties of the scale functions, the
resolvent mass and decomposition, boundary and limit behaviour of the
conditioning weights, the excursion-intensity partition, and (opt-in)
Monte Carlo agreement.  Each check reports a measured scalar against a
tolerance; a report passes iff every check does.

Tolerances live in one table so the CLI can override them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import excursion, fluctuation, montecarlo
from ._quadrature import _jump_quadrature
from .errors import BadConfigError, BadParameterError, _check_arg
from .model import NoJumps, model_to_dict
from .scale import _integrate_on_w, laplace_roundtrip, make_engine, w_series_check

__all__ = ["CheckResult", "ValidationReport", "TOLERANCES", "run_validation"]

TOLERANCES = {
    "model.phi_inverse": 1e-10,
    "model.phi_prime_inverse": 1e-9,
    "model.wh_space_factorization": 1e-6,
    "model.kappa_product": 1e-12,
    "model.pi_tail_origin": 1e-10,
    "model.ladder_bernstein": 1e-9,
    "scale.support": 1e-8,
    "scale.monotone": 1e-9,
    "scale.derivative_consistency": 1e-4,
    "scale.laplace_roundtrip": 1e-6,
    "scale.oracle_agreement": 1e-6,
    "scale.series_agreement": 1e-9,
    "fluct.resolvent_mass": 1e-5,
    "fluct.resolvent_decomposition": 1e-10,
    "fluct.h_boundary_limits": 1e-3,
    "fluct.h_limit_monotone": 1e-9,
    "fluct.h_limit_value": 1e-6,
    "fluct.g_minus_beta_limit": 1e-6,
    "fluct.passage_equals_hitting": 1e-8,
    "exc.partition": 1e-6,
    "exc.negative_start_mass": 1e-8,
    "exc.sign_structure": 0.0,
    "exc.beta_monotone": 1e-9,
    "exc.zeta_infinite_limits": 1e-4,
    "exc.temporal_wh": 1e-10,
    "mc.martingale": 3.0,
    "mc.estimator": 3.0,
}

_Q_GRID = tuple(float(q) for q in np.logspace(-4, 4, 9))
_BETA_GRID = (0.1, 0.5, 2.5, 10.0)


@dataclass(frozen=True)
class CheckResult:
    """One invariant: passes iff measured <= tolerance."""

    name: str
    measured: float
    tolerance: float
    context: str

    @property
    def passed(self):
        return self.measured <= self.tolerance

    def as_dict(self):
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "measured": self.measured,
            "tolerance": self.tolerance,
            "context": self.context,
        }


@dataclass(frozen=True)
class ValidationReport:
    model: dict
    checks: tuple

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]

    @property
    def ok(self):
        return not self.failures

    def as_dict(self):
        return {
            "schema": "levy-fluct/1",
            "model": self.model,
            "checks": [c.as_dict() for c in self.checks],
            "summary": {
                "passed": sum(1 for c in self.checks if c.passed),
                "failed": len(self.failures),
            },
        }


def _check(name, measured, context, tolerances):
    return CheckResult(
        name=name,
        measured=float(measured),
        tolerance=float(tolerances[name]),
        context=context,
    )


# ---------------------------------------------------------------------------
# model suite
# ---------------------------------------------------------------------------


def _ladder_lk(model, lam):
    # Levy-Khintchine form of the descending-ladder exponent: killing
    # max(psi'(0+), 0), drift sigma2/2, and the ladder jump part.  The
    # double integral over the ladder tail is collapsed by Fubini to a
    # single quadrature of the jump tail against the ladder kernel,
    # which stays integrable even for bare power tails
    base = max(model.mean, 0.0) + 0.5 * model.sigma2 * lam
    jumps = model.jumps
    if isinstance(jumps, NoJumps):
        return base
    phi0 = float(model.phi(0.0))
    gap = abs(lam - phi0)

    def kern(z):
        # w(z) exp(-phi0 z) with w = lam (1 - exp(-(lam - phi0) z))/(lam - phi0),
        # written without the growing exponential of lam < phi0
        if gap < 1e-12:
            w = lam * z
        else:
            w = -lam * np.expm1(-gap * z) / gap
        return w * np.exp(-min(lam, phi0) * z) * jumps.tail(z)

    tail = _jump_quadrature(jumps, kern, min(lam, phi0), rtol=1e-9, atol=1e-12)
    return base + tail


def _model_checks(model, tol):
    out = []
    worst = 0.0
    for q in _Q_GRID:
        worst = max(worst, abs(float(model.psi(model.phi(q))) - q) / q)
    out.append(_check("model.phi_inverse", worst,
                      "max rel |psi(phi(q)) - q| on log grid q in [1e-4, 1e4]", tol))

    worst = 0.0
    for q in _Q_GRID:
        lhs = 1.0 / float(model.phi_prime(q))
        rhs = float(model.psi_prime(model.phi(q)))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    out.append(_check("model.phi_prime_inverse", worst,
                      "1/phi'(q) vs psi'(phi(q)) on the same grid", tol))

    phi0 = float(model.phi(0.0))
    worst = 0.0
    for lam in (0.25, 1.0, 3.0, 7.0):
        if abs(lam - phi0) < 1e-9:
            continue
        psi = float(model.psi(lam))
        gap = abs(psi - (lam - phi0) * _ladder_lk(model, lam))
        worst = max(worst, gap / (1.0 + abs(psi)))
    out.append(_check("model.wh_space_factorization", worst,
                      "psi(lam) vs (lam - phi(0)) * ladder LK form, lam grid", tol))

    worst = 0.0
    for q in _Q_GRID:
        kappa = float(model.phi(q))
        kappa_hat = (q - float(model.psi(0.0))) / kappa
        worst = max(worst, abs(kappa * kappa_hat - q) / q)
    out.append(_check("model.kappa_product", worst,
                      "kappa(q,0) * kappahat(q,0) = q on the q grid", tol))

    if not isinstance(model.jumps, NoJumps) and model.jumps.finite_activity:
        rho = model.jumps.rate
        out.append(_check("model.pi_tail_origin",
                          abs(float(model.pi_tail(1e-12)) - rho) / rho,
                          "pi_tail(0+) recovers the Poisson rate", tol))

    grid = np.linspace(0.05, 8.0, 24)
    vals = model.ladder_exponent(grid)
    d1 = np.diff(vals)
    d2 = np.diff(d1)
    scale = 1.0 + float(np.max(np.abs(vals)))
    worst = max(
        max(0.0, -float(vals.min())),
        max(0.0, -float(d1.min())),
        max(0.0, float(d2.max())),
    ) / scale
    out.append(_check("model.ladder_bernstein", worst,
                      "ladder exponent nonnegative, nondecreasing, concave", tol))
    return out


# ---------------------------------------------------------------------------
# scale suite
# ---------------------------------------------------------------------------


def _scale_checks(engine, tol):
    out = []
    model = engine.model
    worst = max(
        abs(engine.w(0.5, -1.0)),
        abs(engine.w(2.5, -0.3)),
        abs(engine.w(0.5, 0.0)),
        abs(engine.w(2.5, 0.0)),
    )
    out.append(_check("scale.support", worst,
                      "W vanishes on x <= 0 (unbounded variation)", tol))

    worst = 0.0
    xs = np.linspace(0.05, 6.0, 14)
    for q in (0.0, 2.5):
        vals = engine.w(q, xs)
        drop = -float(np.diff(vals).min())
        worst = max(worst, max(0.0, drop) / (1.0 + float(np.abs(vals).max())))
    out.append(_check("scale.monotone", worst,
                      "W^(q) nondecreasing on x in [0.05, 6], q in {0, 2.5}", tol))

    worst = 0.0
    xs = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
    h = 1e-5 * np.maximum(1.0, xs)
    for q in (0.5, 2.5):
        fd = (engine.w(q, xs + h) - engine.w(q, xs - h)) / (2.0 * h)
        an = engine.w_prime(q, xs)
        worst = max(worst, float(np.max(np.abs(fd - an) / np.abs(an))))
    out.append(_check("scale.derivative_consistency", worst,
                      "centered difference of W vs w_prime", tol))

    worst = 0.0
    for q in (0.5, 2.5):
        lam = float(model.phi(q)) + (1.0 if q < 1.0 else 2.0)
        rt = laplace_roundtrip(engine, q, lam)
        worst = max(worst, abs(rt.rel_gap))
    out.append(_check("scale.laplace_roundtrip", worst,
                      "transform of W^(q) back against 1/(psi - q)", tol))

    if engine.closed_kind is not None:
        worst = 0.0
        xs = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
        for q in (0.0, 0.5, 2.5):
            a = engine.w(q, xs)
            b = engine._contour(q, xs, "w").value
            worst = max(worst, float(np.max(np.abs(a - b) / np.abs(a))))
        out.append(_check("scale.oracle_agreement", worst,
                          "closed form vs contour inversion, full grid", tol))

    sc = w_series_check(engine, 0.5, 0.5)
    out.append(_check("scale.series_agreement", abs(sc.rel_gap),
                      "resolvent identity W^(q) - W = q W*W^(q) vs engine", tol))
    return out


# ---------------------------------------------------------------------------
# fluctuation suite
# ---------------------------------------------------------------------------


def _fluct_checks(engine, tol):
    out = []
    model = engine.model

    worst = 0.0
    for q in (0.5, 2.0, 10.0):
        phi = float(model.phi(q))
        pos = float(model.phi_prime(q)) / phi
        neg = _integrate_on_w(
            model,
            lambda y: fluctuation.resolvent_density(engine, q, -y),
            0.0,
            rtol=1e-7,
            atol=1e-10,
        )
        worst = max(worst, abs(q * (pos + neg) - 1.0))
    out.append(_check("fluct.resolvent_mass", worst,
                      "q * integral of u_q over the line, q in {0.5, 2, 10}", tol))

    worst = 0.0
    q = 2.5
    u0 = float(model.phi_prime(q))
    for x, y in ((0.7, 1.3), (-0.4, 0.9), (1.5, -0.6)):
        free = fluctuation.resolvent_density(engine, q, y - x)
        killed = (fluctuation.resolvent_density(engine, q, -x)
                  * fluctuation.resolvent_density(engine, q, y) / u0)
        lhs = (free - killed) + killed
        worst = max(worst, abs(lhs - free) / (1.0 + abs(free)))
    out.append(_check("fluct.resolvent_decomposition", worst,
                      "conditioned + killed parts recompose u_q(y - x)", tol))

    # the x > 0 ratio approaches its limit only like eps^(2 - alpha)
    # when the jump part has infinite variation, which never reaches
    # 1e-3 at any eps clear of the inversion noise floor; it is checked
    # where a closed form makes eps = 1e-6 resolvable.  The x < 0 ratio
    # is closed form for every model.
    worst = 0.0
    for beta in (0.5, 2.5):
        phi = float(model.phi(beta))
        phip = float(model.phi_prime(beta))
        below = fluctuation.h_beta(engine, beta, -1e-6) / 1e-6
        worst = max(worst, abs(below - phip * phi) / (phip * phi))
        if engine.closed_kind is not None:
            above = fluctuation.h_beta(engine, beta, 1e-6) / engine.w(beta, 1e-6)
            target = 1.0 - 0.5 * model.sigma2 * phip * phi
            worst = max(worst, abs(above - target) / abs(target))
    out.append(_check("fluct.h_boundary_limits", worst,
                      "h_beta(x)/|x| (all) and h_beta(x)/W(x) (closed kinds) near 0", tol))

    # the beta -> 0 gap scales like phi(beta) x^2 / 2, and phi(1e-8) is
    # O(sqrt beta) for oscillating models, so 1e-6 agreement is a
    # statement about |x| <= 0.1; monotonicity itself holds everywhere
    fam = fluctuation.g_family(engine)
    betas = (10.0, 2.5, 0.5, 0.1, 1e-2, 1e-4, 1e-8)
    worst_mono = 0.0
    for x in (-0.05, -0.5, -2.0):
        ratios = []
        gvals = []
        for beta in betas:
            phi = float(model.phi(beta))
            phip = float(model.phi_prime(beta))
            ratios.append(fluctuation.h_beta(engine, beta, x) / (phi * phip))
            gvals.append(fam.g_minus_beta(beta, x))
        ref = abs(fam.g_minus_beta(0.0, x))
        for a, b in zip(ratios, ratios[1:]):
            worst_mono = max(worst_mono, (a - b) / (1.0 + ref))
        for a, b in zip(gvals, gvals[1:]):
            worst_mono = max(worst_mono, (a - b) / (1.0 + ref))
    out.append(_check("fluct.h_limit_monotone", worst_mono,
                      "h_beta/(phi phi') and g_minus_beta nondecreasing as beta drops", tol))

    worst_lim = 0.0
    worst_g = 0.0
    for x in (-0.01, -0.05, -0.1):
        phi = float(model.phi(1e-8))
        phip = float(model.phi_prime(1e-8))
        ratio = fluctuation.h_beta(engine, 1e-8, x) / (phi * phip)
        limit = fam.g_minus_beta(0.0, x)
        ref = abs(limit)
        worst_lim = max(worst_lim, abs(ratio - limit) / max(1.0, ref))
        worst_g = max(worst_g, abs(fam.g_minus_beta(1e-8, x) - limit) / max(1.0, ref))
    out.append(_check("fluct.h_limit_value", worst_lim,
                      "h_beta/(phi phi') at beta = 1e-8 against g_minus, |x| <= 0.1", tol))
    out.append(_check("fluct.g_minus_beta_limit", worst_g,
                      "g_minus_beta at beta = 1e-8 against g_minus, |x| <= 0.1", tol))

    if isinstance(model.jumps, NoJumps):
        worst = 0.0
        for beta in (0.5, 2.5):
            for y in (0.3, 1.0, 3.0):
                worst = max(worst, abs(
                    fluctuation.passage_below_laplace(engine, beta, y)
                    - fluctuation.hitting_laplace(engine, beta, y)))
        out.append(_check("fluct.passage_equals_hitting", worst,
                          "continuous paths cannot jump over 0", tol))
    return out


# ---------------------------------------------------------------------------
# excursion suite
# ---------------------------------------------------------------------------


def _excursion_checks(engine, tol):
    out = []
    model = engine.model
    tables = {beta: excursion.intensity_table(engine, beta) for beta in _BETA_GRID}

    # the closed forms make the table's residual vanish by algebra, so
    # the partition is also measured with both crossing intensities
    # taken from quadratures of the jump tail
    worst = max(
        max(abs(t.residual), abs(excursion._quadrature_residual(engine, t))) / t.total
        for t in tables.values()
    )
    out.append(_check("exc.partition", worst,
                      "lifetime partition residual over the beta grid, closed and "
                      "with quadrature crossings", tol))

    worst = 0.0
    for beta, t in tables.items():
        neg = t.negative_start_finite + t.negative_start_infinite
        target = 0.5 * model.sigma2 * float(model.phi(beta))
        worst = max(worst, abs(neg - target) / (1.0 + target))
    out.append(_check("exc.negative_start_mass", worst,
                      "negative-start mass equals (sigma2/2) phi(beta)", tol))

    if model.sigma2 == 0.0:
        worst = max(
            t.negative_start_finite + t.negative_start_infinite + t.upper_creep
            for t in tables.values()
        )
        out.append(_check("exc.sign_structure", worst,
                          "no Gaussian part: negative-start and creep vanish", tol))

    # cross_before is genuinely unimodal in beta (for exponential jumps
    # it is phi/(1+phi)^2, peaking at phi = 1), so only the provably
    # monotone intensities are held to the ordering
    worst = 0.0
    for name in ("total", "upper_creep", "cross_after"):
        vals = [getattr(tables[beta], name) for beta in _BETA_GRID]
        for a, b in zip(vals, vals[1:]):
            worst = max(worst, (a - b) / (1.0 + abs(a)))
    negs = [tables[beta].negative_start_finite + tables[beta].negative_start_infinite
            for beta in _BETA_GRID]
    for a, b in zip(negs, negs[1:]):
        worst = max(worst, (a - b) / (1.0 + abs(a)))
    out.append(_check("exc.beta_monotone", worst,
                      "monotone intensities nondecreasing in beta", tol))

    # convergence of the total is O(phi(beta)^(alpha-1)) and the pure
    # stable class only reaches 1e-4 once beta is far below 1e-8
    beta0 = 1e-13
    gaps = [
        abs(excursion.intensity_total(engine, beta0)
            - excursion.intensity_total(engine, 0.0)),
        abs(excursion.intensity_cross_before(engine, beta0)
            - excursion.intensity_cross_before(engine, 0.0)),
        abs(excursion.intensity_negative_start(engine, beta0).total
            - 0.5 * model.sigma2 * float(model.phi(0.0))),
    ]
    out.append(_check("exc.zeta_infinite_limits", max(gaps),
                      "beta -> 0 intensities against the infinite-lifetime masses", tol))

    worst = 0.0
    for beta in _BETA_GRID:
        _, below = excursion.dual_lifetime_masses(engine, beta)
        phip = float(model.phi_prime(beta))
        target = beta * phip / float(model.phi(beta))
        worst = max(worst, abs(phip * below - target) / target)
    out.append(_check("exc.temporal_wh", worst,
                      "u_beta(0) times the lower lifetime mass", tol))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo suite (opt-in)
# ---------------------------------------------------------------------------


def _mc_configs(model, paths, dt, seed):
    # the martingale check's config, every path run to t = 1, and the
    # estimators'; a bad setting raises BadConfigError naming it
    cfg = montecarlo.MCConfig(dt=dt, paths=paths, seed=seed)
    if cfg.dt > 1.0:
        raise BadConfigError(f"dt must be <= 1, the martingale check's horizon, got {cfg.dt}")
    return replace(cfg, horizon=1.0), replace(cfg, horizon=None if model.mean != 0.0 else 12.0)


def _mc_checks(model, tol, cfg, estimator_cfg):
    # cfg and estimator_cfg as _mc_configs gives them
    out = []
    for lam in (0.5, 1.0):
        est = montecarlo.martingale_check(model, cfg, lam)
        z = abs(est.mean - 1.0) / max(est.stderr, 1e-300)
        out.append(_check("mc.martingale", z,
                          f"|z| of exp(lam X_t - psi(lam) t) at lam = {lam}", tol))

    # (estimator, arguments, context); built per call, so a wrapper patched
    # onto montecarlo is the one called
    runs = [
        (montecarlo.estimate_upcross_laplace, (1.0, 2.5),
         "upcross Laplace at a = 1, q = 2.5 vs exp(-a phi(q))"),
        (montecarlo.estimate_passage_below_laplace, (1.0, 2.5),
         "passage-below Laplace at x = 1, beta = 2.5"),
    ]
    if model.mean > 0.0:
        runs.append((montecarlo.estimate_survival, (1.0,),
                     "survival probability at x = 1, survivors closed at T with "
                     "psi'(0+) W(X_T)"))
    for estimator, args, context in runs:
        est = estimator(model, estimator_cfg, *args)
        slack = est.truncation_allowance or 0.0
        z = max(0.0, abs(est.mean - est.analytic_target) - slack) / max(est.stderr, 1e-300)
        out.append(_check("mc.estimator", z, context, tol))
    return out


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_validation(model, with_mc=False, paths=20000, dt=1e-3, seed=0,
                   tolerances=None):
    """Run every invariant suite on one model.

    The suites run one after another, in fixed order (model, scale,
    fluctuation, excursion, then Monte Carlo when with_mc is set), so the
    report is deterministic.  A tolerance override must name a check of
    TOLERANCES and be finite and >= 0 (BadParameterError otherwise).
    """
    tol = dict(TOLERANCES)
    if tolerances:
        unknown = sorted(set(tolerances) - set(tol))
        if unknown:
            raise BadParameterError(f"unknown check name(s) in tolerance overrides: {unknown}")
        tol.update((name, _check_arg(name, value, strict=False))
                   for name, value in tolerances.items())
    # a bad Monte Carlo setting raises before any suite has run
    configs = _mc_configs(model, paths, dt, seed) if with_mc else None
    engine = make_engine(model)

    checks = (_model_checks(model, tol) + _scale_checks(engine, tol)
              + _fluct_checks(engine, tol) + _excursion_checks(engine, tol))
    if with_mc:
        checks += _mc_checks(model, tol, *configs)
    return ValidationReport(model=model_to_dict(model), checks=tuple(checks))
