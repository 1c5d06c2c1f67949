"""Correctness checks on the outputs the benchmark measures.

Values are compared with figures computed here from the model
parameters alone (the Laplace exponent, the Brownian hyperbolic scale
functions, the pure stable power law) or with properties every correct
output has (monotone W, probabilities in [0, 1], a closed intensity
partition).  Each function returns a list of problems; empty means the
outputs pass.  Nothing here imports the package under test.
"""

from __future__ import annotations

import math

# |estimate - target| may exceed Z_BOUND standard errors (plus the
# estimate's truncation allowance) with Gaussian probability 6.8e-6 per
# estimate; an mc run repeats 15 distinct estimates, so a correct
# estimator fails its check on about 1e-4 of the seeds
Z_BOUND = 4.5
# relative agreement required of a closed form recomputed here
CLOSED_RTOL = 1e-9
# relative slack of the monotonicity of W on the contour route
MONOTONE_RTOL = 1e-8
# slack of the probability bounds, absolute
PROB_SLACK = 1e-12
PARTITION_RTOL = 1e-6


def _close(a, b, rtol=CLOSED_RTOL, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def psi(params, lam):
    """Laplace exponent at lam > 0, rebuilt from the model parameters."""
    g, s2, j = params["gamma"], params["sigma2"], params["jumps"]
    out = g * lam + 0.5 * s2 * lam * lam
    family = j["family"]
    if family == "cp_exp":
        out -= j["rate"] * lam / (j["jump_rate"] + lam)
    elif family == "stable":
        out += j["scale"] * lam ** j["alpha"]
    elif family == "tempered_stable":
        a, th = j["alpha"], j["tempering"]
        out += j["scale"] * ((lam + th) ** a - th ** a - a * th ** (a - 1.0) * lam)
    return out


def psi_prime(params, lam):
    g, s2, j = params["gamma"], params["sigma2"], params["jumps"]
    out = g + s2 * lam
    family = j["family"]
    if family == "cp_exp":
        out -= j["rate"] * j["jump_rate"] / (j["jump_rate"] + lam) ** 2
    elif family == "stable":
        out += j["scale"] * j["alpha"] * lam ** (j["alpha"] - 1.0)
    elif family == "tempered_stable":
        a, th = j["alpha"], j["tempering"]
        out += j["scale"] * a * ((lam + th) ** (a - 1.0) - th ** (a - 1.0))
    return out


def bm_scale(gamma, sigma2, q, x):
    """(W, Z, W') of Brownian motion with drift, hyperbolic closed form."""
    delta = math.sqrt(gamma * gamma + 2.0 * q * sigma2)
    damp = math.exp(-gamma * x / sigma2)
    u = delta * x / sigma2
    if delta == 0.0:
        return 2.0 * x / sigma2, 1.0, 2.0 / sigma2
    sh, ch = math.sinh(u), math.cosh(u)
    w = 2.0 / delta * damp * sh
    z = damp * (ch + gamma / delta * sh)
    wp = 2.0 / sigma2 * damp * (ch - gamma / delta * sh)
    return w, z, wp


def bm_phi(gamma, sigma2, q):
    return (-gamma + math.sqrt(gamma * gamma + 2.0 * q * sigma2)) / sigma2


def _is_pure_stable(params):
    return (params["jumps"]["family"] == "stable"
            and params["gamma"] == 0.0 and params["sigma2"] == 0.0)


def _finite(row, where):
    if all(math.isfinite(v) for v in row):
        return []
    return [f"{where}: value not finite {row}"]


def phi_inverse(params, q, phi):
    """psi(phi(q)) = q with psi rebuilt here."""
    if _close(psi(params, phi), q, atol=1e-10 * (1.0 + q)):
        return []
    return [f"psi(phi({q})) = {psi(params, phi)!r}, not {q}"]


def scale_rows(params, rows, phis):
    """rows: (q, x, W, Z, W'); phis: q -> phi(q) from the program."""
    problems = []
    for q, phi in phis.items():
        problems += phi_inverse(params, q, phi)
    by_q = {}
    for q, x, w, z, wp in rows:
        where = f"q={q:.6g} x={x:.6g}"
        problems += _finite((w, z, wp), where)
        by_q.setdefault(q, []).append((x, w))
        if wp < 0.0:
            problems.append(f"{where}: W' = {wp!r} < 0")
        if z < 1.0 - PROB_SLACK:
            problems.append(f"{where}: Z = {z!r} < 1")
        if params["jumps"]["family"] == "none":
            ref = bm_scale(params["gamma"], params["sigma2"], q, x)
            for name, got, want in zip(("W", "Z", "W'"), (w, z, wp), ref):
                if not _close(got, want):
                    problems.append(f"{where}: {name} = {got!r}, closed form {want!r}")
        if _is_pure_stable(params) and q == 0.0:
            a, c = params["jumps"]["alpha"], params["jumps"]["scale"]
            want = x ** (a - 1.0) / (c * math.gamma(a))
            if not _close(w, want):
                problems.append(f"{where}: W = {w!r}, power law {want!r}")
    for q, pts in by_q.items():
        pts.sort()
        for (x0, w0), (x1, w1) in zip(pts, pts[1:]):
            if w1 < w0 - MONOTONE_RTOL * abs(w0):
                problems.append(f"q={q:.6g}: W drops from {w0!r} at x={x0:.6g} "
                                f"to {w1!r} at x={x1:.6g}")
    return problems


def fluct_rows(rows):
    """rows: (beta, x, resolvent, h, hitting, passage, creeping, survival)."""
    problems = []
    for beta, x, _res, _h, hit, pas, creep, surv in rows:
        where = f"beta={beta:.6g} x={x:.6g}"
        problems += _finite((_res, _h, hit, pas, creep, surv), where)
        if not (-PROB_SLACK <= hit <= pas * (1.0 + CLOSED_RTOL) + PROB_SLACK
                and pas <= 1.0 + PROB_SLACK):
            problems.append(f"{where}: not 0 <= hitting {hit!r} <= passage {pas!r} <= 1")
        for name, p in (("creeping", creep), ("survival", surv)):
            if not -PROB_SLACK <= p <= 1.0 + PROB_SLACK:
                problems.append(f"{where}: {name} probability {p!r} outside [0, 1]")
    return problems


def intensity_rows(params, rows):
    """rows: (beta, total, residual, phi(beta) from the program)."""
    problems = []
    for beta, total, residual, phi in rows:
        where = f"beta={beta:.6g}"
        problems += _finite((total, residual), where)
        problems += [f"{where}: {p}" for p in phi_inverse(params, beta, phi)]
        if not abs(residual) <= PARTITION_RTOL * total:
            problems.append(f"{where}: partition residual {residual!r} of total {total!r}")
        want = psi_prime(params, phi)
        if not _close(total, want):
            problems.append(f"{where}: total {total!r}, psi'(phi(beta)) = {want!r}")
    return problems


def expected_check_count(params):
    """Checks in a validate report without Monte Carlo, by model shape.

    Model suite 5, plus pi_tail_origin for compound Poisson; scale suite
    5, plus the oracle comparison when a closed form exists; fluctuation
    suite 6, plus passage_equals_hitting for Brownian motion; excursion
    suite 5, plus sign_structure without a Gaussian part.
    """
    family = params["jumps"]["family"]
    closed = family in ("none", "cp_exp") or _is_pure_stable(params)
    return (5 + (family == "cp_exp") + 5 + closed + 6 + (family == "none")
            + 5 + (params["sigma2"] == 0.0))


def validation_report(report, expected):
    problems = []
    failed = [c.name for c in report.checks if not c.passed]
    if failed:
        problems.append(f"failed checks {failed}")
    if len(report.checks) != expected:
        problems.append(f"{len(report.checks)} checks, expected {expected}")
    return problems


def bm_target(name, gamma, sigma2, level, rate):
    """Closed-form target of a Brownian estimator."""
    if name == "passage":
        delta = math.sqrt(gamma * gamma + 2.0 * rate * sigma2)
        return math.exp(-level * (gamma + delta) / sigma2)
    if name == "upcross":
        return math.exp(-level * bm_phi(gamma, sigma2, rate))
    # Brownian paths cross 0 only by creeping; they never do with
    # probability 1 - exp(-2 gamma x / sigma2) when gamma > 0
    hit = math.exp(-2.0 * max(gamma, 0.0) * level / sigma2)
    return 1.0 - hit if name == "survival" else hit


def estimate(name, params, est, paths, level, rate):
    """One Monte Carlo estimate against its target within the z-bound."""
    problems = []
    if est.n != paths:
        problems.append(f"{est.n} paths, expected {paths}")
    if not (math.isfinite(est.mean) and math.isfinite(est.stderr) and est.stderr > 0.0):
        return problems + [f"mean {est.mean!r} with stderr {est.stderr!r}"]
    target = est.analytic_target
    if name == "martingale":
        target = 1.0
    elif params["jumps"]["family"] == "none":
        target = bm_target(name, params["gamma"], params["sigma2"], level, rate)
        if not _close(est.analytic_target, target):
            problems.append(f"program target {est.analytic_target!r}, closed form {target!r}")
    if name == "upcross":
        # exp(-a phi(q)) recovers phi(q), which psi must send back to q
        problems += phi_inverse(params, rate, -math.log(est.analytic_target) / level)
    allowance = est.truncation_allowance or 0.0
    if not abs(est.mean - target) <= Z_BOUND * est.stderr + allowance:
        problems.append(f"estimate {est.mean!r} +- {est.stderr!r} vs target {target!r} "
                        f"(allowance {allowance!r}, z-bound {Z_BOUND})")
    return problems


def bitwise_equal(a, b):
    fields = ("mean", "stderr", "n", "analytic_target", "crossings", "truncation_allowance")
    return all(repr(getattr(a, f)) == repr(getattr(b, f)) for f in fields)
