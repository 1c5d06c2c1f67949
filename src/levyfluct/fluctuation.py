"""Resolvent, hitting, and conditioning identities on scale functions.

For the process killed at an independent exponential time e_beta, the
basic objects are the resolvent density

    u_q(y) = phi'(q) exp(-phi(q) y) - W^(q)(-y),

the conditioning weight h_beta(y) = u_beta(0) - u_beta(-y) (the price of
avoiding 0 up to e_beta), the first-passage transforms below a level,
the probability of creeping across 0, and the jump kernel that moves
mass from the positive half line across 0.

Numerically the danger in all of these is cancellation: u_q and h_beta
subtract two terms that each grow like exp(phi(q)|y|).  Every formula
here is therefore routed through the scale engine's leading-term splits
(``w_minus_leading``/``z_minus_leading``), which remove the dominant
exponential algebraically and keep relative accuracy at large |y|.  The
one exception is h_beta at phi(beta)*y <= 1, where the split would in
turn cancel against phi'(beta) and W itself is the better-conditioned
term.

The g-family collects the harmonic-minorant weights used to condition
the process on sign behaviour; their beta -> 0 limits are the same
functions at beta = 0, taken in closed form, never numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quadrature import integrate_finite, integrate_semiinfinite
from .errors import BadParameterError, QuadratureFailure, _check_arg
from .model import NoJumps, _tail_decay_hint

__all__ = [
    "GFamily",
    "resolvent_density",
    "h_beta",
    "hitting_laplace",
    "passage_below_laplace",
    "creeping_probability",
    "survival_probability",
    "kernel_K",
    "conditioned_resolvent_density",
    "constant_A",
    "g_family",
]


def resolvent_density(engine, q, y):
    """Density u_q(y) of the resolvent of the process killed at rate q.

    u_q(y) = phi'(q) exp(-phi(q) y) for y >= 0; for y < 0 the scale term
    W^(q)(-y) enters and the difference is taken through the engine's
    leading-term split, so no accuracy is lost when phi(q)|y| is large.
    y may be a float or a numpy array; the result has the same form.
    """
    q = _check_arg("q", q)
    y = _check_arg("y", y, -math.inf, points=True)
    m = engine.model
    if not isinstance(y, np.ndarray):
        if y >= 0.0:
            return float(m.phi_prime(q)) * math.exp(-m.phi(q) * y)
        return -engine.w_minus_leading(q, -y)
    out = np.empty(y.shape)
    ahead = y >= 0.0
    out[ahead] = float(m.phi_prime(q)) * np.exp(-m.phi(q) * y[ahead])
    out[~ahead] = -engine.w_minus_leading(q, -y[~ahead])
    return out


def h_beta(engine, beta, y):
    """Weight h_beta(y) = u_beta(0) - u_beta(-y) of avoiding 0 up to e_beta.

    Equals W^(beta)(y) - phi'(beta)*expm1(y*phi(beta)).  For y > 0 with
    phi(beta)*y <= 1 it is evaluated in that form, where W^(beta)(y) is
    the larger term; beyond, as phi'(beta) + w_minus_leading(beta, y),
    the same identity with the exploding exponentials cancelled exactly.
    Near 0 the split form would subtract two numbers of size phi'(beta)
    to get one of size W^(beta)(y) ~ y^(alpha - 1) and lose digits.
    """
    beta = _check_arg("beta", beta)
    y = _check_arg("y", y, -math.inf)
    m = engine.model
    phi = m.phi(beta)
    phip = float(m.phi_prime(beta))
    if y <= 0.0:
        return phip * (1.0 - math.exp(y * phi))
    if phi * y <= 1.0:
        return engine.w(beta, y) - phip * math.expm1(phi * y)
    return phip + engine.w_minus_leading(beta, y)


def hitting_laplace(engine, beta, y):
    """E_y[exp(-beta T_0)] = u_beta(-y)/u_beta(0) for the first hit of 0."""
    beta = _check_arg("beta", beta)
    y = _check_arg("y", y, -math.inf)
    m = engine.model
    if y <= 0.0:
        return math.exp(m.phi(beta) * y)
    return -engine.w_minus_leading(beta, y) / float(m.phi_prime(beta))


def passage_below_laplace(engine, beta, y):
    """E_y[exp(-beta tau0minus); tau0minus < inf] for first passage below 0.

    Z^(beta)(y) - (beta/phi(beta)) W^(beta)(y); the dominant exponential
    of Z and W is identical and is removed from both factors before
    subtracting.
    """
    beta = _check_arg("beta", beta)
    y = _check_arg("y", y, points=True)
    m = engine.model
    phib = float(m.phi(beta))
    return engine.z_minus_leading(beta, y) - (beta / phib) * engine.w_minus_leading(
        beta, y
    )


def creeping_probability(engine, x):
    """P_x(tau0minus < inf, X at tau0minus = 0): crossing 0 continuously.

    (sigma2/2)(W'(x) - phi(0) W(x)); zero without a Gaussian part.  The
    raw value is returned unclamped so a violation of [0, 1] beyond the
    engine's error estimate shows up in tests instead of being hidden.
    x may be a float or a numpy array; the result has the same form.
    """
    x = _check_arg("x", x, points=True)
    m = engine.model
    if m.sigma2 == 0.0:
        return 0.0 * x
    w_prime = engine.w_prime(0.0, x)
    phi0 = m.phi(0.0)
    if phi0 == 0.0:  # drifting up or oscillating: the W term vanishes
        return 0.5 * m.sigma2 * w_prime
    return 0.5 * m.sigma2 * (w_prime - phi0 * engine.w(0.0, x))


def survival_probability(engine, x):
    """P_x(tau0minus = inf) = psi'(0+) W(x); zero unless drifting to +inf.

    x may be a float or a numpy array; the result has the same form.
    """
    x = _check_arg("x", x, points=True)
    mean = engine.model.mean
    if mean <= 0.0:
        return 0.0 * x
    return mean * engine.w(0.0, x)


def kernel_K(engine, beta, x, f):
    """Jump kernel K_beta f(x) moving mass from (0, inf) across 0.

    K_beta f(x) = int_0^inf dy (exp(-phi(beta) y) W^(beta)(x) -
    W^(beta)(x - y)) int_(-inf,-y) Pi(dz) f(y, y + z) for bounded f of
    (level before the jump, level after the jump).  The inner integral
    is one-dimensional after the substitution z = -y - s, so the whole
    kernel costs one nested quadrature, the inner one once per outer
    node.  The scale factor in front is nonnegative by the two-sided exit
    identity; it is checked pointwise and a genuine violation raises.

    f is called as f(y, w) on two 1-D numpy arrays of the same size, the
    levels before and after the jump, and returns their values or a
    constant that broadcasts against them.
    """
    beta = _check_arg("beta", beta, strict=False)
    x = _check_arg("x", x)
    m = engine.model
    if isinstance(m.jumps, NoJumps):
        return 0.0
    phib = float(m.phi(beta))
    wx = engine.w(beta, x)
    hint = _tail_decay_hint(m.jumps)

    def tail_f(y):
        return integrate_semiinfinite(
            lambda s: m.jumps.density(y + s) * f(np.full(s.shape, y), -s),
            a=0.0,
            decay=hint,
            rtol=1e-9,
            atol=1e-11,
        )

    def scale_factor(y):
        val = np.exp(-phib * y) * wx - engine.w(beta, x - y)
        low = val < -1e-9 * (1.0 + wx)
        if low.any():
            i = np.flatnonzero(low)[0]
            raise QuadratureFailure(
                f"exit-identity factor came out negative ({val[i]:.3e}) at y={y[i]}"
            )
        return np.maximum(val, 0.0)

    def outer(y):
        return scale_factor(y) * np.array([tail_f(v) for v in y])

    # head on [0, x] with y = t*t flattening the integrable jump-tail
    # singularity at 0; beyond x only the exponential term survives
    head = integrate_finite(
        lambda t: 2.0 * t * outer(t * t), 0.0, math.sqrt(x), rtol=1e-8, atol=1e-10
    )
    tail = integrate_semiinfinite(
        outer, a=x, decay=phib + hint, rtol=1e-8, atol=1e-10
    )
    return head + tail


def conditioned_resolvent_density(engine, beta, lam, x, y):
    """Resolvent density of the process conditioned to avoid 0 up to e_beta.

    (u_{beta+lam}(y-x) - u_{beta+lam}(-x) u_{beta+lam}(y)/u_{beta+lam}(0))
    * h_beta(y)/h_beta(x).
    """
    beta = _check_arg("beta", beta)
    lam = _check_arg("lam", lam)
    x = _check_arg("x", x, -math.inf)
    y = _check_arg("y", y, -math.inf)
    if x == 0.0 or y == 0.0:
        raise BadParameterError("conditioned resolvent needs x != 0 and y != 0")
    rate = beta + lam
    u0 = float(engine.model.phi_prime(rate))
    free = resolvent_density(engine, rate, y - x)
    killed = resolvent_density(engine, rate, -x) * resolvent_density(engine, rate, y) / u0
    return (free - killed) * h_beta(engine, beta, y) / h_beta(engine, beta, x)


# ---------------------------------------------------------------------------
# the g-family of conditioning weights
# ---------------------------------------------------------------------------


def constant_A(engine):
    """Limit of phi'(beta)*phi(beta) as beta -> 0, by drift regime.

    Drifts to -inf: phi(0)/psi'(phi(0)).  Oscillating: 1/psi''(0+), which
    is 0 when the variance blows up (the pure stable class).  Drifts to
    +inf: 0.
    """
    m = engine.model
    mean = m.mean
    if mean > 0.0:
        return 0.0
    if mean < 0.0:
        phi0 = m.phi(0.0)
        return float(phi0 / m.psi_prime(phi0))
    d2 = m.psi_second(0.0)
    return 0.0 if math.isinf(d2) else float(1.0 / d2)


@dataclass(frozen=True)
class GFamily:
    """Pointwise evaluators of the conditioning weights and the constant A.

    The unkilled weight g_minus is ``g_minus_beta`` at beta = 0.
    ``g_tilde_infinite`` flags the drift-to--inf case where the tilde
    weight degenerates; the evaluator then returns math.inf rather than
    a large float, so consumers must branch on the flag.
    """

    g: Callable[[float], float]
    g_plus: Callable[[float], float]
    g_tilde: Callable[[float], float]
    g_minus_beta: Callable[[float, float], float]
    constant_a: float
    g_tilde_infinite: bool


def _g_weight(phi, x):
    # (1 - exp(phi x))/phi, with the branch -x at phi = 0 (no numeric 0/0)
    if phi == 0.0:
        return -x
    return (1.0 - math.exp(phi * x)) / phi


def g_family(engine):
    """Build the weight family of one model.

    g(x) = (1 - exp(phi(0) x))/phi(0), with the explicit branch g(x) = -x
    when phi(0) = 0 (no numeric 0/0 limit), and g_plus(x) = W(x) on
    x >= 0.  g_minus_beta(beta, x) is the killed weight
    (1 - exp(x phi(beta)))/phi(beta) on x < 0, nondecreasing as beta
    decreases; beta = 0 gives its limit g_minus, the restriction of g to
    x < 0.  g_tilde follows the
    three-way split on the sign of the mean, with the infinite-variance
    oscillating case collapsing the linear term to zero.
    """
    m = engine.model
    phi0 = float(m.phi(0.0))
    a_const = constant_A(engine)
    infinite = m.mean < 0.0

    def g(x):
        return _g_weight(phi0, _check_arg("x", x, -math.inf))

    def g_plus(x):
        return engine.w(0.0, _check_arg("x", x, strict=False, points=True))

    def g_minus_beta(beta, x):
        x = _check_arg("x", x, -math.inf)
        beta = _check_arg("beta", beta, strict=False)
        if x >= 0.0:
            raise BadParameterError("g_minus_beta is defined on x < 0")
        return _g_weight(float(m.phi(beta)), x)

    def g_tilde(x):
        x = _check_arg("x", x, -math.inf)
        if infinite:
            return math.inf
        pos = engine.w(0.0, x) if x > 0.0 else 0.0
        return pos - a_const * x

    return GFamily(
        g=g,
        g_plus=g_plus,
        g_tilde=g_tilde,
        g_minus_beta=g_minus_beta,
        constant_a=a_const,
        g_tilde_infinite=infinite,
    )
