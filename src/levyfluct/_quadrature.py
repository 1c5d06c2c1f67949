"""Shared quadrature helpers.

One rule serves every integral of the package: an adaptive 21-point
Gauss-Kronrod rule written in numpy.  The integrand takes a 1-D array of
abscissae and returns the array of its values, and every new batch of
subintervals costs one integrand call, so integrands built on the scale
engine's array calls or on the jump families' array tails pay little
more for a few hundred points than for one.  A result whose error
estimate misses its target raises instead of returning.

``integrate_semiinfinite`` maps a tail with a known exponential decay
rate onto (0, 1], so the rule sees a bounded, well-scaled integrand.
The rule bisects but does not extrapolate, so a power-law endpoint is
first made smooth by the graded map of :func:`integrate_graded`; the
jump-tail integrals behind the excursion, overshoot and ladder
references and the integrals over W take that route, through
:func:`_jump_quadrature` for the jump tails.  A grade that only bounds
an endpoint (f ~ u**(1/grade - 1) mapped to a constant) still leaves
the next term a fractional power of the mapped variable, which each
bisection cuts only a few-fold; twice that grade maps the leading term
to a linear one, and the rule then meets its target in a few rounds.
The head of a jump tail takes the doubled grade where it stays at most
20, and the power tail of an untempered stable resolvent takes it
through ``scale._integrate_on_w``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

# most subintervals the rule may use; this also bounds one integrand
# call to _LIMIT * 21 abscissae
_LIMIT = 200

# 21-point Gauss-Kronrod rule of QUADPACK's qk21: the abscissae in
# (0, 1], their Kronrod weights, the Kronrod weight of the centre, and
# the 10-point Gauss weights of the odd-numbered abscissae
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525478221, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_WGK0 = 0.149445554002916905664936468389821
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK, [_WGK0], _WGK[::-1]])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]
# the Kronrod and Gauss weights as the columns of one matrix, so that
# both sums of every interval come from one product
_WEIGHTS = np.stack([_KRONROD, _GAUSS], axis=1)
_EPS = np.finfo(float).eps


def _gk21(f, lo, hi):
    # Kronrod estimates and QUADPACK's qk21 error estimates on the
    # intervals [lo, hi], in one integrand call
    half = 0.5 * (hi - lo)
    centre = lo + half
    xs = centre[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    kronrod, gauss = (fx @ _WEIGHTS).T
    dev = fx - 0.5 * kronrod[:, None]
    abs_half = np.abs(half)
    resasc = (np.abs(dev, out=dev) @ _KRONROD) * abs_half
    resabs = (np.abs(fx) @ _KRONROD) * abs_half
    err = np.abs((kronrod - gauss) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return kronrod * half, np.maximum(50.0 * _EPS * resabs, err)


def _adaptive(f, a, b, rtol, atol, points=()):
    # globally adaptive bisection: each round bisects the fewest intervals
    # of largest error that leave the rest within half the tolerance, all
    # in one batch, until the total error estimate meets the tolerance or
    # the _LIMIT intervals are spent.  Break points start as interval ends
    edges = np.array([float(a), *sorted(points), float(b)])
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk21(f, lo, hi)
    while True:
        total, err = float(np.sum(vals)), float(np.sum(errs))
        tol = max(atol, rtol * abs(total))
        room = _LIMIT - lo.size
        if err <= tol or room <= 0 or not math.isfinite(err):
            return total, err
        order = np.argsort(errs)[::-1]
        left = err - np.cumsum(errs[order])
        count = min(int(np.searchsorted(-left, -0.5 * tol)) + 1, room)
        pick = order[:count]
        mid = 0.5 * (lo[pick] + hi[pick])
        splits = (lo[pick] < mid) & (mid < hi[pick])
        if not splits.any():
            # the worst intervals are down to a few floats
            return total, err
        pick, mid = pick[splits], mid[splits]
        new_lo = np.concatenate([lo[pick], mid])
        new_hi = np.concatenate([mid, hi[pick]])
        new_vals, new_errs = _gk21(f, new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def _checked(val, err, where, rtol, atol):
    if not math.isfinite(val):
        raise QuadratureFailure(f"integral over {where} returned {val}")
    if err > atol + rtol * abs(val) + 1e-8 * abs(val):
        raise QuadratureFailure(
            f"integral over {where}: error estimate {err:.2e} above target"
        )
    return val


def integrate_finite(f, a, b, *, points=None, rtol=1e-10, atol=1e-13):
    """Integrate the array function f over [a, b], raising on an unreliable result.

    ``points`` are break points: each starts as an interval end.
    """
    val, err = _adaptive(f, a, b, rtol, atol, points or ())
    return _checked(val, err, f"[{a}, {b}]", rtol, atol)


def _tail_map(t, a, decay, grade=1.0):
    # x in [a, inf) and dx/dt for t in (0, 1]: x = a - log(t)/decay, or
    # without a decay rate x = a + (1 - r)/r with r = t**grade
    with np.errstate(divide="ignore"):
        if decay > 0.0:
            return a - np.log(t) / decay, 1.0 / (decay * t)
        r = t**grade
        return a + (1.0 - r) / r, grade / (t * r)


def integrate_graded(f, split, grade, *, decay=0.0, tail_grade=1.0, rtol=1e-10,
                     atol=1e-13):
    """Integrate the array function f over (0, inf) on the array rule.

    The head (0, split] takes u = split * s**grade, s in (0, 1], which
    bounds an endpoint f(u) ~ u**(1/grade - 1).  The tail takes the map
    of :func:`integrate_semiinfinite` when f decays like exp(-decay*x);
    with decay = 0 it takes x = split + (1 - r)/r with r = t**tail_grade,
    which bounds a power tail f(x) ~ x**(-1 - 1/tail_grade).

    Both pieces run in one adaptive pass with one error target, on
    [-1, 1] with the tail at t = -z and the head at s = z, so that both
    singular ends sit at z = 0 where floats are densest.  A node where a
    map leaves the floats (u or r underflows to 0) gets the value 0
    instead of an inf * 0; the mapped integrand is bounded, and for
    grades up to 20 such nodes lie within 1e-15 of z = 0.
    """
    def g(z):
        s = z[z > 0.0]
        t = -z[z <= 0.0]
        u = split * s**grade
        x, tail_jac = _tail_map(t, split, decay, tail_grade)
        nodes = np.concatenate([x, u])
        jac = np.concatenate([tail_jac, grade * u / s])
        live = (nodes > 0.0) & np.isfinite(jac)
        vals = np.zeros_like(nodes)
        vals[live] = f(nodes[live]) * jac[live]
        out = np.empty_like(z)
        out[z <= 0.0], out[z > 0.0] = vals[: t.size], vals[t.size:]
        return out

    return integrate_finite(g, -1.0, 1.0, points=(0.0,), rtol=rtol, atol=atol)


def integrate_semiinfinite(f, a=0.0, *, decay=1.0, rtol=1e-10, atol=1e-13):
    """Integrate the array function f over [a, inf) when it decays like exp(-decay*x).

    Substitutes x = a - log(t)/decay, which maps the tail onto t in (0, 1]
    and gives an integrand bounded at both ends whenever the stated decay
    rate is not an overestimate.  Without a decay hint (decay <= 0) the
    map is x = a + (1 - t)/t.
    """
    def g(t):
        x, jac = _tail_map(t, a, decay)
        return f(x) * jac

    val, err = _adaptive(g, 0.0, 1.0, rtol, atol)
    return _checked(val, err, f"[{a}, inf)", rtol, atol)


def _jump_quadrature(jumps, integrand, tail_decay, rtol=1e-10, atol=1e-10):
    # integral over (0, inf) of an array integrand that behaves like
    # u * pitail(u) at 0 and like exp(-tail_decay*u) * pitail(u) at
    # infinity, on the array rule: the independent reference for the
    # closed forms of the excursion layer.  For the stable families the
    # head takes grade 2/(2 - alpha), which maps the u**(1-alpha) endpoint
    # to s and the next term, u**(2-alpha), to s**(1 + grade); above
    # alpha = 1.9 that grade would pass the 20 of integrate_graded's
    # underflow note, and the head keeps 1/(2 - alpha), which bounds the
    # endpoint.  The tail grade bounds the pitail(u) ~ u**(-alpha) of a
    # bare power tail (stable, tail_decay = 0); the compound Poisson tail
    # is bounded at 0 and decays exponentially as it stands.  The tail
    # takes no exponential map even where a decay rate exists: at a rate
    # as small as phi(0) = 3.5e-11 (stable, gamma = -0.3, alpha = 1.05)
    # that map squeezes the power-law part into the last 1e-11 of the
    # rule's interval, and the integral came out 5e-9 off
    if jumps.infinite_variation:
        grade, tail_grade = 2.0 / (2.0 - jumps.alpha), 1.0 / (jumps.alpha - 1.0)
        if grade > 20.0:
            grade *= 0.5
    else:
        grade = tail_grade = 1.0
    return integrate_graded(integrand, 5.0 / max(tail_decay, 1.0), grade,
                            tail_grade=tail_grade, rtol=rtol, atol=atol)
