"""Shared quadrature helpers.

One rule serves every integral of the package: an adaptive 21-point
Gauss-Kronrod rule written in numpy (QUADPACK's qk21).  The integrand
takes a 1-D array of abscissae and returns the array of its values.  A
round of the rule costs one integrand call on all its new subintervals
and a fixed handful of numpy calls: the bisection bookkeeping and the
error scaling of the round's few intervals run on Python floats.  So
integrands built on the scale engine's array calls or on the jump
families' array tails pay little more for a few hundred points than for
one.  A result whose error estimate misses its target atol + rtol*|val|,
or is not finite, raises QuadratureFailure instead of returning.

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
10, and the power tail of an untempered stable resolvent takes it
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
_EPS = float(np.finfo(float).eps)


def _gk21(f, lo, hi):
    # Kronrod estimates and QUADPACK's qk21 error estimates on the
    # intervals [lo, hi], as two lists, in one integrand call.  A round
    # has a few intervals, so the error scaling runs on Python floats; a
    # non-finite estimate stays non-finite
    half = 0.5 * (hi - lo)
    xs = (lo + half)[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    # an integrand near the float limit overflows these products; the
    # non-finite estimate raises in _checked, with no warning before it
    with np.errstate(over="ignore", invalid="ignore"):
        sums = fx @ _WEIGHTS
        resasc = np.abs(fx - 0.5 * sums[:, :1]) @ _KRONROD
        resabs = np.abs(fx) @ _KRONROD
    vals, errs = [], []
    for h, (kronrod, gauss), asc, absum in zip(half.tolist(), sums.tolist(),
                                               resasc.tolist(), resabs.tolist()):
        width = abs(h)
        asc *= width
        err = abs((kronrod - gauss) * h)
        if asc != 0.0 and 0.0 < err < math.inf:
            err = asc * min(200.0 * err / asc, 1.0) ** 1.5
        vals.append(kronrod * h)
        errs.append(max(err, 50.0 * _EPS * (absum * width)))
    return vals, errs


def _adaptive(f, a, b, rtol, atol, points=()):
    # globally adaptive bisection: each round bisects the fewest intervals
    # of largest error that leave the rest within half the tolerance, all
    # in one batch, until the total error estimate meets the tolerance or
    # the _LIMIT intervals are spent.  Break points start as interval ends.
    # The intervals sit in lists: the kept ones in order, then the left
    # and the right halves of the round's picks
    lo = [float(a), *sorted(points)]
    hi = [*lo[1:], float(b)]
    vals, errs = _gk21(f, np.array(lo), np.array(hi))
    while True:
        total, err = np.add.reduce([vals, errs], axis=1).tolist()
        tol = max(atol, rtol * abs(total))
        room = _LIMIT - len(lo)
        if err <= tol or room <= 0 or not math.isfinite(err):
            return total, err
        done, pick, mid = 0.0, [], []
        for i in np.array(errs).argsort()[::-1][:room].tolist():
            m = 0.5 * (lo[i] + hi[i])
            if lo[i] < m < hi[i]:
                pick.append(i)
                mid.append(m)
            done += errs[i]
            if err - done <= 0.5 * tol:
                break
        if not pick:
            # the worst intervals are down to a few floats
            return total, err
        new_lo, new_hi = [lo[i] for i in pick] + mid, mid + [hi[i] for i in pick]
        new_vals, new_errs = _gk21(f, np.array(new_lo), np.array(new_hi))
        drop = set(pick)
        keep = [i for i in range(len(lo)) if i not in drop]
        lo = [lo[i] for i in keep] + new_lo
        hi = [hi[i] for i in keep] + new_hi
        vals = [vals[i] for i in keep] + new_vals
        errs = [errs[i] for i in keep] + new_errs


def _checked(val, err, where, rtol, atol):
    if not math.isfinite(val):
        raise QuadratureFailure(f"integral over {where} returned {val}")
    if not err <= atol + rtol * abs(val):
        raise QuadratureFailure(
            f"integral over {where}: error estimate {err:.2e} misses its target"
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
    # without a decay rate x = a + (1 - r)/r with r = t**grade; callers
    # ignore the division by zero at t = 0
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
        # both maps over |z|, each node keeping the one of its side; the
        # other side's map may overflow or divide by zero there
        t = np.abs(z)
        with np.errstate(all="ignore"):
            u = split * t**grade
            x, jac = _tail_map(t, split, decay, tail_grade)
            head = z > 0.0
            x = np.where(head, u, x)
            jac = np.where(head, grade * u / t, jac)
        live = (x > 0.0) & np.isfinite(jac)
        if live.all():
            return f(x) * jac
        out = np.zeros_like(z)
        out[live] = f(x[live]) * jac[live]
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
        with np.errstate(divide="ignore"):
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
    # to s and the next term, u**(2-alpha), to s**(1 + grade).  Above 10
    # (from alpha = 1.8 on) that grade costs rule rounds instead of saving
    # them, on tempered tails 24 to 31 where half of it takes 16 to 24, so
    # the head keeps 1/(2 - alpha) there, which bounds the endpoint.  The
    # tail grade bounds the pitail(u) ~ u**(-alpha) of a
    # bare power tail (stable, tail_decay = 0); the compound Poisson tail
    # is bounded at 0 and decays exponentially as it stands.  The tail
    # takes no exponential map even where a decay rate exists: at a rate
    # as small as phi(0) = 3.5e-11 (stable, gamma = -0.3, alpha = 1.05)
    # that map squeezes the power-law part into the last 1e-11 of the
    # rule's interval, and the integral came out 5e-9 off
    if jumps.infinite_variation:
        grade, tail_grade = 2.0 / (2.0 - jumps.alpha), 1.0 / (jumps.alpha - 1.0)
        if grade > 10.0:
            grade *= 0.5
    else:
        grade = tail_grade = 1.0
    return integrate_graded(integrand, 5.0 / max(tail_decay, 1.0), grade,
                            tail_grade=tail_grade, rtol=rtol, atol=atol)
