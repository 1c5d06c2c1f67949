"""Shared quadrature helpers.

Thin wrappers around :func:`scipy.integrate.quad` that (a) map
semi-infinite integrals with a known exponential decay rate onto (0, 1]
so the sampler sees a bounded, well-scaled integrand, and (b) turn
scipy's reports of unreliable results into exceptions.

With ``vectorized=True`` a semi-infinite integral runs on an adaptive
21-point Gauss-Kronrod rule written in numpy instead of QUADPACK: the
integrand takes a 1-D array of abscissae and returns the array of its
values, and every new batch of subintervals costs one integrand call.
Integrands built on the scale engine's array calls use it, because one
call on a few hundred points costs little more than one call on a
single point.  The rule bisects but does not extrapolate.  The
jump-tail integrals of the excursion layer stay on QUADPACK: near their
endpoint the integrand behaves like a power of t that only QUADPACK's
epsilon algorithm (QAGS) resolves within the target, and without it
every row of a tempered stable model with alpha = 1.6 fails.  Scalar
callables and finite intervals stay there too.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .errors import QuadratureFailure

# most subintervals either route may use; this also bounds one
# vectorized integrand call to _LIMIT * 21 abscissae
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
_EPS = np.finfo(float).eps


def _quiet_quad(*args, **kwargs):
    # the error-estimate checks below already turn unreliable results into
    # exceptions; full_output makes scipy return its message instead of
    # warning, without touching the process-wide warning filters that
    # concurrent validation threads share
    return integrate.quad(*args, full_output=1, **kwargs)[:2]


def _gk21(f, lo, hi):
    # Kronrod estimates and QUADPACK's qk21 error estimates on the
    # intervals [lo, hi], in one integrand call
    half = 0.5 * (hi - lo)
    centre = lo + half
    xs = centre[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    kronrod = np.sum(fx * _KRONROD, axis=1)
    mean = 0.5 * kronrod
    resabs = np.sum(np.abs(fx) * _KRONROD, axis=1) * np.abs(half)
    resasc = np.sum(np.abs(fx - mean[:, None]) * _KRONROD, axis=1) * np.abs(half)
    err = np.abs((kronrod - np.sum(fx * _GAUSS, axis=1)) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return kronrod * half, np.maximum(50.0 * _EPS * resabs, err)


def _adaptive(f, a, b, rtol, atol):
    # globally adaptive bisection: each round bisects the fewest intervals
    # of largest error that leave the rest within half the tolerance, all
    # in one batch, until the total error estimate meets the tolerance or
    # the _LIMIT intervals are spent
    lo, hi = np.array([float(a)]), np.array([float(b)])
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
    """Integrate f over [a, b] with QUADPACK, raising on an unreliable result."""
    val, err = _quiet_quad(f, a, b, points=points, epsrel=rtol, epsabs=atol, limit=_LIMIT)
    return _checked(val, err, f"[{a}, {b}]", rtol, atol)


def integrate_semiinfinite(f, a=0.0, *, decay=1.0, rtol=1e-10, atol=1e-13,
                           vectorized=False):
    """Integrate f over [a, infinity) when f decays roughly like exp(-decay*x).

    Substitutes x = a - log(u)/decay, which maps the tail onto u in (0, 1]
    and gives an integrand bounded at both ends whenever the stated decay
    rate is not an overestimate.  Without a decay hint (decay <= 0) the
    map is QUADPACK's x = a + (1 - t)/t.  With ``vectorized`` f maps an
    array of abscissae to an array of values, and the array Gauss-Kronrod
    rule replaces QUADPACK.
    """
    if vectorized:
        if decay > 0.0:
            def g(u):
                return f(a - np.log(u) / decay) / (decay * u)
        else:
            def g(t):
                return f(a + (1.0 - t) / t) / (t * t)

        val, err = _adaptive(g, 0.0, 1.0, rtol, atol)
    elif decay > 0.0:
        def g(u):
            x = a - math.log(u) / decay
            return f(x) / (decay * u)

        val, err = _quiet_quad(g, 0.0, 1.0, epsrel=rtol, epsabs=atol, limit=_LIMIT)
    else:
        # no usable decay hint; scipy's own infinite handling
        val, err = _quiet_quad(f, a, math.inf, epsrel=rtol, epsabs=atol, limit=_LIMIT)
    return _checked(val, err, f"[{a}, inf)", rtol, atol)
