"""Shared quadrature helpers.

Thin wrappers around :func:`scipy.integrate.quad` that (a) map
semi-infinite integrals with a known exponential decay rate onto (0, 1]
so the sampler sees a bounded, well-scaled integrand, and (b) turn
scipy's reports of unreliable results into exceptions.
"""

from __future__ import annotations

import math

from scipy import integrate

from .errors import QuadratureFailure


def _quiet_quad(*args, **kwargs):
    # the error-estimate checks below already turn unreliable results into
    # exceptions; full_output makes scipy return its message instead of
    # warning, without touching the process-wide warning filters that
    # concurrent validation threads share
    return integrate.quad(*args, full_output=1, **kwargs)[:2]


def integrate_finite(f, a, b, *, points=None, rtol=1e-10, atol=1e-13):
    """Integrate f over [a, b], raising on an unreliable result."""
    val, err = _quiet_quad(f, a, b, points=points, epsrel=rtol, epsabs=atol, limit=200)
    if not math.isfinite(val):
        raise QuadratureFailure(f"integral over [{a}, {b}] returned {val}")
    if err > atol + rtol * abs(val) + 1e-8 * abs(val):
        raise QuadratureFailure(
            f"integral over [{a}, {b}]: error estimate {err:.2e} above target"
        )
    return val


def integrate_semiinfinite(f, a=0.0, *, decay=1.0, rtol=1e-10, atol=1e-13):
    """Integrate f over [a, infinity) when f decays roughly like exp(-decay*x).

    Substitutes x = a - log(u)/decay, which maps the tail onto u in (0, 1]
    and gives an integrand bounded at both ends whenever the stated decay
    rate is not an overestimate.
    """
    if decay <= 0.0:
        # no usable decay hint; fall back to scipy's own infinite handling
        val, err = _quiet_quad(f, a, math.inf, epsrel=rtol, epsabs=atol, limit=200)
    else:
        def g(u):
            x = a - math.log(u) / decay
            return f(x) / (decay * u)

        val, err = _quiet_quad(g, 0.0, 1.0, epsrel=rtol, epsabs=atol, limit=200)
    if not math.isfinite(val):
        raise QuadratureFailure(f"integral over [{a}, inf) returned {val}")
    if err > atol + rtol * abs(val) + 1e-8 * abs(val):
        raise QuadratureFailure(
            f"integral over [{a}, inf): error estimate {err:.2e} above target"
        )
    return val
