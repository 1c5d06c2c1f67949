"""Exception taxonomy for the levyfluct package.

Every error raised on purpose by this package derives from
:class:`LevyFluctError`, so callers can catch one base class at the
boundary.  Input problems (bad parameters, malformed model files,
configuration outside the supported envelope) are distinguished from
numerical failures (a contour inversion that did not converge, a
quadrature that returned garbage) because the former are the caller's
fault and the latter are ours.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LevyFluctError",
    "BadParameterError",
    "BoundedVariationError",
    "ModelFormatError",
    "BadConfigError",
    "WrongRegimeError",
    "ConvergenceFailure",
    "InversionFailure",
    "QuadratureFailure",
    "SeriesDivergence",
    "DegenerateDenominator",
    "InsufficientCrossings",
]


class LevyFluctError(Exception):
    """Base class for all package errors."""


class BadParameterError(LevyFluctError, ValueError):
    """A model or call parameter is outside its admissible range."""


class BoundedVariationError(BadParameterError):
    """The model has paths of bounded variation.

    The identities implemented here require sigma^2 > 0 or an infinite
    jump-variation measure; anything else is rejected at construction.
    """


class ModelFormatError(LevyFluctError, ValueError):
    """A model description (JSON) does not conform to the schema."""


class BadConfigError(LevyFluctError, ValueError):
    """An engine or simulation configuration is invalid."""


class WrongRegimeError(LevyFluctError):
    """The requested quantity is undefined in the model's drift regime."""


class ConvergenceFailure(LevyFluctError, ArithmeticError):
    """An iterative solver failed to reach its tolerance."""


class InversionFailure(ConvergenceFailure):
    """A numerical Laplace inversion did not meet its error target."""


class QuadratureFailure(ConvergenceFailure):
    """A numerical integral did not meet its error target."""


class SeriesDivergence(ConvergenceFailure):
    """A series evaluation was requested outside its domain of validity.

    The package no longer raises it: the scale oracle it guarded holds on
    every domain.  It stays a public name for callers that catch it.
    """


class DegenerateDenominator(LevyFluctError, ZeroDivisionError):
    """A normalising denominator vanished (or nearly so)."""


class InsufficientCrossings(LevyFluctError, RuntimeError):
    """Too few Monte Carlo paths realised the conditioning event."""


def _check_arg(name, value, bound=0.0, strict=True):
    """A public level, rate or point: finite and > bound (>= when not strict).

    value is a float, or a numpy array of points checked at every point;
    it comes back as a float or a float array.  bound = -inf asks only
    for finiteness.
    """
    # a float skips the array test, which costs as much as the check itself
    if type(value) is not float:
        if isinstance(value, np.ndarray):
            value = np.asarray(value, dtype=float)
            ok = np.isfinite(value) & ((value > bound) if strict else (value >= bound))
            if not ok.all():
                raise _bad_arg(name, value[~ok][0], bound, strict)
            return value
        value = float(value)
    if math.isfinite(value) and (value > bound if strict else value >= bound):
        return value
    raise _bad_arg(name, value, bound, strict)


def _bad_arg(name, value, bound, strict):
    limit = "" if bound == -math.inf else f" and {'>' if strict else '>='} {bound:g}"
    return BadParameterError(f"{name} must be finite{limit}, got {value}")
