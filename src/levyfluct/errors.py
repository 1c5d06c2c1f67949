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
import numbers

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


def _check_arg(name, value, bound=0.0, strict=True, points=False, error=BadParameterError):
    """A level, rate, point or setting: finite and > bound (>= when not strict).

    value is a real number, and comes back as a float; anything else (a
    bool, a list, None, a string, a complex number) raises error naming
    it.  Where the call site takes points (points=True) it may also be a
    real numpy array, checked at every point and returned as a float
    array; elsewhere an array of ndim >= 1 is rejected and a 0-d array
    counts as a number.  bound = -inf asks only for finiteness.
    """
    # a float skips the type tests, which cost as much as the check itself
    if type(value) is not float:
        if isinstance(value, np.ndarray):
            if value.ndim and not points:
                raise error(f"{name} must be one number, got an array of shape {value.shape}")
            if value.dtype.kind not in "iuf":
                raise error(f"{name} must be a real number, got an array of {value.dtype}")
            if points:
                value = np.asarray(value, dtype=float)
                ok = np.isfinite(value) & ((value > bound) if strict else (value >= bound))
                if not ok.all():
                    raise _bad_arg(name, value[~ok][0], bound, strict, error)
                return value
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if math.isfinite(value) and (value > bound if strict else value >= bound):
        return value
    raise _bad_arg(name, value, bound, strict, error)


def _bad_arg(name, value, bound, strict, error):
    limit = "" if bound == -math.inf else f" and {'>' if strict else '>='} {bound:g}"
    return error(f"{name} must be finite{limit}, got {value}")


def _check_int(name, value, low=0, bits=None, error=BadParameterError):
    """An integer >= low, and below 2**bits when bits is given, as an int.

    A Python or numpy integer; a bool, a float and anything else raise
    error naming it.
    """
    if not isinstance(value, bool) and isinstance(value, (int, np.integer)):
        value = int(value)
        if value >= low and (bits is None or value < 1 << bits):
            return value
    span = f">= {low}" if bits is None else f"in [{low}, 2**{bits})"
    raise error(f"{name} must be an integer {span}, got {value!r}")
