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
