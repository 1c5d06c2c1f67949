"""Model layer: spectrally negative Levy processes and their Laplace exponents.

A process X is described by a Gaussian part, a linear drift and a jump
measure supported on the negative half-line.  We parametrise the Laplace
exponent as

    psi(lam) = gamma*lam + (sigma2/2)*lam**2 + integral over x < 0 of
               (exp(lam*x) - 1 - lam*x*[compensated]) Pi(dx),

with the convention that finite-activity families enter uncompensated
(their jump part is exp(lam*x) - 1) while infinite-activity families are
compensated on all of (-infinity, 0).  With full compensation the linear
term of the exponent is exactly ``gamma``, so psi'(0+) = gamma for the
stable and tempered stable families and gamma - rate/jump_rate for the
compound Poisson one.

Only processes of unbounded variation are accepted: sigma2 > 0 or a jump
measure with infinite variation near the origin (the stable-like families
with alpha in (1, 2)).  Everything downstream (two-sided exit, excursion
intensities, creeping) relies on W(0) = 0, which is a property of this
class and fails outside it, so bounded-variation inputs are rejected at
construction rather than allowed to produce silent nonsense.

Conventions used throughout the package:

* ``pi_tail(x)`` is the mass of jumps below ``-x``, a nonincreasing
  function of x > 0.
* Each jump family has two exact transforms of that tail, in closed form:
  ``tail_transform(r)`` = integral (1 - exp(-r*y)) pi_tail(y) dy, which
  is the jump part of psi(r)/r up to a constant, and its r-derivative
  ``tail_moment(r)`` = integral exp(-r*u) * u * pi_tail(u) du.
* ``phi(q)`` is the largest root of psi(lam) = q; phi(0) > 0 exactly
  when the process drifts to -infinity.
* The bivariate descending ladder exponent is normalised so that
  kappa_hat(lam) = psi(lam)/(lam - phi(0)).
* ``psi``, ``psi_prime`` and ``psi_second`` take a float in float arithmetic
  to a float, and an array, real or complex, through numpy to an array; they
  differ by at most an ulp of pow in a term.  A real lam below the domain (0
  stable, -theta tempered) gives NaN; psi_second is +inf at the domain's end.
  At the compound Poisson pole -jump_rate a float makes psi and psi_prime
  raise ZeroDivisionError, where an array gives +inf and -inf.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._quadrature import _jump_quadrature
from ._special import _incomplete_gamma
from .errors import (
    BadParameterError,
    BoundedVariationError,
    ConvergenceFailure,
    ModelFormatError,
    _check_arg,
)

__all__ = [
    "NoJumps",
    "ExpJumps",
    "StableJumps",
    "TemperedStableJumps",
    "LevyModel",
    "parse_model",
    "model_from_dict",
    "model_to_dict",
]


def _require(cond, message):
    if not cond:
        raise BadParameterError(message)


def _check_field(obj, name, bound=0.0, strict=True, prefix="jumps."):
    # a real field of a frozen dataclass, checked once and kept as a float
    value = _check_arg(prefix + name, getattr(obj, name), bound, strict)
    object.__setattr__(obj, name, value)
    return value


def _maybe_scalar(out, like):
    # array in -> array out; python scalar in -> python scalar out
    if np.ndim(like) == 0 and isinstance(out, np.ndarray):
        return out.item()
    return out


def _base(x):
    # the base of a fractional power of lam: Python's pow turns a real number
    # below 0 complex where numpy's gives NaN, so such a number becomes NaN
    return math.nan if isinstance(x, (int, float)) and x < 0.0 else x


# ---------------------------------------------------------------------------
# jump families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoJumps:
    """Absent jump part; the process is Brownian motion with drift."""

    family = "none"
    finite_activity = True
    infinite_variation = False

    def psi_part(self, lam):
        # keeps a float a float and a complex node array complex
        return 0.0 * lam

    psi_part_d1 = psi_part_d2 = tail = density = tail_transform = tail_moment = psi_part

    @property
    def mean_at_zero(self):
        return 0.0


@dataclass(frozen=True)
class ExpJumps:
    """Compound Poisson jumps: intensity ``rate``, sizes -Exp(jump_rate).

    Uncompensated, so the jump part of the exponent is
    -rate*lam/(jump_rate + lam) and contributes -rate/jump_rate to the
    mean.  Finite activity: requires sigma2 > 0 at the model level.
    """

    rate: float
    jump_rate: float

    family = "cp_exp"
    finite_activity = True
    infinite_variation = False

    def __post_init__(self):
        _check_field(self, "rate")
        _check_field(self, "jump_rate")

    def psi_part(self, lam):
        return -self.rate * lam / (self.jump_rate + lam)

    def psi_part_d1(self, lam):
        return -self.rate * self.jump_rate / (self.jump_rate + lam) ** 2

    def psi_part_d2(self, lam):
        return 2.0 * self.rate * self.jump_rate / (self.jump_rate + lam) ** 3

    def tail(self, x):
        return self.rate * np.exp(-self.jump_rate * x)

    def density(self, u):
        return self.rate * self.jump_rate * np.exp(-self.jump_rate * u)

    def tail_transform(self, r):
        mu = self.jump_rate
        return self.rate * r / (mu * (mu + r))

    def tail_moment(self, r):
        return self.rate / (self.jump_rate + r) ** 2

    @property
    def mean_at_zero(self):
        return -self.rate / self.jump_rate


def _check_alpha(jumps):
    alpha = _check_field(jumps, "alpha", 1.0)
    _require(alpha < 2.0, f"jumps.alpha must lie in the open interval (1, 2), got {alpha}")


def _stable_front(alpha, scale):
    # density prefactor k in k * exp(tempering*x) * |x|^(-1-alpha)
    return scale * alpha * (alpha - 1.0) / math.gamma(2.0 - alpha)


@dataclass(frozen=True)
class StableJumps:
    """One-sided alpha-stable jump measure, alpha in (1, 2).

    Density k*|x|^(-1-alpha) on x < 0 with k chosen so the fully
    compensated exponent is exactly scale*lam**alpha.
    """

    alpha: float
    scale: float

    family = "stable"
    finite_activity = False
    infinite_variation = True

    def __post_init__(self):
        _check_alpha(self)
        _check_field(self, "scale")

    def psi_part(self, lam):
        return self.scale * _base(lam) ** self.alpha

    def psi_part_d1(self, lam):
        return self.scale * self.alpha * _base(lam) ** (self.alpha - 1.0)

    def psi_part_d2(self, lam):
        a = self.alpha
        with np.errstate(divide="ignore"):
            return self.scale * a * (a - 1.0) * _base(lam) ** (a - 2.0)

    def tail(self, x):
        k = _stable_front(self.alpha, self.scale)
        return (k / self.alpha) * np.power(x, -self.alpha)

    def density(self, u):
        k = _stable_front(self.alpha, self.scale)
        return k * np.power(u, -1.0 - self.alpha)

    def tail_transform(self, r):
        return self.scale * np.power(r, self.alpha - 1.0)

    def tail_moment(self, r):
        # +inf at r = 0, where u * pi_tail(u) ~ u**(1 - alpha) is not integrable
        a = self.alpha
        with np.errstate(divide="ignore"):
            return self.scale * (a - 1.0) * np.power(r, a - 2.0)

    @property
    def mean_at_zero(self):
        return 0.0

    def truncated_variance(self, eps):
        k = _stable_front(self.alpha, self.scale)
        return k * eps ** (2.0 - self.alpha) / (2.0 - self.alpha)

    def truncated_mean(self, eps):
        k = _stable_front(self.alpha, self.scale)
        return -k * eps ** (1.0 - self.alpha) / (self.alpha - 1.0)


@dataclass(frozen=True)
class TemperedStableJumps:
    """Exponentially tempered stable jumps: density k*exp(tempering*x)*|x|^(-1-alpha).

    Fully compensated, giving the exponent
    scale*((lam+theta)**alpha - theta**alpha - alpha*theta**(alpha-1)*lam)
    with theta = tempering.  tempering = 0 degenerates to StableJumps.
    """

    alpha: float
    scale: float
    tempering: float

    family = "tempered_stable"
    finite_activity = False
    infinite_variation = True

    def __post_init__(self):
        # tempering = 0 is family 'stable'
        _check_alpha(self)
        _check_field(self, "scale")
        _check_field(self, "tempering")

    def psi_part(self, lam):
        # theta**alpha from the pow that takes (lam + theta)**alpha, so psi(0) = 0
        a, th = self.alpha, self.tempering
        th_a = np.power(th, a) if isinstance(lam, np.ndarray) else th**a
        return self.scale * (_base(lam + th) ** a - th_a - a * th ** (a - 1.0) * lam)

    def psi_part_d1(self, lam):
        a, th = self.alpha, self.tempering
        return self.scale * a * (_base(lam + th) ** (a - 1.0) - th ** (a - 1.0))

    def psi_part_d2(self, lam):
        a, th = self.alpha, self.tempering
        return self.scale * a * (a - 1.0) * _base(lam + th) ** (a - 2.0)

    def tail(self, x):
        # integration by parts twice; the last term is the upper incomplete
        # gamma of positive argument 2 - alpha
        a, th = self.alpha, self.tempering
        k = _stable_front(a, self.scale)
        e = np.exp(-th * x)
        _, upper = _incomplete_gamma(2.0 - a, th * x)
        return k * (
            e * np.power(x, -a) / a
            - th * e * np.power(x, 1.0 - a) / (a * (a - 1.0))
            + th**a * upper / (a * (a - 1.0))
        )

    def density(self, u):
        k = _stable_front(self.alpha, self.scale)
        return k * np.exp(-self.tempering * u) * np.power(u, -1.0 - self.alpha)

    def tail_transform(self, r):
        # scale*[((r+theta)**alpha - theta**alpha)/r - alpha*theta**(alpha-1)]
        a, th = self.alpha, self.tempering
        transform = _tempered_tail(a, r / th, "transform")
        return self.scale * th ** (a - 1.0) * transform

    def tail_moment(self, r):
        a, th = self.alpha, self.tempering
        moment = _tempered_tail(a, r / th, "moment")
        return self.scale * th ** (a - 2.0) * moment

    @property
    def mean_at_zero(self):
        return 0.0

    def truncated_variance(self, eps):
        a, th = self.alpha, self.tempering
        k = _stable_front(a, self.scale)
        lower, _ = _incomplete_gamma(2.0 - a, th * eps)
        return k * th ** (a - 2.0) * lower

    def truncated_mean(self, eps):
        a, th = self.alpha, self.tempering
        k = _stable_front(a, self.scale)
        _, upper = _incomplete_gamma(2.0 - a, th * eps)
        tail_int = (
            eps ** (1.0 - a) * math.exp(-th * eps) / (a - 1.0)
            - th ** (a - 1.0) * upper / (a - 1.0)
        )
        return -k * tail_int


# the tempered tail transforms in s = r/theta, without their prefactors
# scale*theta**(alpha-1) and scale*theta**(alpha-2).  The direct forms
# subtract alpha from a quotient of size alpha to leave C(alpha, 2)*s,
# so they lose about eps/(C(alpha, 2)*s) relative; below the switch the
# binomial series takes over, whose terms fall like s**n
_SERIES_SWITCH = 0.5
_SERIES_TERMS = 64


@functools.lru_cache(maxsize=64)
def _binomials(alpha):
    # C(alpha, n) for n = 2 .. _SERIES_TERMS + 1
    n = np.arange(1.0, _SERIES_TERMS + 2.0)
    out = np.cumprod((alpha + 1.0 - n) / n)[1:]
    out.flags.writeable = False
    return out


def _tempered_series(alpha, s, part):
    # sum_{n>=2} C(alpha, n) s**(n-1) ("transform") or its s-derivative ("moment")
    c = _binomials(alpha)
    k = np.arange(c.size)  # n - 2
    powers = s[:, None] ** k
    return s * (powers @ c) if part == "transform" else powers @ ((k + 1.0) * c)


def _tempered_direct(alpha, s, part):
    # ((1+s)**alpha - 1)/s - alpha ("transform") or its s-derivative ("moment")
    grown = np.expm1(alpha * np.log1p(s)) / s
    if part == "transform":
        return grown - alpha
    return (alpha * np.power(1.0 + s, alpha - 1.0) - grown) / s


def _tempered_tail(alpha, s, part):
    flat = np.atleast_1d(s).ravel()
    out = np.empty_like(flat)
    small = flat < _SERIES_SWITCH
    out[small] = _tempered_series(alpha, flat[small], part)
    out[~small] = _tempered_direct(alpha, flat[~small], part)
    return out.reshape(np.shape(s))


_FAMILIES = {
    "none": NoJumps,
    "cp_exp": ExpJumps,
    "stable": StableJumps,
    "tempered_stable": TemperedStableJumps,
}


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyModel:
    """A spectrally negative Levy process of unbounded variation."""

    gamma: float
    sigma2: float
    jumps: NoJumps | ExpJumps | StableJumps | TemperedStableJumps = field(
        default_factory=NoJumps
    )

    def __post_init__(self):
        _check_field(self, "gamma", -math.inf, prefix="")
        _check_field(self, "sigma2", strict=False, prefix="")
        families = tuple(_FAMILIES.values())
        if not isinstance(self.jumps, families):
            raise BadParameterError(f"jumps must be one of {[c.__name__ for c in families]}, "
                                    f"got {self.jumps!r}")
        if self.sigma2 == 0.0 and not self.jumps.infinite_variation:
            raise BoundedVariationError(
                "paths have bounded variation (sigma2 = 0 and the jump part "
                f"'{self.jumps.family}' has finite variation); this class of "
                "models is outside the supported domain"
            )

    # -- Laplace exponent ---------------------------------------------------

    def psi(self, lam):
        """Laplace exponent at lam, a number or an array, real or complex."""
        return self.gamma * lam + 0.5 * self.sigma2 * lam**2 + self.jumps.psi_part(lam)

    def psi_prime(self, lam):
        """First derivative of psi on [0, infinity); psi'(0) is the mean."""
        return self.gamma + self.sigma2 * lam + self.jumps.psi_part_d1(lam)

    def psi_second(self, lam):
        """Second derivative of psi; may be +inf at 0 for heavy-tailed families."""
        try:
            return self.sigma2 + self.jumps.psi_part_d2(lam)
        except ZeroDivisionError:  # a float at a pole, or 0.0 ** (alpha - 2)
            return math.inf

    @functools.cached_property
    def mean(self):
        """psi'(0+), the long-run drift E[X_1]; its sign is the drift regime."""
        return self.gamma + self.jumps.mean_at_zero

    # -- inverse exponent ---------------------------------------------------

    def phi(self, q):
        """Largest solution of psi(lam) = q, for q >= 0."""
        return _phi_cached(self, _check_arg("phi: q", q, strict=False))

    def phi_prime(self, q):
        """Derivative of phi; +inf at q = 0 when the process oscillates."""
        d = self.psi_prime(self.phi(q))
        # d <= 0 only at q = 0 with zero mean
        return 1.0 / d if d > 0.0 else math.inf

    # -- jump measure and ladder structure ----------------------------------

    def pi_tail(self, x):
        """Mass of jumps below -x, for x > 0."""
        return self.jumps.tail(_check_arg("pi_tail: x", x, points=True))

    def ladder_exponent(self, lam):
        """Descending ladder height exponent kappa_hat(lam) = psi(lam)/(lam - phi(0)).

        The singularity at lam = phi(0) is removable; within a 1e-9
        neighbourhood of it the Taylor expansion
        psi'(phi0) + psi''(phi0)*(lam - phi0)/2 is used instead of the ratio.
        """
        arr = _check_arg("ladder_exponent: lam", lam, strict=False, points=True)
        phi0 = self.phi(0.0)
        gap = arr - phi0
        near = np.abs(gap) <= 1e-9 * (1.0 + phi0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.psi(arr) / np.where(near, 1.0, gap)
        if np.any(near):
            d2 = self.psi_second(phi0)
            taylor = self.psi_prime(phi0) + (0.5 * d2 * gap if math.isfinite(d2) else 0.0)
            out = np.where(near, taylor, out)
        return _maybe_scalar(out, lam)

    def ladder_tail(self, x):
        """Tail of the descending ladder height measure,

        exp(phi0*x) * integral_x^inf exp(-phi0*z) pi_tail(z) dz,

        taken as the integral of exp(-phi0*u) * pi_tail(x + u) over u > 0.
        """
        x = _check_arg("ladder_tail: x", x)
        if isinstance(self.jumps, NoJumps):
            return 0.0
        phi0 = self.phi(0.0)
        tail = self.jumps.tail
        return _jump_quadrature(self.jumps, lambda u: np.exp(-phi0 * u) * tail(x + u), phi0,
                                rtol=1e-11, atol=1e-13)


def _tail_decay_hint(jumps):
    # exponential decay rate of pi_tail, or 0 when only a power tail exists
    if isinstance(jumps, ExpJumps):
        return jumps.jump_rate
    if isinstance(jumps, TemperedStableJumps):
        return jumps.tempering
    return 0.0


# ---------------------------------------------------------------------------
# phi solver: convex psi, Newton from the right with bracket safeguards
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _psi_size(model, x):
    # size of the terms summed into psi(x), so EPS times it is the rounding
    # floor of psi(x); the tempered part subtracts two constants of size
    # theta**alpha that cancel at small x
    j = model.jumps
    size = abs(model.gamma * x) + 0.5 * model.sigma2 * x * x + abs(j.psi_part(x))
    if isinstance(j, TemperedStableJumps):
        size += 2.0 * j.scale * j.tempering**j.alpha
    return size


@functools.lru_cache(maxsize=4096)
def _phi_cached(model, q):
    mean = model.mean
    if q == 0.0 and mean >= 0.0:
        return 0.0

    # lower end of the bracket: a point where psi < q
    if q > 0.0:
        lo = 0.0
    else:
        # drift to -inf: psi dips below 0 immediately right of the origin
        lo = 1e-8
        for _ in range(80):
            if model.psi(lo) < 0.0:
                break
            lo *= 0.5
        else:
            raise ConvergenceFailure("phi: could not find a point with psi < 0")

    # upper end: double until psi exceeds q
    hi = max(1.0, lo * 2.0)
    for _ in range(200):
        if model.psi(hi) > q:
            break
        hi *= 2.0
    else:
        raise ConvergenceFailure(f"phi: no upper bracket found for q = {q}")

    # Newton from the right; convexity keeps iterates above the root, the
    # bracket clip is a pure safeguard
    x = hi
    for _ in range(100):
        fx = model.psi(x) - q
        # relative in q so the inverse identity holds to ~1e-12 even at
        # the small end of the grid, or down at the rounding floor of
        # psi(x) itself, which sets the limit when q is tiny or 0
        if abs(fx) <= 1e-13 * q + 8.0 * _EPS * _psi_size(model, x):
            return x
        if fx > 0.0:
            hi = x
        else:
            lo = x
        x_new = x - fx / model.psi_prime(x)
        if not (lo < x_new < hi):
            # rounding left x a hair below the root: bisect the updated
            # bracket, and stop once no float lies strictly inside it
            x_new = 0.5 * (lo + hi)
            if not (lo < x_new < hi):
                return hi
        if abs(x_new - x) <= 2.0 * _EPS * abs(x):
            return x_new
        x = x_new
    raise ConvergenceFailure(f"phi: Newton failed to converge for q = {q}")


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{path}: expected a number, got {value!r}")
    return float(value)


def model_from_dict(data):
    """Build a LevyModel from a plain dict, naming any offending field."""
    if not isinstance(data, dict):
        raise ModelFormatError("model: expected a JSON object at top level")
    allowed = {"gamma", "sigma2", "jumps"}
    extra = set(data) - allowed
    if extra:
        raise ModelFormatError(f"model: unknown field(s) {sorted(extra)}")
    for name in ("gamma", "sigma2"):
        if name not in data:
            raise ModelFormatError(f"{name}: field is required")
    gamma = _as_number(data["gamma"], "gamma")
    sigma2 = _as_number(data["sigma2"], "sigma2")

    jd = data.get("jumps", {"family": "none"})
    if not isinstance(jd, dict):
        raise ModelFormatError("jumps: expected an object")
    family = jd.get("family")
    if family not in _FAMILIES:
        raise ModelFormatError(
            f"jumps.family: expected one of {sorted(_FAMILIES)}, got {family!r}"
        )
    cls = _FAMILIES[family]
    wanted = {f.name for f in fields(cls)}
    extra = set(jd) - wanted - {"family"}
    if extra:
        raise ModelFormatError(f"jumps: unknown field(s) {sorted(extra)} for family '{family}'")
    missing = wanted - set(jd)
    if missing:
        raise ModelFormatError(f"jumps.{sorted(missing)[0]}: field is required for family '{family}'")
    kwargs = {name: _as_number(jd[name], f"jumps.{name}") for name in wanted}
    return LevyModel(gamma=gamma, sigma2=sigma2, jumps=cls(**kwargs))


def parse_model(text):
    """Parse a JSON model description; diagnostics point at line/field."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"model JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return model_from_dict(data)


def model_to_dict(model):
    jumps = {"family": model.jumps.family, **asdict(model.jumps)}
    return {"gamma": model.gamma, "sigma2": model.sigma2, "jumps": jumps}
