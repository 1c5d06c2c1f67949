"""Scale functions W^(q) and Z^(q) for spectrally negative models.

The engine evaluates the functions defined through the transform

    integral_0^inf exp(-lam*x) W^(q)(x) dx = 1/(psi(lam) - q),   lam > phi(q),

together with Z^(q)(x) = 1 + q * integral_0^x W^(q)(y) dy.  Two routes
are implemented, and the model selects one (``ScaleEngine.closed_kind``):

closed form (where the family has one)
    Rational exponents (Brownian motion, compound Poisson with
    exponential jumps) via partial fractions of 1/(psi - q); the double
    pole of the oscillating q = 0 case produces an x*exp(p*x) term.
    The pure stable exponent scale*lam**alpha goes through the
    Mittag-Leffler function instead.

contour (every other model)
    Numerical inversion of the transform on a deformed Bromwich contour
    shifted right of phi(q): the fixed-Talbot rule with 32 nodes, checked
    against the rule with 24 nodes.  The shift above phi(q) is tapered
    like 2/x for x > 2: the inversion multiplies by exp(c*x) at the end,
    so any roundoff on the contour is amplified by that factor and a
    constant shift would lose six digits by x = 10.  The shift, like
    Talbot's r, is set at the point's anchor, the centre of its cell
    among 16 geometric cells per octave (``_cells``).  ``_contour`` is
    also the reference the closed forms are checked against.

The resolvent identity W^(q)(x) - W(x) = q * integral_0^x W(x-y) W^(q)(y) dy,
with W = W^(0), is not a route but an oracle on how W^(q) depends on q,
``w_series_check``: it is the convolution series sum_k q^k W^{*(k+1)}(x)
summed in closed form, so it holds at every x > 0 with no grid.

The leading-term split (``w_minus_leading``, ``z_minus_leading``)
removes the dominant exponential, the residue of the transform at its
pole phi(q) times exp(phi(q)*x), without differencing two large
numbers.  It has two routes.  Rational exponents drop the phi(q) pole
from the partial fractions of W.  Every other model, pure stable
included, inverts the remainder's own transform on a Talbot contour
based at 0: with that pole subtracted, every singularity lies in
Re s <= 0, so the abscissa need not clear phi(q), and the exp(c*x)
factor that amplifies contour roundoff stays below e^2 however far
into the tail x lies.

Array calls.  ``w``, ``w_prime``, ``z`` (and their ``*_detail`` forms),
``w_minus_leading``, ``z_minus_leading`` and ``mittag_leffler`` take x
as a float or as a numpy array: a float gives a float, an array an
array of its shape.  Every route takes either form; only the masks that
set the points x <= 0 apart branch on it.  A float is not made a
1-element array, because numpy's cost per call on such arrays is
several times that of a rational closed form.  Every route evaluates a
whole array at once; points share anchored contours, so a contour rule
makes one transform call on an (anchors, M) node array, one row per
occupied cell, and folds each row into a 16-term series in (x - a)/a
about its anchor a, so a point pays one real exponential and that
polynomial, not M complex exponentials.  The quadratures over W in
``laplace_roundtrip`` and the validation suites pay for a few such
calls instead of one inversion per node.  Every point keeps its own
self-estimate and, in the remainder contour, its own tie-break.  A
point that fails raises ``InversionFailure`` naming its x, and so does
a value that is not finite (a closed form overflowing far in the tail),
so no call returns NaN or inf for a point x > 0.

W^(q)(x) = 0 for x < 0 and, in the unbounded-variation class accepted by
the model layer, W^(q)(0) = 0 with right derivative 2/sigma2.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import integrate_finite, integrate_graded
from ._special import _rgamma
from .errors import (
    BadParameterError,
    InversionFailure,
    WrongRegimeError,
    _check_arg,
)
from .model import ExpJumps, NoJumps, StableJumps

_TINY = np.finfo(float).tiny
# Talbot node count M of the contour route; 32 keeps the rule comfortably
# inside double precision (larger M amplifies roundoff through the
# exp(c*x) factor faster than it reduces truncation error)
_TALBOT_M = 32
# largest relative gap between the M- and 3M/4-node rules at a point
_TARGET = 1e-8


@dataclass(frozen=True)
class ScaleValue:
    value: float
    method: str
    est_error: float


@dataclass(frozen=True)
class SeriesCheck:
    value: float
    reference: float
    rel_gap: float


@dataclass(frozen=True)
class RoundTrip:
    numeric: float
    exact: float
    rel_gap: float


# ---------------------------------------------------------------------------
# Mittag-Leffler E_{a,b}(z) for z >= 0
# ---------------------------------------------------------------------------


def mittag_leffler(a, b, z):
    """E_{a,b}(z) for real z >= 0 and a in (0, 2], via series or asymptotics.

    z may be a float or a numpy array; the result has the same form.
    """
    a = _check_arg("a", a)
    if a > 2.0:
        raise BadParameterError(f"a must lie in (0, 2], got {a}")
    b = _check_arg("b", b, -math.inf)
    z, shape = _points(_check_arg("z", z, strict=False, points=True))
    zs = np.atleast_1d(z)
    series = zs <= 80.0
    if series.all():
        out = _ml_series_sum(a, b, zs)
    else:
        out = np.empty(zs.shape)
        out[series] = _ml_series_sum(a, b, zs[series])
        out[~series] = _ml_asymptotic(a, b, zs[~series])
    return _shaped(out.reshape(np.shape(z)), shape)


_ML_KS = np.arange(0, 320, dtype=float)


@functools.lru_cache(maxsize=64)
def _ml_log_gammas(a, b):
    # log|Gamma(a*k + b)| of the series terms, once per (a, b); +inf at the
    # poles of Gamma, whose terms vanish
    out = np.array([math.inf if v <= 0.0 and v == math.floor(v) else math.lgamma(v)
                    for v in (a * _ML_KS + b).tolist()])
    out.flags.writeable = False
    return out


def _ml_series_sum(a, b, z):
    # the first 320 terms of the power series, at 0 <= z <= 80
    logs = np.log(np.maximum(z, _TINY))[:, None]
    with np.errstate(under="ignore"):
        sums = np.exp(logs * _ML_KS - _ml_log_gammas(a, b)).sum(axis=1)
    # z = 0 leaves only the k = 0 term
    sums[z == 0.0] = _rgamma(b)
    return sums


def _ml_asymptotic(a, b, z):
    # exponential asymptotics at z > 80; rgamma vanishes at the poles of
    # gamma, so terms with b - a*k a nonpositive integer drop out by
    # themselves
    with np.errstate(over="ignore"):
        lead = (1.0 / a) * z ** ((1.0 - b) / a) * np.exp(z ** (1.0 / a))
    return lead - _ml_algebraic_tail(a, b, z)


def _ml_algebraic_tail(a, b, z):
    # sum_{k>=1} z^(-k) / Gamma(b - a*k): the algebraic part of E_{a,b} at
    # large z, for an array z.  The series is asymptotic; each point sums
    # its terms in order up to its smallest one.  Terms sitting on a gamma
    # pole are exactly zero and must not be mistaken for the turning point.
    ks = np.arange(1, 64, dtype=float)
    coeffs = np.array([_rgamma(v) for v in (b - a * ks).tolist()])
    ks, coeffs = ks[coeffs != 0.0], coeffs[coeffs != 0.0]
    terms = z[:, None] ** -ks * coeffs
    if ks.size < 2:
        return np.sum(terms, axis=1)
    mag = np.abs(terms)
    # the first k > 2 whose term outgrows the one before ends the sum;
    # terms that underflow to zero never do
    grows = (mag[:, 1:] > mag[:, :-1]) & (ks[1:] > 2)
    stop = np.where(grows.any(axis=1), grows.argmax(axis=1) + 1, ks.size)
    kept = np.where(np.arange(ks.size) < stop[:, None], terms, 0.0)
    return np.cumsum(kept, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# contour rules
# ---------------------------------------------------------------------------


def _shift(base, x):
    # contour abscissa: clear phi(q) by a margin, tapered at large x since
    # the final exp(c*x) factor amplifies contour roundoff
    return base + max(1.0, base / 10.0) * (2.0 / np.maximum(x, 2.0))


# anchors: the centres of a geometric grid of 16 cells per octave, found
# from the mantissa of frexp, so r*x stays within 2^(1/32) of the 2M/5
# the rule is tuned to (4 edge-anchored cells per octave lost a digit of
# the M = 32 rule: 1.6e-9 against 2.4e-10 on the closed forms)
_CELLS = 16
_EDGES = 2.0 ** (np.arange(_CELLS) / _CELLS) / 2.0
_CENTRES = 2.0 ** ((np.arange(_CELLS) + 0.5) / _CELLS) / 2.0


def _cells(x):
    # the anchors the points of the 1-D array x > 0 occupy, each once, and
    # cell[i], point i's row among them (None, the anchors following x,
    # while no two share one).  One point takes the scalar path (frexp)
    if x.size == 1:
        m, e = math.frexp(x[0])
        return np.array([math.ldexp(_CENTRES[bisect.bisect_right(_EDGES, m) - 1], e)]), None
    m, e = np.frexp(x)
    anchor = np.ldexp(_CENTRES[np.searchsorted(_EDGES, m, side="right") - 1], e)
    order = np.argsort(anchor)
    ordered = anchor[order]
    first = np.ones(x.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if first.all():
        return anchor, None
    cell = np.empty(x.size, dtype=np.intp)
    cell[order] = np.cumsum(first) - 1
    return ordered[first], cell


# complex values per transform call, and M times the points of a batch:
# bounds the memory of a call however many points are asked for at once.
# It stays below numpy's 256 KiB threshold for reusing temporaries, which
# swaps the operands of a complex product such as s*(psi(s) - q), and
# with them its rounding, so that a row's transform values do not depend
# on the call
_BATCH = 16000
# terms of the Taylor series in d = (x - a)/a that a point of anchor a
# sums; the first omitted one is below 2e-22 of the head term for M <= 32
_TERMS = 16


@functools.lru_cache(maxsize=None)
def _talbot_rule(M):
    # theta_k and cot(theta_k) + i for k = 1..M-1: the fixed-Talbot nodes
    # are r*theta*(cot + i) + c, the real node k = 0 is r + c.  With
    # r = 2M/(5a), r*x*theta*(cot + i) is z_k*(1 + d) with z_k =
    # (2M/5)*theta*(cot + i), the same at every anchor a, so the weighted
    # terms w_k*exp(z_k*(1 + d)) fold into a series in d: rows 2k and
    # 2k + 1 of fold hold the real part and minus the imaginary part of
    # w_k*exp(z_k)*z_k^j/j!, with w_0 = 1/2 and w_k = 1 + i*sigma(theta_k)
    theta = np.arange(1, M, dtype=float) * np.pi / M
    cot = 1.0 / np.tan(theta)
    sigma = theta + (theta * cot - 1.0) * cot
    z = 0.4 * M * np.concatenate(([1.0], theta * (cot + 1j)))
    weight = np.concatenate(([0.5], 1.0 + 1j * sigma))
    terms = np.cumprod([weight * np.exp(z)] + [z / j for j in range(1, _TERMS)], axis=0).T
    fold = np.empty((2 * M, _TERMS))
    fold[0::2], fold[1::2] = terms.real, -terms.imag
    return theta, cot + 1j, fold


def _talbot_once(transform, x, cells, M, base):
    """Fixed-Talbot rule with M nodes at the points of the 1-D array x.

    Points share anchored contours (``cells = _cells(x)``): a point takes
    r = 2M/(5a) and the shift c(a) of its anchor a.  The transform is
    called on one (anchors, M) node array, not on (n, M), and each
    anchor's weighted row folds into the coefficients of a Taylor series
    in d = (x - a)/a (``_talbot_rule``), so a point pays one real
    exp(c*x) and a 16-term polynomial.  The fold is a stacked product,
    one row at a time, so a point's value does not depend on the other
    anchors of its call.
    """
    theta, path, fold = _talbot_rule(M)
    anchor, cell = cells
    r = 2.0 * M / (5.0 * anchor)
    c = _shift(base, anchor)
    nodes = np.empty((anchor.size, M), dtype=complex)
    nodes[:, 0] = r + c
    nodes[:, 1:] = r[:, None] * theta * path + c[:, None]
    step = max(1, _BATCH // M)
    batches = [transform(nodes[i : i + step]) for i in range(0, anchor.size, step)]
    vals = batches[0] if len(batches) == 1 else np.concatenate(batches)
    # (Re, Im) pairs of each row times fold, times r/M = 0.4/a
    flat = np.ascontiguousarray(vals, dtype=complex).view(float)[:, None, :]
    series = np.matmul(flat, fold)[:, 0] * (0.4 / anchor)[:, None]
    out = np.empty(x.shape)
    for i in range(0, x.size, step):
        rows = slice(i, i + step) if cell is None else cell[i : i + step]
        xb, ab = x[i : i + step], anchor[rows]
        powers = np.empty((xb.size, _TERMS))
        powers[:, 0] = 1.0
        powers[:, 1:] = ((xb - ab) / ab)[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        poly = np.matmul(series[rows][:, None, :], powers[:, :, None])[:, 0, 0]
        out[i : i + step] = np.exp(c[rows] * xb) * poly
    return out


def _points(x):
    # a float for a scalar x, or a 1-D float array for a numpy array x,
    # and the shape to give back (None for a scalar).  Every route takes
    # either form; one point stays a float because on 1-element arrays
    # numpy's per-call cost is several times that of a closed form
    if isinstance(x, np.ndarray) and x.ndim > 0:
        return x.astype(float).ravel(), x.shape
    return float(x), None


def _shaped(values, shape):
    # undo _points on the values at its points
    return float(values) if shape is None else np.reshape(values, shape)


def _not_finite(method, kind, q, x):
    # far in the tail a closed form overflows; no value is returned then
    return InversionFailure(f"{method} value of {kind} is not finite at q={q}, x={x}")


class ScaleEngine:
    """Evaluator for W^(q), its derivative, and Z^(q) under one model."""

    def __init__(self, model):
        self.model = model
        self._rational_cache = {}

    # -- routing ------------------------------------------------------------

    @functools.cached_property
    def closed_kind(self):
        j = self.model.jumps
        if isinstance(j, (NoJumps, ExpJumps)):
            return "rational"
        if isinstance(j, StableJumps) and self.model.gamma == 0.0 and self.model.sigma2 == 0.0:
            return "stable"
        return None

    # -- public evaluation ----------------------------------------------------

    def w(self, q, x):
        return self.w_detail(q, x).value

    def w_prime(self, q, x):
        return self.w_prime_detail(q, x).value

    def z(self, q, x):
        return self.z_detail(q, x).value

    def w_detail(self, q, x):
        return self._on_support(q, x, "w")

    def w_prime_detail(self, q, x):
        return self._on_support(q, x, "wprime")

    def z_detail(self, q, x):
        return self._on_support(q, x, "z")

    def _on_support(self, q, x, kind):
        # route the points x > 0 (and q > 0 for Z); _edge gives the others
        q, x, shape = self._check_args(q, x)
        inner = (x > 0.0) & (kind != "z" or q > 0.0)
        if shape is None:
            if not inner:
                value, method = self._edge(q, x, kind)
                return ScaleValue(float(value), method, 0.0)
            found = self._evaluate(q, x, kind)
            value = float(found.value)
            if not math.isfinite(value):
                raise _not_finite(found.method, kind, q, x)
            return ScaleValue(value, found.method, float(found.est_error))
        value = np.empty(x.shape)
        est = np.zeros(x.shape)
        outer = ~inner
        method = "support"
        if outer.any():
            value[outer], method = self._edge(q, x[outer], kind)
        if inner.any():
            found = self._evaluate(q, x[inner], kind)
            bad = ~np.isfinite(found.value)
            if bad.any():
                raise _not_finite(found.method, kind, q, x[inner][bad][0])
            value[inner] = found.value
            est[inner] = found.est_error
            method = found.method
        return ScaleValue(value.reshape(shape), method, est.reshape(shape))

    def _edge(self, q, x, kind):
        # values and method where no route runs: x <= 0, or Z at q = 0
        if kind == "w":
            return 0.0, "support"
        if kind == "z":
            return 1.0, "closed_form" if q == 0.0 and np.any(x > 0.0) else "support"
        # right derivative at the origin for unbounded variation paths
        at_zero = 2.0 / self.model.sigma2 if self.model.sigma2 > 0.0 else math.inf
        below = x < 0.0
        return np.where(below, 0.0, at_zero), "support" if np.all(below) else "closed_form"

    def _evaluate(self, q, x, kind):
        # x > 0 throughout
        if self.closed_kind:
            return self._closed(q, x, kind)
        return self._contour(q, x, kind)

    @staticmethod
    def _check_args(q, x, x_bound=-math.inf):
        # q >= 0 as a float; x >= x_bound and the shape to give back as
        # from _points
        q = _check_arg("q", q, strict=False)
        x, shape = _points(_check_arg("x", x, x_bound, strict=False, points=True))
        return q, x, shape

    # -- leading-term split -----------------------------------------------------

    def w_minus_leading(self, q, x):
        """W^(q)(x) - phi'(q)*exp(phi(q)*x), stable against cancellation.

        The subtracted term is the dominant exponential of W^(q); the
        remainder decays, so resolvent densities and exit identities built
        from it keep their accuracy where the naive difference of two huge
        numbers would not.  Needs a finite phi'(q): q > 0, or q = 0 with
        nonzero mean.  x may be a float or an array.
        """
        q, x, shape = self._check_args(q, x, 0.0)
        phip = self.model.phi_prime(q)
        if not math.isfinite(phip):
            raise WrongRegimeError(
                "leading-term split needs psi'(phi(q)) > 0; "
                "q = 0 with zero mean has no linear leading term"
            )
        return _shaped(self._minus_leading(q, x, self.model.phi(q), phip, kind="w"), shape)

    def z_minus_leading(self, q, x):
        """Z^(q)(x) - (q/phi(q))*phi'(q)*exp(phi(q)*x) for q > 0, x >= 0."""
        q, x, shape = self._check_args(_check_arg("q", q), x, 0.0)
        phi = self.model.phi(q)
        lead_coeff = (q / phi) * self.model.phi_prime(q)
        return _shaped(self._minus_leading(q, x, phi, lead_coeff, kind="z"), shape)

    def _minus_leading(self, q, x, phi, lead_coeff, kind):
        # W or Z less lead_coeff*exp(phi*x); lead_coeff is the residue of
        # the transform at its simple pole phi = phi(q)
        at_zero = (1.0 if kind == "z" else 0.0) - lead_coeff
        if isinstance(x, float):
            return at_zero if x == 0.0 else self._split(q, x, phi, lead_coeff, kind)
        out = np.full(x.shape, at_zero)
        inner = x > 0.0
        if inner.any():
            out[inner] = self._split(q, x[inner], phi, lead_coeff, kind)
        return out

    def _split(self, q, x, phi, lead_coeff, kind):
        # the split at x > 0
        if self.closed_kind != "rational":
            return self._remainder_contour(q, x, phi, lead_coeff, kind)
        terms = self._z_terms(q) if kind == "z" else self._w_terms(q)
        at_phi = [t for t in terms if abs(t[1] - phi) <= 1e-6 * (1.0 + phi)]
        if len(at_phi) != 1 or at_phi[0][2] != 1:
            raise InversionFailure(
                f"partial fractions at q={q} have no simple pole at phi(q) = {phi}"
            )
        return self._eval_terms([t for t in terms if t is not at_phi[0]], x)

    def _remainder_contour(self, q, x, phi, lead_coeff, kind):
        # transform of the remainder itself: subtracting the phi(q) pole
        # leaves all singularities in Re s <= 0 (the remainder is the
        # transform of an integrable density with at least the jump
        # tail's exponential decay), so a contour based at 0 reaches the
        # far tail with no exp(phi*x) amplification at all.  x > 0.
        m = self.model

        if kind == "w":
            def transform(s):
                return 1.0 / (m.psi(s) - q) - lead_coeff / (s - phi)
        else:
            # Z - 1 transforms to q/(s(psi-q)); folding in the constant 1
            # gives psi(s)/(s(psi(s)-q)), analytic at 0 since psi(0)=0
            def transform(s):
                p = m.psi(s)
                return p / (s * (p - q)) - lead_coeff / (s - phi)

        # a base-0 contour hits its roundoff floor near M = 24 in double
        # precision; more nodes only amplify rounding, so stop there and
        # cross-check against a shorter rule on an absolute scale
        n1, n2 = 24, 18
        xs = np.atleast_1d(x)
        cells = _cells(xs)
        v1 = _talbot_once(transform, xs, cells, n1, 0.0)
        v2 = _talbot_once(transform, xs, cells, n2, 0.0)
        scale = 1.0 + abs(lead_coeff)

        def _agree(a, b):
            return np.isfinite(a) & (np.abs(a - b) <= 1e-6 * np.abs(a) + 5e-9 * scale)

        split = ~_agree(v1, v2)
        if split.any():
            # a node landing near a complex zero of psi - q poisons one
            # rule at isolated (q, x); a third geometry breaks the tie at
            # the points where the first two disagree
            a1, a2 = v1[split], v2[split]
            a3 = _talbot_once(transform, xs[split], _cells(xs[split]), n1 - 3, 0.0)
            take3 = _agree(a3, a2)
            fail = ~take3 & ~_agree(a1, a3)
            if fail.any():
                i = np.flatnonzero(fail)[0]
                raise InversionFailure(
                    f"remainder inversion at q={q}, x={xs[split][i]}: "
                    f"node comparison {abs(a1[i] - a2[i]):.3e} exceeds tolerance"
                )
            v1[split] = np.where(take3, a3, a1)
        # the w remainder is -u_q(-x) <= 0 and the z remainder is its
        # q-integral >= 0; clamping costs nothing above the noise floor
        # and keeps the far tail from flipping sign inside quadratures
        v1 = np.minimum(v1, 0.0) if kind == "w" else np.maximum(v1, 0.0)
        return v1.reshape(np.shape(x))

    # -- closed forms ---------------------------------------------------------

    def _closed(self, q, x, kind):
        # x > 0
        if self.closed_kind == "rational":
            if kind == "z":
                val = self._eval_terms(self._z_terms(q), x)
            else:
                val = self._eval_terms(self._w_terms(q), x, deriv=(kind == "wprime"))
            pmax = max(abs(p) for _, p, _ in self._w_terms(q))
            return ScaleValue(val, "closed_form", 1e-13 * (1.0 + x * pmax))
        # pure stable: Mittag-Leffler forms
        a = self.model.jumps.alpha
        c = self.model.jumps.scale
        zarg = (q / c) * x**a
        if kind == "w":
            val = x ** (a - 1.0) * mittag_leffler(a, a, zarg) / c
        elif kind == "wprime":
            val = x ** (a - 2.0) * mittag_leffler(a, a - 1.0, zarg) / c
        else:
            val = mittag_leffler(a, 1.0, zarg)
        return ScaleValue(val, "closed_form", 1e-13 * (1.0 + zarg))

    def _transform_polys(self, q):
        # numerator/denominator of 1/(psi - q) as polynomial coefficient lists
        m = self.model
        s2 = m.sigma2
        if isinstance(m.jumps, NoJumps):
            return [1.0], [0.5 * s2, m.gamma, -q]
        rho, mu = m.jumps.rate, m.jumps.jump_rate
        num = [1.0, mu]
        den = [0.5 * s2, 0.5 * s2 * mu + m.gamma, m.gamma * mu - rho - q, -q * mu]
        return num, den

    def _w_terms(self, q):
        if q not in self._rational_cache:
            num, den = self._transform_polys(q)
            self._rational_cache[q] = _residue_terms(num, den)
        return self._rational_cache[q]

    def _z_terms(self, q):
        # Z^(q) = 1 + q * integral of W^(q).  For q > 0 every pole p of
        # 1/(psi - q) is simple and nonzero, so r*exp(p*x) integrates to
        # (r/p)*(exp(p*x) - 1); the constant 1 - q*sum(r/p) vanishes
        # because the transform takes the value -1/q = -sum(r/p) at 0
        terms = self._w_terms(q)
        if any(j != 1 for _, _, j in terms):
            raise InversionFailure(f"poles of 1/(psi - q) merge at q={q}")
        return [(q * r / p, p, 1) for r, p, _ in terms]

    @staticmethod
    def _eval_terms(terms, x, deriv=False):
        # real part of the sum of the terms at the points x
        total = 0.0 + 0.0j
        for r, p, j in terms:
            fac = math.factorial(j - 1)
            e = np.exp(p * x)
            if deriv:
                poly = p * x ** (j - 1)
                if j > 1:
                    poly = poly + (j - 1) * x ** (j - 2)
            else:
                poly = x ** (j - 1)
            total += r * poly * e / fac
        return total.real

    # -- contour --------------------------------------------------------------

    def _contour(self, q, x, kind):
        # x > 0; each point keeps its own self-estimate
        m = self.model

        if kind == "w":
            def transform(s):
                return 1.0 / (m.psi(s) - q)
        elif kind == "wprime":
            def transform(s):
                return s / (m.psi(s) - q)
        else:
            def transform(s):
                return 1.0 / (s * (m.psi(s) - q))

        xs = np.atleast_1d(x)
        base = m.phi(q)
        anchor, cell = cells = _cells(xs)
        # the shift each point takes at its anchor, times its own x
        shift = _shift(base, anchor if cell is None else anchor[cell])
        reach = shift * xs
        if reach.max() > 700.0:
            at = xs[reach > 700.0][0]
            raise InversionFailure(
                f"exp(shift*x) overflows double precision at q={q}, x={at}; "
                "the contour route cannot reach this far into the tail"
            )
        v1 = _talbot_once(transform, xs, cells, _TALBOT_M, base)
        v2 = _talbot_once(transform, xs, cells, (3 * _TALBOT_M) // 4, base)
        if kind == "z":
            v1 = 1.0 + q * v1
            v2 = 1.0 + q * v2
        # the self-estimate below lets NaN through
        bad = ~np.isfinite(v1)
        if bad.any():
            raise _not_finite("contour", kind, q, xs[bad][0])
        size = np.abs(v1)
        est = np.abs(v1 - v2) / np.maximum(size, 1e-300)
        bad = (est > _TARGET) & (size > 1e-250)
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise InversionFailure(
                f"contour inversion self-estimate {est[i]:.2e} exceeds target "
                f"{_TARGET:.2e} at q={q}, x={xs[i]}"
            )
        return ScaleValue(v1.reshape(np.shape(x)), "contour", est.reshape(np.shape(x)))


def _residue_terms(num, den):
    """Partial fractions of num/den as (coefficient, pole, power) triples.

    Roots of den within 1e-8*(1 + |p|) of each other count as one pole.
    A simple pole contributes N(p)/D'(p).  The only repeated pole of these
    transforms is the double pole at 0 for q = 0 with zero mean; writing
    D = (s - p)^2 h with h(p) = D''(p)/2 and h'(p) = D'''(p)/6, it
    contributes N(p)/h(p) at power 2 and (N/h)'(p) at power 1.
    """
    d1 = np.polyder(den)
    d2 = np.polyder(d1)
    groups = []
    for root in np.roots(den):
        for group in groups:
            if abs(root - group[0]) <= 1e-8 * (1.0 + abs(root)):
                group.append(root)
                break
        else:
            groups.append([root])
    terms = []
    for group in groups:
        p = complex(np.mean(group))
        n = complex(np.polyval(num, p))
        if len(group) == 1:
            terms.append((n / complex(np.polyval(d1, p)), p, 1))
            continue
        if len(group) > 2:
            raise BadParameterError(f"transform has a pole of order {len(group)} at {p}")
        h = complex(np.polyval(d2, p)) / 2.0
        dh = complex(np.polyval(np.polyder(d2), p)) / 6.0
        dn = complex(np.polyval(np.polyder(num), p))
        terms.append(((dn * h - n * dh) / h**2, p, 1))
        terms.append((n / h, p, 2))
    return terms


# ---------------------------------------------------------------------------
# module-level checks built on an engine
# ---------------------------------------------------------------------------


def make_engine(model):
    return ScaleEngine(model)


def w_series_check(engine, q, x):
    """Evaluate W^(q)(x) through the resolvent identity of W = W^(0).

    W^(q)(x) = W(x) + q * integral_0^x W(x-y) W^(q)(y) dy holds for every
    q >= 0 and x > 0: it is the convolution series sum_k q^k W^{*(k+1)}(x)
    summed in closed form.  The integral is folded at x/2, so that both
    orders of the product share one integrand, and takes the graded map
    y = (x/2) s**k of ``_grade``; each rule round makes one array
    call of W and one of W^(q).  Returns the identity's value, the
    engine's own value for reference and their relative gap.
    """
    q = _check_arg("q", q, strict=False)
    x = _check_arg("x", x)
    half = 0.5 * x
    grade = _grade(engine.model)

    def folded(s):
        y = half * s**grade
        nodes = np.concatenate([y, x - y])
        w0, wq = engine.w(0.0, nodes), engine.w(q, nodes)
        n = s.size
        return (w0[n:] * wq[:n] + wq[n:] * w0[:n]) * (grade * y / s)

    total = engine.w(0.0, x) + q * integrate_finite(folded, 0.0, 1.0, rtol=1e-9, atol=1e-13)
    reference = engine.w(q, x)
    rel = (total - reference) / reference if reference != 0.0 else math.inf
    return SeriesCheck(value=total, reference=reference, rel_gap=rel)


def _grade(model):
    # W is not analytic at 0 (a series in y**(alpha-1) without a Gaussian
    # part), which bisection resolves only slowly, so quadratures over W
    # take the graded map y = y* s**k near 0: k >= 3 keeps y**(alpha-1) dy
    # twice differentiable in s, and at sigma2 = 0, k = 1/(alpha-1) makes
    # each term of the series a power of s
    if model.sigma2 == 0.0:
        return max(3.0, 1.0 / (model.jumps.alpha - 1.0))
    return 3.0


def _tail_grade(model):
    # without a decay rate the tail takes y = y* + (1 - r)/r, r = t**k.
    # An untempered stable u_q(-y) decays like y**(-1-alpha), which k = 1
    # leaves as t**(alpha-1) at t = 0 and bisection cuts only about
    # 2.8-fold a round; k = 2/alpha makes it linear in t.  The other
    # families decay exponentially, and k = 1 serves them
    if isinstance(model.jumps, StableJumps):
        return 2.0 / model.jumps.alpha
    return 1.0


def _integrate_on_w(model, f, decay, *, rtol, atol=1e-13):
    # integral over (0, inf) of an array integrand built on W that decays
    # like exp(-decay*y) (decay = 0: no known rate, and the tail takes the
    # power map of _tail_grade); the head up to y* = 5/max(decay, 1) takes
    # the graded map of _grade
    return integrate_graded(f, 5.0 / max(decay, 1.0), _grade(model), decay=decay,
                            tail_grade=_tail_grade(model), rtol=rtol, atol=atol)


def laplace_roundtrip(engine, q, lam):
    """Numerically transform W^(q) back and compare with 1/(psi(lam) - q)."""
    q = _check_arg("q", q, strict=False)
    phi_q = engine.model.phi(q)
    lam = _check_arg("lam", lam, phi_q)
    numeric = _integrate_on_w(
        engine.model, lambda y: np.exp(-lam * y) * engine.w(q, y), lam - phi_q, rtol=1e-10
    )
    exact = 1.0 / (engine.model.psi(lam) - q)
    return RoundTrip(numeric=numeric, exact=exact, rel_gap=(numeric - exact) / exact)
