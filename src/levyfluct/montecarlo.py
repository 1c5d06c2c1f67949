"""Path simulation cross-checks for the analytic layer.

After the small-jump truncation every family is a drift plus a Brownian
motion plus compound Poisson jumps.  The block sweeps behind the
estimators simulate such a process exactly and only where something
happens: at its jump epochs and at the horizon.  One rule,
``_first_crossing``, decides the crossings of the sweeps and of
``simulate_path``: between epochs by the Brownian-bridge crossing
probability, with the exact time from an inverse Gaussian draw (Metwally
& Atiya 2002), and a jump crossing at its epoch.  The estimators
therefore carry no time-discretisation bias; ``dt`` only sets the
automatic small-jump cutoff of infinite-activity families and the step
of the grid on which ``simulate_path`` records a path.  Every barrier
estimator is one ``_estimate`` call that folds its own score of each
swept path.

Survival and creeping close the paths still above 0 at the horizon T with
the analytic value S(X_T) or C(X_T); by the strong Markov property the
closed score has mean S(x) or C(x) for every T (conditional Monte Carlo,
Asmussen & Glynn 2007, ch. V), so T chooses the variance and how much
crossing mass is simulated, not a bias.  The Laplace estimators read
E[exp(-q tau)] as P(tau < e_q), the passage before an independent
exponential killing time: each path discounts deterministically up to
T0 = 5/q and is then killed at rate q, so it stops at min(horizon, T0 +
E/q), E ~ Exp(1), and a crossing scores exp(-q min(tau, T0)).  The mean
is exactly the discounted passage before the horizon, with no cap.

Randomness is counter-based (Philox).  ``simulate_path`` keys a stream
by (seed, streamIndex); the sweeps key one stream per block of paths
and fold block statistics in index order, so estimates are pure
functions of (model, config) regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadConfigError,
    BadParameterError,
    InsufficientCrossings,
    InversionFailure,
    WrongRegimeError,
    _check_arg,
)
from .model import LevyModel, NoJumps, Regime, StableJumps
from .scale import make_engine
from . import fluctuation

__all__ = [
    "MCConfig",
    "PathSample",
    "StoppingInfo",
    "Estimate",
    "simulate_path",
    "sample_terminal",
    "martingale_check",
    "estimate_upcross_laplace",
    "estimate_passage_below_laplace",
    "estimate_creeping",
    "estimate_survival",
]

_U64 = (1 << 64) - 1
# paths sharing one random stream
_BLOCK_PATHS = 16384
# (epoch, path) pairs drawn per sweep round; bounds the round's arrays
_ROUND_EVENTS = 1 << 16
_MIN_CROSSINGS = 10
# the Laplace estimators discount deterministically for this many units
# of 1/rate and then kill each path at rate `rate`, an exact stand-in for
# the discount (see _laplace); a crossing after the clock started would
# score at most exp(-5) = 6.7e-3, so killing it costs little variance
_DISCOUNT_CLOCK = 5.0
# survival and creeping close their survivors at this many units of
# 1/|psi'(0+)| by default: a variance choice, since the closure is exact
_CLOSURE_HORIZON = 5.0
# np.exp underflows to 0 below ln(2**-1075) = -745.13 and takes a slow
# path on the way; the bridge exponents below this floor skip it, which
# leaves the set of nonzero crossing probabilities unchanged
_EXP_FLOOR = -746.0
_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCConfig:
    """Simulation parameters.

    horizon None means "pick a default": 50/|psi'(0+)| for drifting
    models, 5/|psi'(0+)| in survival and creeping, which close their
    survivors there exactly, so that it only chooses the variance;
    oscillating models must be given one explicitly.  The Laplace
    estimators stop each path at min(horizon, (5 + E)/rate), with E ~
    Exp(1) its exponential killing clock, which keeps them exact.  dt is
    the step of the grid ``simulate_path`` records its values on; the
    estimators and the passages of ``simulate_path`` are exact in time
    and use dt only through the automatic small-jump cutoff.
    small_jump_cutoff None triggers that rule: normal-approximation
    skewness below 1e-2 where the Gaussian part allows it, and a tail
    rate of jumps above the cutoff at most 0.1/dt, each found by
    bisection on log(cutoff) in [1e-12, 1e3].
    """

    dt: float
    paths: int
    horizon: float | None = None
    seed: int = 0
    small_jump_cutoff: float | None = None
    small_jump_mode: str = "gaussian-compensation"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise BadConfigError(f"dt must be finite and > 0, got {self.dt}")
        for name in ("paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise BadConfigError(f"{name} must be an integer, got {value!r}")
        if self.paths < 1:
            raise BadConfigError(f"paths must be >= 1, got {self.paths}")
        if not 0 <= self.seed <= _U64:
            raise BadConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.horizon is not None:
            if not (math.isfinite(self.horizon) and self.horizon >= self.dt):
                raise BadConfigError(
                    f"horizon must be finite and >= dt, got {self.horizon}"
                )
        if self.small_jump_cutoff is not None and not (
            math.isfinite(self.small_jump_cutoff) and self.small_jump_cutoff > 0.0
        ):
            raise BadConfigError(
                f"small_jump_cutoff must be > 0, got {self.small_jump_cutoff}"
            )
        if self.small_jump_mode not in ("gaussian-compensation", "drift-only"):
            raise BadConfigError(
                "small_jump_mode must be 'gaussian-compensation' or "
                f"'drift-only', got {self.small_jump_mode!r}"
            )


@dataclass(frozen=True)
class StoppingInfo:
    """Exact first passage below ``level``, its time not rounded to the
    grid: a jump crossing has crossed_by_jump True and overshoot (the
    distance below the level just after it) > 0, a continuous one 0.0."""

    level: float
    time: float
    overshoot: float
    crossed_by_jump: bool


@dataclass(frozen=True)
class PathSample:
    """One simulated path, its values read on the regular grid.

    values[i+1] - values[i] is the Gaussian increment of step i plus the
    sizes of any jumps whose epoch fell inside that step; jump_indices
    holds the i+1 of each jump's step, jump_sizes the (negative) sizes,
    in time order.  stopping is the exact first-passage record when a
    level was watched and the path crossed it, else None.
    """

    times: np.ndarray
    values: np.ndarray
    jump_indices: np.ndarray
    jump_sizes: np.ndarray
    stopping: StoppingInfo | None


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error and the analytic target.

    truncation_allowance bounds the mass the finite horizon may have cut
    off; comparisons against the target should allow 3*stderr +
    truncation_allowance.  For the Laplace estimators it is
    (alive/n)*exp(-rate*H) at the horizon H: it bounds the discounted
    crossings at or after H, the only mass they leave out.  Survival and
    creeping close their survivors with the analytic value, which cuts
    off no mass, so theirs is exactly 0.0.  z_score is None when stderr
    is 0.
    """

    mean: float
    stderr: float
    n: int
    analytic_target: float | None = None
    z_score: float | None = None
    crossings: int | None = None
    truncation_allowance: float | None = None


# ---------------------------------------------------------------------------
# simulation plan: how one model is reduced to drift + noise + jump clocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    sigma: float
    drift: float
    rate: float
    kind: str  # "none" | "exp" | "power" | "tempered"
    cutoff: float
    jump_rate: float
    alpha: float
    tempering: float
    jump_sign: float = -1.0  # +1.0 in the mirrored (gap) process
    acceptance: float = 1.0  # of the tempered rejection sampler

    def sample_jumps(self, rng, k):
        # magnitudes of the (negative) jumps, all >= cutoff except the
        # finite-activity family which has no cutoff at all
        if k == 0:
            return np.empty(0)
        if self.kind == "exp":
            return rng.exponential(1.0 / self.jump_rate, size=k)
        if self.kind == "power":
            u = 1.0 - rng.random(k)
            return self.cutoff * u ** (-1.0 / self.alpha)
        # tempered power tail by rejection against the bare power tail.
        # one pass draws enough candidates for all k except at most about
        # once in a thousand calls; keeping the first accepted ones in
        # draw order is still exact, because which are kept depends only
        # on their count
        out = []
        need = k
        while need:
            m = int((need + 3.0 * math.sqrt(need) + 8.0) / self.acceptance)
            u = 1.0 - rng.random(m)
            cand = self.cutoff * u ** (-1.0 / self.alpha)
            # accept with probability exp(-tempering*(cand - cutoff)),
            # as a standard exponential above the exponent
            keep = rng.standard_exponential(m) > self.tempering * (cand - self.cutoff)
            out.append(cand[keep][:need])
            need -= out[-1].size
        return np.concatenate(out)


def _log_bisect(f, lo, hi):
    # a root of f on [lo, hi], where f changes sign, by bisection on log e
    # until the bracket is narrower than brentq's tolerance 1e-14 + 4 eps e
    a, b = math.log(lo), math.log(hi)
    below = f(lo) < 0.0
    while True:
        m = 0.5 * (a + b)
        e = math.exp(m)
        if math.exp(b) - math.exp(a) < 1e-14 + 4.0 * _EPS * e or not a < m < b:
            return e
        if (f(e) < 0.0) == below:
            a = m
        else:
            b = m


def _auto_cutoff(jumps, sigma2, dt):
    # two one-sided constraints: the normal approximation of discarded
    # jumps needs skewness below 1e-2 (cutoff small enough), while the
    # clock must not fire much more than 0.1 times per step (cutoff
    # large enough).  when they conflict, simulability wins.
    lo, hi = 1e-12, 1e3
    rate_lo, rate_hi = float(jumps.tail(lo)), float(jumps.tail(hi))
    if (rate_lo * dt - 0.1) * (rate_hi * dt - 0.1) > 0.0:
        raise BadConfigError(
            f"no automatic small-jump cutoff in [{lo:g}, {hi:g}] gives a jump "
            f"rate of 0.1/dt = {0.1 / dt:g}: the tail rate is {rate_lo:.3g} "
            f"at {lo:g} and {rate_hi:.3g} at {hi:g}; set small_jump_cutoff"
        )
    eps_rate = _log_bisect(lambda e: float(jumps.tail(e)) * dt - 0.1, lo, hi)
    if sigma2 > 0.0:
        budget = 0.0464 / (1.0 - 0.0464) * sigma2
        if float(jumps.truncated_variance(hi)) <= budget:
            eps_skew = hi
        elif float(jumps.truncated_variance(lo)) >= budget:
            eps_skew = lo
        else:
            eps_skew = _log_bisect(
                lambda e: float(jumps.truncated_variance(e)) - budget, lo, hi
            )
        return max(eps_rate, min(eps_skew, 1.0))
    return eps_rate


def _plan(model, config):
    jumps = model.jumps
    if isinstance(jumps, NoJumps):
        return _Plan(math.sqrt(model.sigma2), model.gamma, 0.0, "none",
                     0.0, 0.0, 0.0, 0.0)
    if jumps.finite_activity:
        # uncompensated family: gamma is already the true drift and all
        # jumps are simulated exactly, so there is nothing to fold back
        return _Plan(math.sqrt(model.sigma2), model.gamma, jumps.rate, "exp",
                     0.0, jumps.jump_rate, 0.0, 0.0)
    eps = config.small_jump_cutoff
    if eps is None:
        eps = _auto_cutoff(jumps, model.sigma2, config.dt)
    rate = float(jumps.tail(eps))
    # jumps >= eps carry mean truncated_mean(eps); the rest of psi'(0+)
    # goes into the drift so the simulated mean matches the model's
    drift = model.mean - float(jumps.truncated_mean(eps))
    var = model.sigma2
    if config.small_jump_mode == "gaussian-compensation":
        var = var + float(jumps.truncated_variance(eps))
    if jumps.family != "tempered_stable":
        return _Plan(math.sqrt(var), drift, rate, "power",
                     eps, 0.0, jumps.alpha, 0.0)
    # acceptance of the rejection sampler: the mean of
    # exp(-theta*(Y - eps)) under the bare power tail, i.e. the tempered
    # tail over the bare one at eps, times exp(theta*eps)
    theta = jumps.tempering
    bare = float(StableJumps(jumps.alpha, jumps.scale).tail(eps))
    acceptance = math.exp(theta * eps + math.log(rate / bare)) if rate > 0.0 else 1.0
    return _Plan(math.sqrt(var), drift, rate, "tempered",
                 eps, 0.0, jumps.alpha, theta, acceptance=acceptance)


def _resolve_horizon(model, config, units=50.0):
    if config.horizon is not None:
        return float(config.horizon)
    mean = model.mean
    if mean == 0.0:
        raise BadConfigError(
            "oscillating models have no default horizon; set one explicitly"
        )
    return units / abs(mean)


def _philox(seed, stream):
    key = (int(seed) << 64) | (int(stream) & _U64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(config):
    # (stream index, size) of each block of paths
    for index, first in enumerate(range(0, config.paths, _BLOCK_PATHS)):
        yield index, min(_BLOCK_PATHS, config.paths - first)


# ---------------------------------------------------------------------------
# the exact crossing rule, shared by simulate_path and the block sweep
# ---------------------------------------------------------------------------


def _first_crossing(rng, sig2, x0, post, pre, epochs, span, is_jump):
    """First crossing below 0 in each column of (epoch, path) arrays.

    Column j starts at x0[j] > 0.  Row i is a span of length span[i, j]
    ending at epochs[i, j], where the path stands at pre[i, j] before a
    jump and at post[i, j] after it (is_jump marks the epochs with one);
    no span has a jump inside it.  A span from a > 0 whose Gaussian part
    ends at b crosses surely when b <= 0, else with the Brownian-bridge
    probability exp(-2ab/(sigma^2 d)); given that, it crosses at d*Y/(1+Y)
    into the span, Y ~ IG(a/|b|, a^2/(sigma^2 d)) (Metwally & Atiya 2002),
    or at a/(a - b) of it when sigma = 0 and the span is linear.  A jump
    that lands below 0 crosses at its epoch.  Only a column's first event
    counts; the uniforms drawn for its later spans leave that law as is.

    Returns (hit, tau, overshoot, by_jump): hit marks the columns that
    cross, and the other three hold, for those columns in order, the
    crossing time, the distance below 0 just after it (0 for a continuous
    crossing) and whether a jump made it.
    """

    cont = pre <= 0.0
    if sig2 > 0.0:
        # bridge exponent -2 a b / (sigma^2 d), built in one buffer
        expo = np.empty(post.shape)
        expo[0] = x0
        expo[1:] = post[:-1]
        expo *= pre
        expo *= -2.0 / sig2
        with np.errstate(divide="ignore", invalid="ignore"):
            expo /= span
        p = np.zeros(post.shape)
        with np.errstate(over="ignore"):
            np.exp(expo, out=p, where=expo > _EXP_FLOOR)
        # where p is 0 no uniform can fall below it
        live = p > 0.0
        cont[live] |= rng.random(int(live.sum())) < p[live]
    jump = is_jump & (post < 0.0) & ~cont
    event = cont | jump
    hit = event.any(axis=0)

    cols = np.nonzero(hit)[0]
    row = np.argmax(event[:, cols], axis=0)
    by_jump = jump[row, cols]
    overshoot = np.where(by_jump, -post[row, cols], 0.0)
    tau = epochs[row, cols]
    c_row, c_col = row[~by_jump], cols[~by_jump]
    if c_col.size:
        a = np.where(c_row > 0, post[c_row - 1, c_col], x0[c_col])
        b = pre[c_row, c_col]
        d = span[c_row, c_col]
        if sig2 > 0.0:
            y = rng.wald(a / np.abs(b), a * a / (sig2 * d))
            frac = y / (1.0 + y)
        else:
            frac = a / (a - b)
        tau[~by_jump] = epochs[c_row, c_col] - d + d * frac
    return hit, tau, overshoot, by_jump


# ---------------------------------------------------------------------------
# single-path simulation on one event grid (bitwise deterministic per stream)
# ---------------------------------------------------------------------------


def simulate_path(model, config, stream_index, level=None):
    """Simulate one path from 0 on the grid of step ``config.dt``.

    Deterministic given (config.seed, stream_index).  The jump epochs are
    a Poisson count of sorted uniform times; they and the grid times form
    one event grid, and each span between events gets one exact Gaussian
    increment, so the grid values are exact.  When ``level`` is given (a
    finite value below 0), the first passage below it is exact: the path,
    measured as its distance above the level, goes through the estimators'
    own rule, ``_first_crossing``, as one column.
    """

    if not isinstance(model, LevyModel):
        raise BadParameterError("simulate_path needs a LevyModel")
    level = None if level is None else float(level)
    if level is not None and not (math.isfinite(level) and level < 0.0):
        raise BadParameterError(f"watched level must be finite and below 0, got {level}")
    horizon = _resolve_horizon(model, config)
    plan = _plan(model, config)
    rng = _philox(config.seed, stream_index)
    n = int(round(horizon / config.dt))
    times = np.arange(n + 1) * config.dt
    if plan.rate > 0.0:
        count = rng.poisson(plan.rate * times[-1])
        jump_times = np.sort(rng.random(count)) * times[-1]
        sizes = -plan.sample_jumps(rng, count)
    else:
        jump_times = sizes = np.empty(0)

    # the grid times and jump epochs in time order; a stable sort keeps the
    # jumps, which come last, in their own order
    epochs = np.concatenate([times[1:], jump_times])
    order = np.argsort(epochs, kind="stable")
    epochs = epochs[order]
    is_jump = order >= n
    jumps = np.zeros(epochs.size)
    jumps[is_jump] = sizes
    span = np.diff(epochs, prepend=0.0)
    post = plan.drift * span
    if plan.sigma > 0.0:
        post += plan.sigma * np.sqrt(span) * rng.standard_normal(epochs.size)
    post += jumps
    np.cumsum(post, out=post)
    pre = post - jumps

    stopping = None
    if level is not None:
        hit, tau, overshoot, by_jump = _first_crossing(
            rng, plan.sigma * plan.sigma, np.array([-level]), (post - level)[:, None],
            (pre - level)[:, None], epochs[:, None], span[:, None], is_jump[:, None],
        )
        if hit[0]:
            stopping = StoppingInfo(level=level, time=float(tau[0]),
                                    overshoot=float(overshoot[0]),
                                    crossed_by_jump=bool(by_jump[0]))

    return PathSample(
        times=times,
        values=np.concatenate([[0.0], post[~is_jump]]),
        jump_indices=np.searchsorted(times, jump_times, side="right"),
        jump_sizes=sizes,
        stopping=stopping,
    )


# ---------------------------------------------------------------------------
# block sweep: first passage below 0 from a positive start
# ---------------------------------------------------------------------------


def _running_sum(a, first, out):
    # out[i] = first + a[0] + ... + a[i] down axis 0 (out may be a): one
    # vector add per row is several times faster than np.cumsum's strided
    # loop on (k, r) arrays
    np.add(a[0], first, out=out[0])
    for i in range(1, a.shape[0]):
        np.add(out[i - 1], a[i], out=out[i])
    return out


def _sweep_block(plan, rng, m, start, horizon):
    """Run one block of paths from ``start`` > 0 until they cross below 0.

    ``horizon`` is a scalar or one stopping time per path.  Exact for
    drift plus Brownian motion plus compound Poisson jumps: a path is
    only simulated at its jump epochs and at its horizon, and each round
    of such spans goes through ``_first_crossing``.

    Each round draws enough epochs to take a path with the mean remaining
    time of the live paths to its horizon, and at most ``_ROUND_EVENTS``
    over all paths (one per path when the block is larger), so memory
    stays bounded whatever the jump rate; the paths left short go on in
    the next round.

    Returns (crossed, tau, overshoot, by_jump, x_final): overshoot is the
    distance below 0 just after the crossing (0 for a continuous one) and
    x_final the position at its horizon of a path that never crossed.
    """

    sig2 = plan.sigma * plan.sigma
    stop = np.broadcast_to(np.asarray(horizon, dtype=float), (m,))
    t = np.zeros(m)
    x = np.full(m, float(start))
    crossed = np.zeros(m, dtype=bool)
    tau = np.zeros(m)
    over = np.zeros(m)
    byjump = np.zeros(m, dtype=bool)
    alive = np.arange(m)
    while alive.size:
        # arrays are (epoch, path)
        r = alive.size
        t0 = t[alive]
        x0 = x[alive]
        h0 = stop[alive]
        if plan.rate > 0.0:
            # enough epochs to take the mean path to its horizon with one
            # standard deviation to spare, within budget: sizing for the
            # slowest path pads all the others with zero-length rows
            lam = plan.rate * float((h0 - t0).mean())
            k = max(1, min(_ROUND_EVENTS // r, int(lam + math.sqrt(lam)) + 1))
            span = rng.exponential(1.0 / plan.rate, size=(k, r))
            epochs = _running_sum(span, t0, np.empty((k, r)))
            # the first epoch past a path's horizon becomes the horizon
            # itself and later rows are zero-length padding, which cannot
            # cross; only those rows' spans differ from the gaps.  epochs
            # grow down axis 0, so no path reached its horizon when the
            # last row is all jumps
            is_jump = epochs < h0
            clipped = not is_jump[-1].all()
            if clipped:
                np.minimum(epochs, h0, out=epochs)
                # flat indices: a 2-D np.nonzero is several times slower
                flat = np.flatnonzero(~is_jump)
                up = flat - r
                flat_epochs = epochs.ravel()
                before = np.where(up >= 0, flat_epochs[up], t0[flat % r])
                span.ravel()[flat] = flat_epochs[flat] - before
        else:
            k = 1
            epochs = h0[None, :]
            is_jump = np.zeros((1, r), dtype=bool)
            span = (h0 - t0)[None, :]
        post = plan.drift * span
        if sig2 > 0.0:
            noise = np.sqrt(span)
            noise *= plan.sigma
            noise *= rng.standard_normal((k, r))
            post += noise
        if plan.rate > 0.0:
            if clipped:
                jumps = np.zeros((k, r))
                jumps[is_jump] = plan.sample_jumps(rng, int(is_jump.sum()))
            else:
                jumps = plan.sample_jumps(rng, k * r).reshape(k, r)
            jumps *= plan.jump_sign
            post += jumps
            _running_sum(post, x0, post)
            pre = np.subtract(post, jumps, out=jumps)
        else:
            post += x0
            pre = post

        hit, when, under, by = _first_crossing(rng, sig2, x0, post, pre, epochs, span, is_jump)
        ids = alive[hit]
        crossed[ids] = True
        tau[ids] = when
        over[ids] = under
        byjump[ids] = by

        rest = np.nonzero(~hit)[0]
        x[alive[rest]] = post[-1, rest]
        t[alive[rest]] = epochs[-1, rest]
        alive = alive[rest[is_jump[-1, rest]]]

    return crossed, tau, over, byjump, x


def _fold(n, mean, m2, arr):
    # streaming (n, mean, M2) with the values of arr folded in after the rest
    k = arr.size
    if k == 0:
        return n, mean, m2
    bm = float(arr.mean())
    bv = float(((arr - bm) ** 2).sum())
    if n == 0:
        return k, bm, bv
    d = bm - mean
    tot = n + k
    return tot, mean + d * k / tot, m2 + (bv + d * d * n * k / tot)


def _finish(n, mean, m2, target, crossings=None, allowance=None):
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    # a zero spread leaves z undefined, whether or not the mean hits
    z = (mean - target) / stderr if target is not None and stderr > 0.0 else None
    return Estimate(
        mean=float(mean),
        stderr=float(stderr),
        n=int(n),
        analytic_target=None if target is None else float(target),
        z_score=None if z is None else float(z),
        crossings=crossings,
        truncation_allowance=allowance,
    )


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _estimate(plan, config, start, horizon, score, kill=None):
    # _sweep_block on each block of paths, each on its own stream, folded
    # in block order as score(crossed, tau, overshoot, by_jump, x_final),
    # one value per path.  with a killing rate, each path also stops at
    # its discount clock (_DISCOUNT_CLOCK + E)/kill, E ~ Exp(1) drawn
    # first from the block's stream.  returns (n, mean, m2, crossings)
    n, mean, m2, crossings = 0, 0.0, 0.0, 0
    for index, size in _blocks(config):
        rng = _philox(config.seed, index)
        stop = horizon
        if kill is not None:
            clock = (_DISCOUNT_CLOCK + rng.standard_exponential(size)) / kill
            stop = np.minimum(horizon, clock)
        sweep = _sweep_block(plan, rng, size, start, stop)
        crossings += int(sweep[0].sum())
        n, mean, m2 = _fold(n, mean, m2, score(*sweep))
    return n, mean, m2, crossings


def _laplace(model, config, plan, start, rate, target, what):
    # mean of exp(-rate * first passage tau below 0) from start, up to the
    # horizon H: each path stops at min(H, T0 + E/rate), T0 =
    # _DISCOUNT_CLOCK/rate, and a crossing scores exp(-rate * min(tau,
    # T0)).  given tau in (T0, H) the clock has not fired with
    # probability exp(-rate (tau - T0)), so the score's mean is exactly
    # E[exp(-rate tau); tau < H].  target() gives the analytic value and
    # ``what`` completes the InsufficientCrossings message
    horizon = _resolve_horizon(model, config)
    t0 = _DISCOUNT_CLOCK / rate

    def score(crossed, tau, overshoot, by_jump, x_final):
        return np.where(crossed, np.exp(-rate * np.minimum(tau, t0)), 0.0)

    n, mean, m2, crossings = _estimate(plan, config, start, horizon, score, rate)
    if crossings < _MIN_CROSSINGS:
        # before T0 no clock can fire, so below it H alone stops the paths
        clock = "" if horizon <= t0 else f"their discount clocks {t0} + Exp(1)/{rate} or "
        raise InsufficientCrossings(
            f"only {crossings} of {n} paths {what} before {clock}t={horizon}"
        )
    # the mass of crossings at or after H, exp(-rate tau) <= exp(-rate H)
    # each, bounded by the share of paths that had not crossed
    allowance = ((n - crossings) / n) * math.exp(-rate * horizon)
    return _finish(n, mean, m2, target(), crossings, allowance)


def estimate_upcross_laplace(model, config, a, q):
    """Mean of exp(-q * first passage time above a), against exp(-a*phi(q)).

    Upward crossings are continuous (no positive jumps), so the sweep
    runs on the reflected gap a - X, whose jumps point away from the
    barrier.  Each path runs to min(horizon, (5 + E)/q), its exponential
    killing clock, and a crossing at tau scores exp(-q min(tau, 5/q)):
    exact, with no cap on the discounted time.
    """

    a = _check_arg("a", a)
    q = _check_arg("q", q)
    plan = _plan(model, config)
    # gap process a - X: drift flips and the (negative) jumps point up,
    # away from the barrier, so crossing by a jump cannot happen; the
    # gap's crossing of 0 is the upcross of a
    mirror = replace(plan, drift=-plan.drift, jump_sign=1.0)
    return _laplace(model, config, mirror, a, q,
                    lambda: math.exp(-a * model.phi(q)), f"reached {a}")


def estimate_passage_below_laplace(model, config, x, beta):
    """Mean of exp(-beta * first passage time below 0) started from x.

    Each path runs to min(horizon, (5 + E)/beta), its exponential killing
    clock, and a crossing at tau scores exp(-beta min(tau, 5/beta)):
    exact, with no cap on the discounted time.
    """

    x = _check_arg("x", x)
    beta = _check_arg("beta", beta)
    plan = _plan(model, config)
    return _laplace(
        model, config, plan, x, beta,
        lambda: fluctuation.passage_below_laplace(make_engine(model), beta, x),
        "crossed 0",
    )


def estimate_creeping(model, config, x):
    """Probability of crossing 0 continuously, against Kesten's form C(x).

    The sweep gives each crossing exactly, so a crossing creeps when no
    jump made it; without a Gaussian part (sigma = 0 after the small-jump
    treatment) none does.  A path still above 0 at the horizon scores
    C(X_T), which cuts off nothing: truncation_allowance is 0.0.
    """

    x = _check_arg("x", x)
    plan = _plan(model, config)
    engine = make_engine(model)
    creeps = float(plan.sigma > 0.0)

    def score(crossed, tau, overshoot, by_jump, x_final):
        out = np.where(by_jump, 0.0, creeps)
        v = x_final[~crossed]
        try:
            out[~crossed] = fluctuation.creeping_probability(engine, v)
        except InversionFailure as err:
            raise InversionFailure(
                f"creeping closure at survivor positions X_T in [{v.min():.4g}, "
                f"{v.max():.4g}]: W'^(0) decays in the tail of a model drifting "
                f"to +infinity, below what the contour resolves ({err})"
            ) from err
        return out

    horizon = _resolve_horizon(model, config, _CLOSURE_HORIZON)
    n, mean, m2, crossings = _estimate(plan, config, x, horizon, score)
    target = fluctuation.creeping_probability(engine, x)
    return _finish(n, mean, m2, target, crossings, 0.0)


def estimate_survival(model, config, x):
    """Probability of never going below 0, against psi'(0+) W(x).

    A path still above 0 at the horizon scores psi'(0+) W(X_T), which
    cuts off nothing: truncation_allowance is 0.0.
    """

    x = _check_arg("x", x)
    if model.drift_regime().kind is not Regime.TO_PLUS_INFINITY:
        raise WrongRegimeError(
            "survival is degenerate unless the process drifts to +infinity"
        )
    plan = _plan(model, config)
    engine = make_engine(model)

    def score(crossed, tau, overshoot, by_jump, x_final):
        out = np.zeros(crossed.size)
        out[~crossed] = fluctuation.survival_probability(engine, x_final[~crossed])
        return out

    horizon = _resolve_horizon(model, config, _CLOSURE_HORIZON)
    n, mean, m2, _ = _estimate(plan, config, x, horizon, score)
    target = fluctuation.survival_probability(engine, x)
    return _finish(n, mean, m2, target, None, 0.0)


# ---------------------------------------------------------------------------
# unconstrained terminal values: moment and martingale checks
# ---------------------------------------------------------------------------


def sample_terminal(model, config):
    """Terminal values X_horizon for all paths, no barrier logic.

    Exact in the Gaussian part (one draw over the horizon) with the jumps
    of a Poisson count added, so the only approximation is the small-jump
    treatment itself.
    """

    horizon = _resolve_horizon(model, config)
    plan = _plan(model, config)
    out = []
    for index, size in _blocks(config):
        rng = _philox(config.seed, index)
        x = np.full(size, plan.drift * horizon)
        if plan.sigma > 0.0:
            x += plan.sigma * math.sqrt(horizon) * rng.standard_normal(size)
        if plan.rate > 0.0:
            counts = rng.poisson(plan.rate * horizon, size=size)
            total = int(counts.sum())
            sizes = plan.sample_jumps(rng, total)
            owner = np.repeat(np.arange(size), counts)
            np.subtract.at(x, owner, sizes)
        out.append(x)
    return np.concatenate(out)


def martingale_check(model, config, lam):
    """Sample mean of exp(lam*X_t - psi(lam)*t) at t=horizon, target 1.

    Use a short horizon; the statistic's variance grows like
    exp((psi(2 lam) - 2 psi(lam)) t).
    """

    lam = _check_arg("lam", lam)
    horizon = _resolve_horizon(model, config)
    values = sample_terminal(model, config)
    w = np.exp(lam * values - float(model.psi(lam)) * horizon)
    n, mean, m2 = _fold(0, 0.0, 0.0, w)
    return _finish(n, mean, m2, 1.0)
