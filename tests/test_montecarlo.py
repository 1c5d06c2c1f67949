import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from levyfluct import (
    BadConfigError,
    BadParameterError,
    Estimate,
    ExpJumps,
    InsufficientCrossings,
    InversionFailure,
    LevyModel,
    MCConfig,
    StableJumps,
    TemperedStableJumps,
    WrongRegimeError,
    estimate_creeping,
    estimate_passage_below_laplace,
    estimate_survival,
    estimate_upcross_laplace,
    fluctuation,
    make_engine,
    martingale_check,
    sample_terminal,
    simulate_path,
)
from levyfluct.montecarlo import _Workspace
from conftest import bm, model_b, stable_sn


SMALL = MCConfig(dt=1e-3, paths=20000, seed=11)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_rejects_bad_fields():
    with pytest.raises(BadConfigError):
        MCConfig(dt=0.0, paths=100)
    with pytest.raises(BadConfigError):
        MCConfig(dt=1e-3, paths=0)
    with pytest.raises(BadConfigError):
        MCConfig(dt=1e-3, paths=100, small_jump_mode="ignore")
    with pytest.raises(BadConfigError):
        MCConfig(dt=1e-3, paths=100, horizon=-1.0)
    # paths and seed must be integers, not floats or bools
    for fields in ({"paths": 2.5}, {"paths": True}, {"paths": 100, "seed": 1.5},
                   {"paths": 100, "seed": False}):
        with pytest.raises(BadConfigError, match="must be an integer"):
            MCConfig(dt=0.05, **fields)


@pytest.mark.parametrize("seed", [-1, 2**64 + 5])
def test_config_rejects_seed_outside_philox_key(seed):
    # a seed outside [0, 2**64) is refused, not folded into that range
    with pytest.raises(BadConfigError, match="seed"):
        MCConfig(dt=1e-3, paths=100, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_config_accepts_seed_at_philox_key_ends(seed):
    cfg = MCConfig(dt=1e-2, paths=50, seed=seed)
    est = estimate_survival(bm(1.0), cfg, 1.0)
    assert est.n == 50


def test_oscillating_model_needs_explicit_horizon():
    with pytest.raises(BadConfigError, match="horizon"):
        estimate_passage_below_laplace(bm(), SMALL, 1.0, 2.0)


def test_survival_needs_upward_drift():
    cfg = MCConfig(dt=1e-3, paths=1000, horizon=5.0, seed=1)
    for model in (bm(), bm(-1.0)):  # oscillating, and drifting to -inf
        with pytest.raises(WrongRegimeError):
            estimate_survival(model, cfg, 1.0)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_bitwise_identical():
    cfg = MCConfig(dt=1e-3, paths=4000, horizon=6.0, seed=42)
    a = estimate_passage_below_laplace(bm(1.0), cfg, 1.0, 2.0)
    b = estimate_passage_below_laplace(bm(1.0), cfg, 1.0, 2.0)
    assert (a.mean, a.stderr, a.n) == (b.mean, b.stderr, b.n)


def test_different_seed_differs():
    kw = dict(dt=1e-3, paths=4000, horizon=6.0)
    a = estimate_passage_below_laplace(bm(1.0), MCConfig(seed=1, **kw), 1.0, 2.0)
    b = estimate_passage_below_laplace(bm(1.0), MCConfig(seed=2, **kw), 1.0, 2.0)
    assert a.mean != b.mean


def test_path_reproducible_by_stream():
    cfg = MCConfig(dt=1e-3, paths=1, horizon=2.0, seed=7)
    p1 = simulate_path(model_b(), cfg, stream_index=5)
    p2 = simulate_path(model_b(), cfg, stream_index=5)
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(p1.jump_sizes, p2.jump_sizes)
    p3 = simulate_path(model_b(), cfg, stream_index=6)
    assert not np.array_equal(p1.values, p3.values)


@pytest.mark.parametrize("index", [-1, 2**64, 2**64 + 5, 1.5, 1.0, True, np.float64(2.0)])
def test_path_rejects_stream_index_outside_the_keys(index):
    # -1 would alias 2**64 - 1, 2**64 + 5 would alias 5 and 1.5 would alias 1
    cfg = MCConfig(dt=1e-2, paths=1, horizon=1.0, seed=7)
    with pytest.raises(BadParameterError, match="stream_index"):
        simulate_path(model_b(), cfg, index)


@pytest.mark.parametrize("index", [0, 2**64 - 1, np.uint64(2**64 - 1)])
def test_path_accepts_stream_index_at_the_key_ends(index):
    cfg = MCConfig(dt=1e-2, paths=1, horizon=1.0, seed=7)
    assert simulate_path(model_b(), cfg, index).values.size == 101


def test_streams_are_distinct_and_repeat_bitwise():
    from levyfluct.montecarlo import _stream

    keys = [(s, b) for s in (0, 1, 2**64 - 1) for b in (0, 1, 2)]
    first = {key: _stream(*key).random(4) for key in keys}
    for key in keys:
        assert np.array_equal(_stream(*key).random(4), first[key])
    draws = {float(v[0]) for v in first.values()}
    assert len(draws) == len(keys)


def test_stream_uniforms_lie_on_the_grain():
    # the premise of _EXP_FLOOR: every uniform is a multiple of 2**-53
    from levyfluct.montecarlo import _stream

    u = _stream(3, 1).random(4096) * 2.0**53
    assert np.array_equal(u, np.floor(u))


# ---------------------------------------------------------------------------
# path structure
# ---------------------------------------------------------------------------


def test_path_grid_and_jump_marks():
    cfg = MCConfig(dt=1e-2, paths=1, horizon=3.0, seed=3)
    p = simulate_path(model_b(), cfg, stream_index=0)
    assert p.times[0] == 0.0
    assert p.values[0] == 0.0
    assert p.times.size == p.values.size == 301
    assert np.all(np.diff(p.times) > 0)
    assert p.jump_indices.size == p.jump_sizes.size
    assert np.all(p.jump_sizes < 0)          # spectrally negative
    assert np.all(p.jump_indices >= 1)
    assert np.all(p.jump_indices <= 300)


def test_path_watches_level():
    cfg = MCConfig(dt=1e-3, paths=1, horizon=40.0, seed=9)
    p = simulate_path(bm(-1.0), cfg, stream_index=2, level=-1.0)
    s = p.stopping
    assert s is not None and s.level == -1.0
    assert 0.0 < s.time <= 40.0
    assert not s.crossed_by_jump            # continuous paths never jump across
    assert s.overshoot == 0.0


def test_path_level_must_be_negative():
    cfg = MCConfig(dt=1e-3, paths=1, horizon=1.0, seed=0)
    with pytest.raises(BadParameterError):
        simulate_path(bm(), cfg, 0, level=0.5)
    for level in (math.nan, -math.inf):
        with pytest.raises(BadParameterError):
            simulate_path(bm(), cfg, 0, level=level)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_path_passage_is_exact_on_a_coarse_grid(seed):
    # BM with drift 0.5 crossing -1: E exp(-tau) = exp(-(mu + sqrt(mu^2 +
    # 2q))) at q = 1.  dt = 0.5 is coarse, so rounding the crossing up to
    # the grid would miss the closed form by many standard errors
    mu, cfg = 0.5, MCConfig(dt=0.5, paths=1, seed=seed)
    scores = []
    for stream in range(4000):
        s = simulate_path(bm(mu), cfg, stream, level=-1.0).stopping
        scores.append(0.0 if s is None else math.exp(-s.time))
    scores = np.array(scores)
    target = math.exp(-(mu + math.sqrt(mu * mu + 2.0)))
    z = (scores.mean() - target) / (scores.std(ddof=1) / math.sqrt(scores.size))
    assert abs(z) <= 4.0


def test_path_creeps_and_jumps_as_the_model_says():
    # model_b from 1 down to 0, seen as 0 down to -1: the share of paths
    # that crossed without a jump is the creeping probability C(1)
    cfg = MCConfig(dt=0.5, paths=1, seed=4)
    stops = [simulate_path(model_b(), cfg, k, level=-1.0).stopping for k in range(4000)]
    crept = sum(s is not None and not s.crossed_by_jump for s in stops) / len(stops)
    c = float(fluctuation.creeping_probability(make_engine(model_b()), 1.0))
    assert abs(crept - c) <= 4.0 * math.sqrt(c * (1.0 - c) / len(stops))
    assert all(s.crossed_by_jump == (s.overshoot > 0.0) for s in stops if s is not None)


# ---------------------------------------------------------------------------
# terminal law
# ---------------------------------------------------------------------------


def test_terminal_brownian_is_gaussian():
    cfg = MCConfig(dt=1e-2, paths=4000, horizon=1.0, seed=13)
    x = sample_terminal(bm(), cfg)
    assert x.shape == (4000,)
    _, p = stats.kstest(x, "norm")
    assert p > 0.01


def test_terminal_mean_matches_drift():
    cfg = MCConfig(dt=1e-2, paths=20000, horizon=50.0, seed=17)
    x = sample_terminal(model_b(), cfg)
    # E X_h = mean * h = 50; sd = sqrt(psi''(0) h)
    sd = math.sqrt(model_b().psi_second(0.0) * 50.0)
    assert abs(float(np.mean(x)) - 50.0) <= 3.5 * sd / math.sqrt(20000)


# ---------------------------------------------------------------------------
# estimators against closed targets
# ---------------------------------------------------------------------------


def within_target(est: Estimate, extra=0.0):
    assert est.analytic_target is not None
    slack = 3.0 * est.stderr + (est.truncation_allowance or 0.0) + extra
    return abs(est.mean - est.analytic_target) <= slack


def test_upcross_brownian_with_drift():
    est = estimate_upcross_laplace(bm(1.0), SMALL, 1.0, 2.0)
    assert est.analytic_target == pytest.approx(math.exp(1.0 - math.sqrt(5.0)), rel=1e-12)
    assert within_target(est, extra=2.0 * SMALL.dt)


def test_passage_below_mixed_model():
    est = estimate_passage_below_laplace(model_b(), SMALL, 1.0, 2.5)
    assert est.analytic_target == pytest.approx(0.16427650101432517, rel=1e-9)
    assert within_target(est, extra=2.5 * SMALL.dt)


def test_creeping_mixed_model():
    est = estimate_creeping(model_b(), SMALL, 1.0)
    assert est.analytic_target == pytest.approx(0.2414277239783102, rel=1e-9)
    assert within_target(est, extra=2.5 * SMALL.dt)


def test_creeping_pure_jump_is_exactly_zero():
    cfg = MCConfig(dt=1e-3, paths=2000, horizon=8.0, seed=5,
                   small_jump_mode="drift-only")
    est = estimate_creeping(stable_sn(), cfg, 1.0)
    assert est.mean == 0.0
    assert est.analytic_target == 0.0


def test_survival_mixed_model():
    est = estimate_survival(model_b(), SMALL, 2.0)
    assert est.analytic_target == pytest.approx(0.6614506775956487, rel=1e-9)
    assert within_target(est)


def test_insufficient_crossings_raises():
    cfg = MCConfig(dt=1e-3, paths=50, horizon=0.01, seed=2)
    with pytest.raises(InsufficientCrossings):
        estimate_upcross_laplace(bm(1.0), cfg, 30.0, 1.0)


# ---------------------------------------------------------------------------
# no discretization bias
# ---------------------------------------------------------------------------


def test_bias_shrinks_with_step():
    # the sweep is exact in time: for a finite-activity model dt enters
    # nothing, so a 4x coarser step gives the same estimate, and that
    # estimate meets its target with no q*dt allowance
    m = model_b()
    a, q = 0.02, 2.5
    coarse = estimate_upcross_laplace(m, MCConfig(dt=4e-3, paths=20000, seed=23), a, q)
    fine = estimate_upcross_laplace(m, MCConfig(dt=1e-3, paths=20000, seed=23), a, q)
    assert (coarse.mean, coarse.stderr) == (fine.mean, fine.stderr)
    assert within_target(coarse)


# ---------------------------------------------------------------------------
# martingale and z-score calibration
# ---------------------------------------------------------------------------


def test_martingale_short_horizon():
    cfg = MCConfig(dt=1e-3, paths=20000, horizon=1.0, seed=29)
    for m in (bm(), model_b()):
        for lam in (0.5, 1.0):
            est = martingale_check(m, cfg, lam)
            assert est.analytic_target == 1.0
            assert abs(est.z_score) <= 3.0


def test_zscores_unbiased_over_seeds():
    # twenty independent runs of a fast estimator: the mean z-score has
    # sd 1/sqrt(20), so a unit bound is a ~4.5 sigma test
    m = bm(1.0)
    zs = []
    for seed in range(20):
        cfg = MCConfig(dt=1e-3, paths=5000, seed=seed)
        est = estimate_upcross_laplace(m, cfg, 1.0, 2.0)
        zs.append((est.mean - est.analytic_target) / est.stderr)
    assert abs(float(np.mean(zs))) <= 1.0


def test_zero_spread_leaves_z_undefined():
    # one path: the mean misses the target but the standard error is
    # zero, so no z-score can be given
    est = estimate_survival(bm(1.0), MCConfig(dt=1e-3, paths=1, seed=1), 1.0)
    assert est.stderr == 0.0
    assert est.analytic_target == pytest.approx(0.8646647167633873)
    assert est.mean != est.analytic_target
    assert est.z_score is None


def test_sweeps_cover_every_path_in_block_order():
    # one sweep per block, sizes summing to config.paths, each block the
    # same as a sweep run alone on that block's stream
    from levyfluct.montecarlo import _BLOCK_PATHS, _estimate, _plan, _stream, _sweep_block

    m = model_b()
    cfg = MCConfig(dt=2e-3, paths=_BLOCK_PATHS + 7, horizon=1.0, seed=4)
    plan = _plan(m, cfg)
    blocks = []

    def score(*sweep):
        blocks.append(sweep)
        return sweep[0].astype(float)

    n, _, _, crossings = _estimate(plan, cfg, 1.0, 1.0, score)
    assert [b[0].size for b in blocks] == [_BLOCK_PATHS, 7]
    assert n == cfg.paths and crossings == sum(int(b[0].sum()) for b in blocks)
    alone = _sweep_block(plan, _stream(cfg.seed, 1), 7, 1.0, 1.0)
    for got, want in zip(blocks[1], alone):
        np.testing.assert_array_equal(got, want)


def test_first_crossing_on_linear_spans():
    # sigma = 0, so no random draw: column 0 crosses inside its span at
    # a/(a - b) of it, column 1 by a jump at its epoch, column 2 by a jump
    # before a later continuous crossing, column 3 never, and column 4
    # inside a span that a jump then ends, which is a continuous crossing
    from levyfluct.montecarlo import _first_crossing

    epochs = np.array([[2.0, 1.0, 1.0, 1.0, 2.0], [2.0, 1.0, 2.0, 2.0, 2.0],
                       [2.0, 1.0, 3.0, 3.0, 2.0]])
    span = np.array([[2.0, 1.0, 1.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0, 1.0, 0.0]])
    pre = np.array([[-3.0, 0.5, 0.5, 0.5, -3.0], [-3.0, -0.25, 0.25, 0.75, -4.0],
                    [-3.0, -0.25, -1.0, 1.0, -4.0]])
    post = np.array([[-3.0, -0.25, 0.5, 0.5, -4.0], [-3.0, -0.25, -0.5, 0.25, -4.0],
                     [-3.0, -0.25, -1.0, 1.0, -4.0]])
    is_jump = np.array([[False, True, False, False, True], [False, False, True, True, False],
                        [False, False, False, False, False]])
    hit, tau, overshoot, by_jump = _first_crossing(
        None, 0.0, np.ones(5), post, pre, epochs, span, is_jump, _Workspace())
    np.testing.assert_array_equal(hit, [True, True, True, False, True])
    # 2 - 2 + 2 * 1/(1 + 3): exact in binary
    np.testing.assert_array_equal(tau, [0.5, 1.0, 2.0, 0.5])
    np.testing.assert_array_equal(overshoot, [0.0, 0.25, 0.5, 0.0])
    np.testing.assert_array_equal(by_jump, [False, True, True, False])


@pytest.mark.parametrize("side,draws", [(-1e-9, 0), (1e-9, 1)], ids=["below", "above"])
def test_first_crossing_draws_no_uniform_below_the_grain(side, draws):
    # one span from a = 1 to b over d = 1 at sigma^2 = 1 has the bridge
    # exponent -2b exactly.  just below ln(2**-53) it cannot cross and
    # draws no uniform, so the stream goes on as a fresh one; just above
    # it draws exactly one
    from levyfluct.montecarlo import _EXP_FLOOR, _first_crossing, _stream

    assert _EXP_FLOOR == -53.0 * math.log(2.0)
    b = np.full((1, 1), -0.5 * (_EXP_FLOOR + side))
    one = np.ones((1, 1))
    rng = _stream(5, 0)
    hit, tau, _, _ = _first_crossing(rng, 1.0, np.ones(1), b, b, one, one,
                                     np.zeros((1, 1), dtype=bool), _Workspace())
    assert not hit[0] and tau.size == 0
    assert rng.random() == _stream(5, 0).random(draws + 1)[-1]


def test_laplace_estimators_name_their_passage():
    # the shared Laplace helper words the shortfall per estimator
    cfg = MCConfig(dt=1e-3, paths=50, horizon=0.01, seed=2)
    with pytest.raises(InsufficientCrossings, match=r"paths reached 30\.0 before"):
        estimate_upcross_laplace(bm(1.0), cfg, 30.0, 1.0)
    with pytest.raises(InsufficientCrossings, match=r"^only 0 of 50 paths crossed 0 before"):
        estimate_passage_below_laplace(bm(1.0), cfg, 30.0, 1.0)


def test_closure_still_sees_a_wrong_drift():
    # the closure scores survivors analytically, but the crossings before
    # the horizon are simulated: a plan with 0.9 of the true drift must
    # still miss the survival target by far, and the true plan must not
    from levyfluct.montecarlo import (
        _CLOSURE_HORIZON, _estimate, _finish, _plan, _resolve_horizon)

    m = LevyModel(gamma=2.0, sigma2=1.0, jumps=ExpJumps(rate=1.0, jump_rate=2.0))
    cfg = MCConfig(dt=1e-2, paths=16000, seed=0)
    engine = make_engine(m)
    target = fluctuation.survival_probability(engine, 1.0)
    plan = _plan(m, cfg)
    horizon = _resolve_horizon(m, cfg, _CLOSURE_HORIZON)

    def score(crossed, tau, overshoot, by_jump, x_final):
        out = np.zeros(crossed.size)
        out[~crossed] = fluctuation.survival_probability(engine, x_final[~crossed])
        return out

    z = {}
    for scale in (1.0, 0.9):
        n, mean, m2, _ = _estimate(
            replace(plan, drift=scale * plan.drift), cfg, 1.0, horizon, score)
        z[scale] = _finish(n, mean, m2, target).z_score
    assert abs(z[1.0]) <= 3.0
    assert z[0.9] < -4.5


@pytest.mark.parametrize("horizon", [1.0, 5.0, 50.0])
def test_closure_is_unbiased_at_any_horizon(horizon):
    # BM with drift 1: survivors closed at T score S(X_T) or C(X_T), so
    # every T meets the target with no allowance
    cfg = MCConfig(dt=1e-3, paths=20000, horizon=horizon, seed=8)
    for estimator in (estimate_survival, estimate_creeping):
        est = estimator(bm(1.0), cfg, 1.0)
        assert est.truncation_allowance == 0.0
        assert within_target(est)


def test_stable_survival_meets_target_without_allowance():
    # the validator's stable model at its dt: closed at 5/psi'(0+), with
    # no allowance to hide behind
    m = LevyModel(gamma=0.5, sigma2=0.0, jumps=StableJumps(alpha=1.5, scale=1.0))
    est = estimate_survival(m, MCConfig(dt=1e-3, paths=10000, seed=0), 1.0)
    assert est.truncation_allowance == 0.0
    assert within_target(est)


def test_tempered_creeping_fails_fast_and_names_the_tail():
    # W'^(0) of this model decays past x of about 4, beyond the contour's
    # reach: the closure raises at once, naming the survivors and the tail
    m = LevyModel(gamma=1.0, sigma2=0.5,
                  jumps=TemperedStableJumps(alpha=1.5, scale=1.0, tempering=1.0))
    t0 = time.monotonic()
    with pytest.raises(InversionFailure, match=r"survivor positions X_T in .*W'\^\(0\) decays"):
        estimate_creeping(m, MCConfig(dt=1e-2, paths=2000, seed=1), 1.0)
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# automatic small-jump cutoff
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1e-30, 1e8])
def test_auto_cutoff_outside_bracket_is_typed(scale):
    # at dt = 1e-2 the target rate 0.1/dt = 10 lies outside the tail rates
    # at both ends of [1e-12, 1e3]: above them for the tiny scale, below
    # them for the huge one
    from levyfluct import LevyModel, StableJumps

    m = LevyModel(gamma=1.0, sigma2=0.5, jumps=StableJumps(alpha=1.5, scale=scale))
    cfg = MCConfig(dt=1e-2, paths=10, horizon=1.0, seed=0)
    with pytest.raises(BadConfigError, match="small_jump_cutoff") as info:
        sample_terminal(m, cfg)
    assert "tail rate" in str(info.value)
    assert "1e-12" in str(info.value) and "1000" in str(info.value)


def test_auto_cutoff_unreachable_skewness_keeps_rate_rule():
    # at scale 1e8 even a cutoff of 1e-12 leaves more truncated variance
    # than the skewness budget allows; simulability wins, as it does when
    # the two rules conflict inside the bracket
    from levyfluct import LevyModel, StableJumps
    from levyfluct.montecarlo import _plan

    m = LevyModel(gamma=1.0, sigma2=0.5, jumps=StableJumps(alpha=1.5, scale=1e8))
    plan = _plan(m, MCConfig(dt=1e-5, paths=10))
    assert plan.rate == pytest.approx(0.1 / 1e-5, rel=1e-9)


_CUTOFF_LAWS = [StableJumps(alpha=a, scale=1.0) for a in (1.05, 1.5, 1.95)] + [
    TemperedStableJumps(alpha=a, scale=s, tempering=t)
    for a, s, t in ((1.5, 1.0, 1.0), (1.6, 0.8, 1.5), (1.2, 1.0, 0.5), (1.9, 0.5, 2.0))
]


@pytest.mark.parametrize("law", _CUTOFF_LAWS, ids=lambda j: f"{j.family}-{j.alpha}")
@pytest.mark.parametrize("sigma2", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4])
def test_auto_cutoff_matches_brentq(law, sigma2, dt):
    # the automatic cutoff against brentq on the same two constraints
    from scipy import optimize
    from levyfluct.montecarlo import _plan

    lo, hi = 1e-12, 1e3
    want = optimize.brentq(lambda e: float(law.tail(e)) * dt - 0.1, lo, hi, xtol=1e-14)
    if sigma2 > 0.0:
        budget = 0.0464 / (1.0 - 0.0464) * sigma2
        if float(law.truncated_variance(hi)) <= budget:
            skew = hi
        elif float(law.truncated_variance(lo)) >= budget:
            skew = lo
        else:
            skew = optimize.brentq(lambda e: float(law.truncated_variance(e)) - budget,
                                   lo, hi, xtol=1e-14)
        want = max(want, min(skew, 1.0))
    m = LevyModel(gamma=1.0, sigma2=sigma2, jumps=law)
    assert abs(_plan(m, MCConfig(dt=dt, paths=1)).cutoff - want) <= 1e-14


def test_auto_cutoff_is_bisected_once_per_key(monkeypatch):
    # a second plan on the same (jumps, sigma2, dt) bisects nothing and is
    # the same plan, bitwise; a cutoff outside the bracket raises each time
    from levyfluct import montecarlo

    m = LevyModel(gamma=1.0, sigma2=0.5,
                  jumps=TemperedStableJumps(alpha=1.5, scale=1.0, tempering=1.0))
    cfg = MCConfig(dt=1e-2, paths=1)
    calls = []
    bisect = montecarlo._log_bisect
    monkeypatch.setattr(montecarlo, "_log_bisect",
                        lambda *args: calls.append(args) or bisect(*args))
    montecarlo._auto_cutoff.cache_clear()
    first = montecarlo._plan(m, cfg)
    assert len(calls) == 2
    again = montecarlo._plan(m, replace(cfg, paths=50, seed=3))
    assert len(calls) == 2 and again == first
    assert first.cutoff == montecarlo._auto_cutoff.__wrapped__(m.jumps, m.sigma2, cfg.dt)
    far = LevyModel(gamma=1.0, sigma2=0.5, jumps=StableJumps(alpha=1.5, scale=1e-30))
    for _ in range(2):
        with pytest.raises(BadConfigError, match="small_jump_cutoff"):
            montecarlo._plan(far, cfg)


# ---------------------------------------------------------------------------
# jump sampler against the exact law of the jumps above the cutoff
# ---------------------------------------------------------------------------


def _mc_tempered():
    from levyfluct import LevyModel, TemperedStableJumps

    return LevyModel(gamma=1.0, sigma2=0.5,
                     jumps=TemperedStableJumps(alpha=1.5, scale=1.0, tempering=1.0))


class _CountingRng:
    # counts the uniform batches a sampler asks for
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.batches = 0

    def random(self, size=None, out=None):
        self.batches += 1
        return self.rng.random(size, out=out)

    def standard_exponential(self, size=None, out=None):
        return self.rng.standard_exponential(size, out=out)


def _jump_plan(case):
    from levyfluct.montecarlo import _plan

    if case == "power":
        return stable_sn().jumps, _plan(stable_sn(), MCConfig(dt=1e-2, paths=1))
    cutoff = None if case == "tempered" else 13.0
    m = _mc_tempered()
    return m.jumps, _plan(m, MCConfig(dt=1e-2, paths=1, small_jump_cutoff=cutoff))


@pytest.mark.parametrize("model", [bm(-1.0), bm(1.0), model_b(), LevyModel(
    gamma=-0.5, sigma2=1.0, jumps=ExpJumps(rate=3.0, jump_rate=2.0))])
def test_finite_activity_plan_simulates_every_jump(model):
    # no cutoff and no folding back: drift gamma, rate 0 or rho, jumps of the model
    from levyfluct.montecarlo import _plan

    plan = _plan(model, MCConfig(dt=1e-2, paths=1))
    rate = model.jumps.rate if isinstance(model.jumps, ExpJumps) else 0.0
    assert (plan.cutoff, plan.acceptance, plan.drift, plan.rate) == (0.0, 1.0, model.gamma, rate)
    assert plan.sigma == math.sqrt(model.sigma2) and plan.jumps is model.jumps


@pytest.mark.parametrize("case", ["power", "tempered", "tempered-rare"])
def test_sampler_matches_exact_jump_law(case):
    # P(Y > y) = tail(y)/tail(cutoff) for the jumps the sweep simulates
    jumps, plan = _jump_plan(case)
    eps = plan.cutoff
    if case == "tempered":
        assert 0.85 < plan.acceptance < 0.95
    if case == "tempered-rare":
        assert 0.05 < plan.acceptance < 0.15
    rng = _CountingRng(101)
    y = plan.sample_jumps(rng, np.empty(20000), _Workspace())
    assert y.shape == (20000,) and y.min() >= eps
    tail_eps = float(jumps.tail(eps))
    _, p = stats.kstest(y, lambda v: 1.0 - jumps.tail(np.maximum(v, eps)) / tail_eps)
    assert p > 1e-3
    if plan.jumps.family == "tempered_stable":
        assert rng.batches == 1  # one oversampled pass


def test_tempered_acceptance_is_the_mean_acceptance_probability():
    # E exp(-theta (Y - eps)) for Y with the bare power tail above eps
    from scipy import integrate

    _, plan = _jump_plan("tempered-rare")
    a, th, eps = plan.jumps.alpha, plan.jumps.tempering, plan.cutoff
    val, _ = integrate.quad(
        lambda y: a * eps**a * y ** (-1.0 - a) * math.exp(-th * (y - eps)), eps, math.inf)
    assert plan.acceptance == pytest.approx(val, rel=1e-9)


def test_sampler_top_up_keeps_the_law():
    # an overstated acceptance makes the first pass fall short, so the
    # top-up passes run; the law of the kept jumps does not change
    from dataclasses import replace

    jumps, plan = _jump_plan("tempered-rare")
    rng = _CountingRng(7)
    y = replace(plan, acceptance=1.0).sample_jumps(rng, np.empty(20000), _Workspace())
    assert rng.batches > 1
    assert y.shape == (20000,)
    tail_eps = float(jumps.tail(plan.cutoff))
    _, p = stats.kstest(
        y, lambda v: 1.0 - jumps.tail(np.maximum(v, plan.cutoff)) / tail_eps)
    assert p > 1e-3


@pytest.mark.parametrize("case", ["power", "tempered", "tempered-rare"])
def test_sampler_zero_jumps_is_empty(case):
    _, plan = _jump_plan(case)
    out = plan.sample_jumps(np.random.default_rng(0), np.empty(0), _Workspace())
    assert isinstance(out, np.ndarray) and out.shape == (0,)


# ---------------------------------------------------------------------------
# discount clocks of the Laplace estimators
# ---------------------------------------------------------------------------


def test_laplace_estimators_stop_at_discount_horizon():
    # every path stops at its clock (5 + E)/q, far below both horizons,
    # so the two runs simulate the same paths; only the allowance, which
    # is taken at the horizon, differs
    m, rate = model_b(), 2.5
    for estimator in (estimate_passage_below_laplace, estimate_upcross_laplace):
        a = estimator(m, MCConfig(dt=1e-3, paths=4000, horizon=100.0, seed=3), 1.0, rate)
        b = estimator(m, MCConfig(dt=1e-3, paths=4000, horizon=200.0, seed=3), 1.0, rate)
        assert (a.mean, a.stderr, a.n, a.crossings) == (b.mean, b.stderr, b.n, b.crossings)
        assert a.truncation_allowance <= math.exp(-rate * 100.0)
        assert b.truncation_allowance <= math.exp(-rate * 200.0)
        assert within_target(a)


def test_short_user_horizon_is_honoured():
    # below 5/beta = 2.5 no clock can fire: the user's horizon stops
    # every path, and the message names it alone
    cfg = MCConfig(dt=1e-3, paths=4000, horizon=0.5, seed=2)
    est = estimate_passage_below_laplace(bm(1.0), cfg, 1.0, 2.0)
    alive = est.n - est.crossings
    assert est.truncation_allowance == (alive / est.n) * math.exp(-2.0 * 0.5)
    cfg = MCConfig(dt=1e-3, paths=50, horizon=0.01, seed=2)
    with pytest.raises(InsufficientCrossings, match=r"before t=0\.01$"):
        estimate_upcross_laplace(bm(1.0), cfg, 30.0, 1.0)


def test_insufficient_crossings_names_discount_horizon():
    # default horizon 50; the clocks start at 5/2.5 = 2
    cfg = MCConfig(dt=1e-3, paths=50, seed=2)
    with pytest.raises(InsufficientCrossings,
                       match=r"before their discount clocks 2\.0 \+ Exp\(1\)/2\.5 or t=50\.0$"):
        estimate_upcross_laplace(bm(1.0), cfg, 30.0, 2.5)


@pytest.mark.parametrize("model", [model_b(), LevyModel(
    gamma=0.5, sigma2=0.0, jumps=StableJumps(alpha=1.5, scale=1.0))], ids=["cp", "stable"])
def test_discount_clock_pays_no_variance(model, monkeypatch):
    # against clocks started at 40/q, where the killing never matters,
    # the clocks at 5/q give the same standard error within 3%, and both
    # meet their targets
    from levyfluct import montecarlo

    cfg = MCConfig(dt=1e-2, paths=20000, seed=5)
    runs = {}
    for clock in (5.0, 40.0):
        monkeypatch.setattr(montecarlo, "_DISCOUNT_CLOCK", clock)
        runs[clock] = [estimate_passage_below_laplace(model, cfg, 1.0, 2.5),
                       estimate_upcross_laplace(model, cfg, 1.0, 2.5)]
    for short, full in zip(runs[5.0], runs[40.0]):
        assert 0.97 <= short.stderr / full.stderr <= 1.03
        assert within_target(short) and within_target(full)


def test_discount_clock_still_sees_a_wrong_drift():
    # the clocks only replace the tail of the discount: a plan with 0.8
    # of the true drift crosses sooner and must overshoot the target by
    # far, and the true plan must not
    from levyfluct.montecarlo import _laplace, _plan

    m = model_b()
    cfg = MCConfig(dt=1e-2, paths=20000, seed=0)
    plan = _plan(m, cfg)
    target = fluctuation.passage_below_laplace(make_engine(m), 2.5, 1.0)
    z = {scale: _laplace(m, cfg, replace(plan, drift=scale * plan.drift), 1.0, 2.5,
                         lambda: target, "crossed 0").z_score
         for scale in (1.0, 0.8)}
    assert abs(z[1.0]) <= 3.0
    assert z[0.8] > 4.5


def test_scalar_horizon_broadcasts_bitwise():
    # a scalar horizon and the same value for every path run one sweep
    from levyfluct.montecarlo import _plan, _stream, _sweep_block

    m = model_b()
    plan = _plan(m, MCConfig(dt=1e-2, paths=1))
    scalar = _sweep_block(plan, _stream(9, 0), 3000, 1.0, 4.0)
    array = _sweep_block(plan, _stream(9, 0), 3000, 1.0, np.full(3000, 4.0))
    for got, want in zip(array, scalar):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("model", [model_b(), stable_sn()], ids=["cp", "stable"])
def test_no_crossing_after_own_horizon(model):
    # per-path horizons spread over two orders of magnitude: each crossing
    # falls inside its own path's horizon, and so do some of both kinds
    from levyfluct.montecarlo import _plan, _stream, _sweep_block

    plan = _plan(model, MCConfig(dt=1e-2, paths=1))
    stop = np.geomspace(0.05, 5.0, 4000)
    crossed, tau, _, _, _ = _sweep_block(plan, _stream(3, 0), stop.size, 1.0, stop)
    assert 0 < crossed.sum() < stop.size
    assert np.all(tau[crossed] > 0.0)
    assert np.all(tau[crossed] <= stop[crossed])
    short = stop < 0.5
    assert crossed[short].any() and crossed[~short].any()


def test_sweep_rounds_start_short_and_at_most_double(monkeypatch):
    # 4,000 paths could take 16 epochs each in one round; the first round
    # takes at most 8, each later one at most twice the one before, and
    # every round stays within the event budget
    from levyfluct import montecarlo
    from levyfluct.montecarlo import _ROUND_EVENTS, _plan, _stream, _sweep_block

    plan = _plan(stable_sn(), MCConfig(dt=1e-2, paths=1))
    shapes = []
    first_crossing = montecarlo._first_crossing

    def record(rng, sig2, x0, post, *rest):
        shapes.append(post.shape)
        return first_crossing(rng, sig2, x0, post, *rest)

    monkeypatch.setattr(montecarlo, "_first_crossing", record)
    _sweep_block(plan, _stream(2, 0), 4000, 1.0, 5.0)
    ks = [k for k, _ in shapes]
    assert ks[0] <= 8 and max(ks) > 8
    assert all(later <= 2 * k for k, later in zip(ks, ks[1:]))
    assert all(k * r <= _ROUND_EVENTS for k, r in shapes)


# ---------------------------------------------------------------------------
# round workspace: draws written in place, bitwise as before
# ---------------------------------------------------------------------------

# drifting models of the four families, as in the mc benchmark
_PIN_MODELS = {
    "bm": bm(1.0),
    "cp": LevyModel(gamma=2.0, sigma2=1.0, jumps=ExpJumps(rate=1.0, jump_rate=2.0)),
    "stable": LevyModel(gamma=1.0, sigma2=0.0, jumps=StableJumps(alpha=1.5, scale=0.5)),
    "tempered": _mc_tempered(),
}
_PIN_CALLS = {
    "passage": lambda m, c: estimate_passage_below_laplace(m, c, 1.0, 2.5),
    "upcross": lambda m, c: estimate_upcross_laplace(m, c, 1.0, 2.5),
    "survival": lambda m, c: estimate_survival(m, c, 1.0),
    "creeping": lambda m, c: estimate_creeping(m, c, 1.0),
    "martingale": lambda m, c: martingale_check(m, replace(c, horizon=1.0), 0.5),
}
# repr of each Estimate at MCConfig(dt=1e-2, paths=2000, seed), as the
# allocating sweep rounds gave them; creeping on the tempered model raises
# InversionFailure (see test_tempered_creeping_fails_fast_and_names_the_tail)
_PINNED = {
    ("bm", "passage", 3): "Estimate(mean=0.028556790252347967, stderr=0.0023009951232560075, n=2000, analytic_target=0.03176183895152091, z_score=-1.3928967805188832, crossings=233, truncation_allowance=4.56453262911225e-55)",
    ("bm", "upcross", 3): "Estimate(mean=0.23066703183009282, stderr=0.004591195244454885, n=2000, analytic_target=0.23469000981798865, z_score=-0.8762376186799439, crossings=1831, truncation_allowance=4.365625434747993e-56)",
    ("bm", "survival", 3): "Estimate(mean=0.8632521684726828, stderr=0.0076500607704720535, n=2000, analytic_target=0.8646647167633873, z_score=-0.1846453685906225, crossings=None, truncation_allowance=0.0)",
    ("bm", "creeping", 3): "Estimate(mean=0.13674783152731732, stderr=0.007650060770472054, n=2000, analytic_target=0.1353352832366127, z_score=0.18464536859064062, crossings=271, truncation_allowance=0.0)",
    ("bm", "martingale", 3): "Estimate(mean=1.0243944655787527, stderr=0.012532156910306591, n=2000, analytic_target=1.0, z_score=1.9465496445141377, crossings=None, truncation_allowance=None)",
    ("cp", "passage", 3): "Estimate(mean=0.05121333276975409, stderr=0.003665043123082721, n=2000, analytic_target=0.05430819607872015, z_score=-0.844427529235435, crossings=267, truncation_allowance=5.57906911730054e-37)",
    ("cp", "upcross", 3): "Estimate(mean=0.33063321039568416, stderr=0.004935773104839116, n=2000, analytic_target=0.3272024530937507, z_score=0.6950800267884908, crossings=1932, truncation_allowance=2.189132717694384e-38)",
    ("cp", "survival", 3): "Estimate(mean=0.8635909432405766, stderr=0.007596359898144916, n=2000, analytic_target=0.8548917337225272, z_score=1.1451813282535197, crossings=None, truncation_allowance=0.0)",
    ("cp", "creeping", 3): "Estimate(mean=0.06248783174588553, stderr=0.005354254375693194, n=2000, analytic_target=0.06641549497585197, z_score=-0.73355932579463, crossings=266, truncation_allowance=0.0)",
    ("cp", "martingale", 3): "Estimate(mean=1.0278476394733815, stderr=0.014028339530811562, n=2000, analytic_target=1.0, z_score=1.9850987646982412, crossings=None, truncation_allowance=None)",
    ("stable", "passage", 3): "Estimate(mean=0.04132973969418283, stderr=0.0033643543693884542, n=2000, analytic_target=0.04231580999927606, z_score=-0.29309347257389956, crossings=256, truncation_allowance=4.505118791834615e-55)",
    ("stable", "upcross", 3): "Estimate(mean=0.21348467604604926, stderr=0.00312491885444853, n=2000, analytic_target=0.2138870786093569, z_score=-0.1287721640306915, crossings=1902, truncation_allowance=2.531546110090552e-56)",
    ("stable", "survival", 3): "Estimate(mean=0.756618983291644, stderr=0.007217442191011768, n=2000, analytic_target=0.7446043237053138, z_score=1.6646700130542964, crossings=None, truncation_allowance=0.0)",
    ("stable", "creeping", 3): "Estimate(mean=0.005, stderr=0.0015775754727384973, n=2000, analytic_target=0.0, z_score=3.1694204723660864, crossings=307, truncation_allowance=0.0)",
    ("stable", "martingale", 3): "Estimate(mean=1.0119468814088775, stderr=0.00893277089684065, n=2000, analytic_target=1.0, z_score=1.337421674287296, crossings=None, truncation_allowance=None)",
    ("tempered", "passage", 3): "Estimate(mean=0.06078768739995512, stderr=0.003720345373395771, n=2000, analytic_target=0.05875456570677541, z_score=0.5464873524158756, crossings=386, truncation_allowance=4.169301450700154e-55)",
    ("tempered", "upcross", 3): "Estimate(mean=0.24542009068478557, stderr=0.004683608450646991, n=2000, analytic_target=0.2473866436406101, z_score=-0.41987988034159485, crossings=1841, truncation_allowance=4.107304403106099e-56)",
    ("tempered", "survival", 3): "Estimate(mean=0.7864631002655017, stderr=0.009081362259135835, n=2000, analytic_target=0.7944154294691103, z_score=-0.8756758046523829, crossings=None, truncation_allowance=0.0)",
    ("tempered", "martingale", 3): "Estimate(mean=1.0229271444898216, stderr=0.013054637890410548, n=2000, analytic_target=1.0, z_score=1.7562451507492989, crossings=None, truncation_allowance=None)",
    ("bm", "passage", 8): "Estimate(mean=0.028441345139343134, stderr=0.0023643234450167814, n=2000, analytic_target=0.03176183895152091, z_score=-1.4044160578690235, crossings=245, truncation_allowance=4.533534105315223e-55)",
    ("bm", "upcross", 8): "Estimate(mean=0.23379612789115883, stderr=0.00471451360685511, n=2000, analytic_target=0.23469000981798865, z_score=-0.18960215228355198, crossings=1825, truncation_allowance=4.520618053733128e-56)",
    ("bm", "survival", 8): "Estimate(mean=0.8690475920593824, stderr=0.007516075011469599, n=2000, analytic_target=0.8646647167633873, z_score=0.5831335223912505, crossings=None, truncation_allowance=0.0)",
    ("bm", "creeping", 8): "Estimate(mean=0.13095240794061766, stderr=0.007516075011469599, n=2000, analytic_target=0.1353352832366127, z_score=-0.5831335223912394, crossings=260, truncation_allowance=0.0)",
    ("bm", "martingale", 8): "Estimate(mean=1.0021493921955729, stderr=0.012087128974343735, n=2000, analytic_target=1.0, z_score=0.17782487471881747, crossings=None, truncation_allowance=None)",
    ("cp", "passage", 8): "Estimate(mean=0.05911840369211995, stderr=0.004130606133001631, n=2000, analytic_target=0.05430819607872015, z_score=1.164528269826665, crossings=280, truncation_allowance=5.537218050638735e-37)",
    ("cp", "upcross", 8): "Estimate(mean=0.33246181675137776, stderr=0.004901282329418055, n=2000, analytic_target=0.3272024530937507, z_score=1.0730587026296732, crossings=1948, truncation_allowance=1.6740426664721756e-38)",
    ("cp", "survival", 8): "Estimate(mean=0.8570469924196205, stderr=0.007756915217192896, n=2000, analytic_target=0.8548917337225272, z_score=0.2778499747317289, crossings=None, truncation_allowance=0.0)",
    ("cp", "creeping", 8): "Estimate(mean=0.06462096456127797, stderr=0.00545069162071461, n=2000, analytic_target=0.06641549497585197, z_score=-0.32922985548368483, crossings=281, truncation_allowance=0.0)",
    ("cp", "martingale", 8): "Estimate(mean=1.0105383378101127, stderr=0.0140329013180524, n=2000, analytic_target=1.0, z_score=0.7509735564487888, crossings=None, truncation_allowance=None)",
    ("stable", "passage", 8): "Estimate(mean=0.03971603570673302, stderr=0.0033083820754776796, n=2000, analytic_target=0.04231580999927606, z_score=-0.7858144051175437, crossings=268, truncation_allowance=4.474120268037588e-55)",
    ("stable", "upcross", 8): "Estimate(mean=0.2195931264501803, stderr=0.0031452184574700367, n=2000, analytic_target=0.2138870786093569, z_score=1.8141976202865273, crossings=1906, truncation_allowance=2.4282176974337948e-56)",
    ("stable", "survival", 8): "Estimate(mean=0.7455770332717582, stderr=0.007450397888160231, n=2000, analytic_target=0.7446043237053138, z_score=0.1305580696555991, crossings=None, truncation_allowance=0.0)",
    ("stable", "creeping", 8): "Estimate(mean=0.002, stderr=0.0009992493430694925, n=2000, analytic_target=0.0, z_score=2.0015024416792744, crossings=332, truncation_allowance=0.0)",
    ("stable", "martingale", 8): "Estimate(mean=1.024908677288945, stderr=0.008944599184667357, n=2000, analytic_target=1.0, z_score=2.784772886374049, crossings=None, truncation_allowance=None)",
    ("tempered", "passage", 8): "Estimate(mean=0.06169796620041497, stderr=0.0037448867292679154, n=2000, analytic_target=0.05875456570677541, z_score=0.7859785105476238, crossings=398, truncation_allowance=4.138302926903127e-55)",
    ("tempered", "upcross", 8): "Estimate(mean=0.25822349400857003, stderr=0.004825824266342729, n=2000, analytic_target=0.2473866436406101, z_score=2.245595730358551, crossings=1817, truncation_allowance=4.727274879046642e-56)",
    ("tempered", "survival", 8): "Estimate(mean=0.7956939894863938, stderr=0.008934731633193492, n=2000, analytic_target=0.7944154294691103, z_score=0.14309999111037194, crossings=None, truncation_allowance=0.0)",
    ("tempered", "martingale", 8): "Estimate(mean=1.0088081208207282, stderr=0.012918851034097924, n=2000, analytic_target=1.0, z_score=0.6818037298735117, crossings=None, truncation_allowance=None)",
}


@pytest.mark.parametrize("label, name, seed", list(_PINNED))
def test_estimates_repeat_their_pinned_values(label, name, seed):
    cfg = MCConfig(dt=1e-2, paths=2000, seed=seed)
    assert repr(_PIN_CALLS[name](_PIN_MODELS[label], cfg)) == _PINNED[label, name, seed]


def test_threads_sweeping_at_once_give_the_sequential_estimates():
    # each thread sweeps in a workspace of its own: more threads than
    # cores, switching often, give the Estimates of one thread alone
    import sys
    import threading

    jobs = [(label, name, 3) for label in ("cp", "stable", "tempered")
            for name in ("passage", "survival")]
    want = [_PINNED[job] for job in jobs]
    got = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def run(i, label, name, seed):
        start.wait()
        got[i] = repr(_PIN_CALLS[name](_PIN_MODELS[label],
                                       MCConfig(dt=1e-2, paths=2000, seed=seed)))

    threads = [threading.Thread(target=run, args=(i, *job)) for i, job in enumerate(jobs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == want


def _holds(work, arrays):
    # whether any of the arrays shares memory with a buffer of work
    return any(np.shares_memory(a, b) for a in arrays for b in work.buffers.values())


def test_sweep_results_own_their_memory():
    # the sweep's outputs are no views of the thread's workspace, so the
    # next sweep, which reuses it, leaves them as they were
    from levyfluct.montecarlo import _LOCAL, _plan, _stream, _sweep_block

    plan = _plan(_mc_tempered(), MCConfig(dt=1e-2, paths=1))
    first = _sweep_block(plan, _stream(4, 0), 3000, 1.0, 3.0)
    kept = [a.copy() for a in first]
    assert not _holds(_LOCAL.work, first)
    _sweep_block(plan, _stream(5, 0), 3000, 1.0, 3.0)
    for got, want in zip(first, kept):
        np.testing.assert_array_equal(got, want)


def test_rare_acceptance_sampler_keeps_its_law_and_the_workspace_bound():
    # at acceptance 0.05-0.15 one pass for 20,000 jumps needs more
    # candidates than a workspace buffer holds: that pass draws them in
    # arrays of its own, the thread's buffers stay within the bound and
    # the jumps keep the exact law
    from levyfluct.montecarlo import _LOCAL, _WORK_BOUND

    jumps, plan = _jump_plan("tempered-rare")
    assert 0.05 < plan.acceptance < 0.15
    assert 20000 / plan.acceptance > _WORK_BOUND
    work = _LOCAL.work
    y = plan.sample_jumps(np.random.default_rng(23), np.empty(20000), work)
    assert all(b.size <= _WORK_BOUND for b in work.buffers.values())
    assert not _holds(work, [y])
    tail_eps = float(jumps.tail(plan.cutoff))
    _, p = stats.kstest(
        y, lambda v: 1.0 - jumps.tail(np.maximum(v, plan.cutoff)) / tail_eps)
    assert p > 1e-3
