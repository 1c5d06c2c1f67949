import math

import numpy as np
import pytest
from scipy import stats

from levyfluct import (
    BadConfigError,
    BadParameterError,
    Estimate,
    InsufficientCrossings,
    MCConfig,
    WrongRegimeError,
    estimate_creeping,
    estimate_passage_below_laplace,
    estimate_survival,
    estimate_upcross_laplace,
    martingale_check,
    sample_terminal,
    simulate_path,
)
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


def test_oscillating_model_needs_explicit_horizon():
    with pytest.raises(BadConfigError, match="horizon"):
        estimate_passage_below_laplace(bm(), SMALL, 1.0, 2.0)


def test_survival_needs_upward_drift():
    cfg = MCConfig(dt=1e-3, paths=1000, horizon=5.0, seed=1)
    with pytest.raises(WrongRegimeError):
        estimate_survival(bm(), cfg, 1.0)


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


def test_grid_mean_table_is_one_array_call():
    # the allowance table evaluates its 256 points in one call and matches
    # the point-by-point table it replaced
    from levyfluct import fluctuation, make_engine
    from levyfluct.montecarlo import _grid_mean

    engine = make_engine(bm(1.0))
    values = np.random.default_rng(5).uniform(0.2, 6.0, 1000)
    calls = []

    def fn(v):
        calls.append(np.size(v))
        return np.clip(1.0 - fluctuation.survival_probability(engine, v), 0.0, 1.0)

    xs = np.linspace(values.min(), values.max(), 256)
    table = [min(max(1.0 - fluctuation.survival_probability(engine, float(x)), 0.0), 1.0)
             for x in xs]
    assert _grid_mean(values, fn) == float(np.interp(values, xs, table).mean())
    assert calls == [256]
    assert _grid_mean(np.full(3, 2.0), fn) == pytest.approx(math.exp(-2.0 * 2.0), rel=1e-12)
