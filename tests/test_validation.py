import math

import pytest

from levyfluct import TOLERANCES, BadParameterError, run_validation, validation
from conftest import bm, model_b, stable_sn, tempered_mixed


def test_all_suites_green_across_families():
    for make in (bm, lambda: bm(1.0), lambda: bm(-1.0),
                 model_b, stable_sn, tempered_mixed):
        report = run_validation(make())
        failed = [c.name for c in report.failures]
        assert report.ok, failed


def test_report_shape():
    report = run_validation(bm())
    d = report.as_dict()
    assert d["schema"] == "levy-fluct/1"
    assert d["model"]["jumps"]["family"] == "none"
    assert d["summary"]["failed"] == 0
    assert d["summary"]["passed"] == len(d["checks"])
    one = d["checks"][0]
    assert set(one) == {"name", "status", "measured", "tolerance", "context"}


def test_every_check_name_has_a_tolerance():
    report = run_validation(model_b())
    for c in report.checks:
        assert c.name in TOLERANCES


def test_tolerance_override_can_force_failure():
    report = run_validation(bm(), tolerances={"model.phi_inverse": 1e-30})
    assert not report.ok
    names = {c.name for c in report.failures}
    assert names == {"model.phi_inverse"}


def test_unknown_tolerance_rejected():
    with pytest.raises(BadParameterError, match="model.nonsense"):
        run_validation(bm(), tolerances={"model.nonsense": 1.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_tolerance_override_must_be_finite_and_nonnegative(monkeypatch, value):
    def no_suite(*args):
        raise AssertionError("a suite ran before the overrides were checked")

    monkeypatch.setattr(validation, "_model_checks", no_suite)
    with pytest.raises(BadParameterError, match="scale.monotone must be finite and >= 0"):
        run_validation(bm(), tolerances={"scale.monotone": value})


def test_with_mc_adds_estimator_checks():
    base = run_validation(model_b())
    withmc = run_validation(model_b(), with_mc=True, paths=4000, dt=2e-3, seed=3)
    extra = len(withmc.checks) - len(base.checks)
    assert extra >= 3
    assert any(c.name.startswith("mc.") for c in withmc.checks)
    assert withmc.ok


def test_report_is_deterministic():
    # the suites run serially in fixed order: a rerun repeats every value
    first = run_validation(model_b())
    again = run_validation(model_b())
    assert [c.name for c in again.checks] == [c.name for c in first.checks]
    assert [c.measured for c in again.checks] == [c.measured for c in first.checks]


def test_thread_knob_is_gone(monkeypatch):
    # no worker-count export, and the old environment variable changes nothing
    import levyfluct

    assert not hasattr(levyfluct, "worker_count")
    serial = run_validation(bm(1.0))
    monkeypatch.setenv("LEVY_FLUCT_THREADS", "2")
    again = run_validation(bm(1.0))
    assert [c.measured for c in again.checks] == [c.measured for c in serial.checks]


# ---------------------------------------------------------------------------
# ladder reference and the alpha -> 2 envelope
# ---------------------------------------------------------------------------

from levyfluct import ExpJumps, LevyModel, StableJumps, TemperedStableJumps  # noqa: E402
from levyfluct.validation import _ladder_lk  # noqa: E402


def _stable(gamma, sigma2, alpha, scale=1.0):
    return LevyModel(gamma=gamma, sigma2=sigma2, jumps=StableJumps(alpha=alpha, scale=scale))


LADDER_MODELS = [
    _stable(gamma, sigma2, alpha)
    for alpha in (1.05, 1.5, 1.95)
    for gamma, sigma2 in ((0.5, 0.0), (-0.3, 0.5))
] + [
    LevyModel(gamma=gamma, sigma2=sigma2,
              jumps=TemperedStableJumps(alpha=alpha, scale=0.8, tempering=1.5))
    for alpha in (1.5, 1.95)
    for gamma, sigma2 in ((0.0, 1.0), (1.0, 0.0))
]


@pytest.mark.parametrize("model", LADDER_MODELS, ids=repr)
def test_ladder_lk_matches_wiener_hopf_quotient(model):
    # kappa_hat(lam) = psi(lam)/(lam - phi(0)), here through the jump-tail
    # quadrature of the ladder Levy-Khintchine form
    phi0 = float(model.phi(0.0))
    for lam in (0.25, 1.0, 3.0, 7.0):
        want = float(model.psi(lam)) / (lam - phi0)
        assert _ladder_lk(model, lam) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("model", [
    # the first raised QuadratureFailure in its jump-tail references; the
    # second, an earlier failure of the same kind, must keep completing
    _stable(0.5, 0.5, 1.95),
    _stable(0.0, 1.59, 1.756, scale=1.124),
], ids=repr)
def test_report_completes_near_alpha_two(model):
    report = run_validation(model)
    names = {c.name for c in report.checks}
    assert {"exc.partition", "model.wh_space_factorization"} <= names
    assert report.ok, [c.name for c in report.failures]


# ---------------------------------------------------------------------------
# models beyond the reach of a grid convolution series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model, whole", [
    # q*x*W(x) > 1 at (0.5, 0.5), outside the series' domination bound
    (bm(-0.37, 0.38), True),
    # W rises in a layer of width about sigma2 = 1e-6
    (LevyModel(gamma=2.0, sigma2=1e-6, jumps=ExpJumps(rate=1.0, jump_rate=1.0)), True),
    # W ~ y**0.05 at 0; exc.zeta_infinite_limits fails here, the series check not
    (_stable(0.5, 0.0, 1.05), False),
], ids=repr)
def test_series_check_completes_on_former_faults(model, whole):
    report = run_validation(model)
    series = [c for c in report.checks if c.name == "scale.series_agreement"]
    assert len(series) == 1 and series[0].passed, series
    if whole:
        assert report.ok, [c.name for c in report.failures]
