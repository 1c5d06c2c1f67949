"""Tests of the benchmark itself: each check accepts the program's outputs
and rejects a perturbed value.

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import levyfluct as lf  # noqa: E402
from levyfluct import excursion, fluctuation, montecarlo, validation  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

MODELS = {
    "bm": workloads._bm(0.7, 1.3),
    "cp": workloads._cp(2.0, 1.0, 1.0, 2.0),
    "stable": workloads._st(0.0, 0.0, 1.5, 1.0),
    "stable-gauss": workloads._st(-0.3, 0.5, 1.5, 0.5),
    "tempered": workloads._ts(0.0, 1.0, 1.6, 0.8, 1.5),
}
XS = (0.1, 0.5, 1.0, 2.0, 4.0)


def _engine(name):
    return lf.make_engine(lf.model_from_dict(MODELS[name]))


def _scale(name, qs=(0.0, 0.5, 2.5)):
    e = _engine(name)
    rows = [(q, x) + tuple(v.value for v in workloads.scale_row(e, q, x))
            for q in qs for x in XS]
    return rows, {q: e.model.phi(q) for q in qs}


def _replace(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return [tuple(r) for r in rows]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_psi_rebuilt_matches_program(name):
    m = lf.model_from_dict(MODELS[name])
    for lam in (0.3, 1.0, 4.0):
        assert checks.psi(MODELS[name], lam) == pytest.approx(m.psi(lam), rel=1e-13)
        assert checks.psi_prime(MODELS[name], lam) == pytest.approx(m.psi_prime(lam), rel=1e-13)


def test_bm_closed_form_is_its_own_integral_and_derivative():
    g, s2, q, x = -0.4, 1.7, 0.9, 1.3
    w, z, wp = checks.bm_scale(g, s2, q, x)
    n = 20000
    h = x / n
    integral = h * (sum(checks.bm_scale(g, s2, q, k * h)[0] for k in range(1, n))
                    + 0.5 * w)
    assert z == pytest.approx(1.0 + q * integral, rel=1e-8)
    d = 1e-6
    fd = (checks.bm_scale(g, s2, q, x + d)[0] - checks.bm_scale(g, s2, q, x - d)[0]) / (2 * d)
    assert wp == pytest.approx(fd, rel=1e-7)
    assert checks.psi(workloads._bm(g, s2), checks.bm_phi(g, s2, q)) == pytest.approx(q)


@pytest.mark.parametrize("name", ["bm", "stable", "tempered", "cp"])
def test_scale_rows_accept_program_output(name):
    rows, phis = _scale(name)
    assert checks.scale_rows(MODELS[name], rows, phis) == []


def test_scale_rows_reject_perturbed_values():
    rows, phis = _scale("bm")
    params = MODELS["bm"]
    for j in (2, 3, 4):  # W, Z, W' against the hyperbolic forms
        bad = _replace(rows, 7, j, rows[7][j] * (1 + 1e-7))
        assert checks.scale_rows(params, bad, phis)
    assert checks.scale_rows(params, rows, {0.5: phis[0.5] * (1 + 1e-7)})

    rows, phis = _scale("tempered")
    params = MODELS["tempered"]
    assert checks.scale_rows(params, _replace(rows, 3, 2, rows[2][2] * 0.99), phis)  # W drops
    assert checks.scale_rows(params, _replace(rows, 3, 3, 1.0 - 1e-9), phis)  # Z < 1
    assert checks.scale_rows(params, _replace(rows, 3, 4, -1e-12), phis)  # W' < 0
    assert checks.scale_rows(params, _replace(rows, 3, 2, math.nan), phis)

    rows, phis = _scale("stable", qs=(0.0,))
    assert checks.scale_rows(MODELS["stable"], _replace(rows, 1, 2, rows[1][2] * (1 + 1e-7)),
                             phis)


def _fluct(name):
    e = _engine(name)
    return [(b, x) + workloads.fluct_row(e, b, x) for b in (0.5, 2.5) for x in XS]


@pytest.mark.parametrize("name", ["bm", "cp", "tempered"])
def test_fluct_rows_accept_program_output(name):
    assert checks.fluct_rows(_fluct(name)) == []


def test_fluct_rows_reject_perturbed_values():
    rows = _fluct("cp")
    hit, pas = rows[2][4], rows[2][5]
    assert checks.fluct_rows(_replace(rows, 2, 4, pas * 1.001))  # hitting > passage
    assert checks.fluct_rows(_replace(rows, 2, 4, -1e-9))
    assert checks.fluct_rows(_replace(rows, 2, 5, 1.0 + 1e-9))
    assert checks.fluct_rows(_replace(rows, 2, 6, -1e-9))  # creeping
    assert checks.fluct_rows(_replace(rows, 2, 7, 1.0 + 1e-9))  # survival
    assert hit <= pas


def _intensity(name):
    e = _engine(name)
    return [(t.beta, t.total, t.residual, e.model.phi(t.beta))
            for t in (excursion.intensity_table(e, b) for b in (0.1, 2.5))]


@pytest.mark.parametrize("name", ["bm", "cp", "stable", "tempered"])
def test_intensity_rows_accept_program_output(name):
    assert checks.intensity_rows(MODELS[name], _intensity(name)) == []


def test_intensity_rows_reject_perturbed_values():
    rows = _intensity("tempered")
    params = MODELS["tempered"]
    total = rows[0][1]
    assert checks.intensity_rows(params, _replace(rows, 0, 2, 2e-6 * total))
    assert checks.intensity_rows(params, _replace(rows, 0, 1, total * (1 + 1e-7)))
    assert checks.intensity_rows(params, _replace(rows, 0, 3, rows[0][3] * (1 + 1e-7)))


@pytest.mark.parametrize("name", ["bm", "cp", "stable", "stable-gauss"])
def test_expected_check_count_matches_program(name):
    report = validation.run_validation(lf.model_from_dict(MODELS[name]))
    assert checks.validation_report(report, checks.expected_check_count(MODELS[name])) == []


def test_validation_report_rejects_failure_and_wrong_count():
    model = lf.model_from_dict(MODELS["bm"])
    expected = checks.expected_check_count(MODELS["bm"])
    report = validation.run_validation(model)
    assert checks.validation_report(report, expected + 1)
    failing = validation.run_validation(model, tolerances={"model.phi_inverse": 1e-30})
    assert checks.validation_report(failing, expected)


def _estimate(name, params, estimator):
    cfg = montecarlo.MCConfig(dt=workloads.MC_DT, paths=2000, seed=5)
    model = lf.model_from_dict(params)
    return cfg, workloads.McWorkload._fn(estimator, model, cfg)()


@pytest.mark.parametrize("estimator", ["passage", "upcross", "survival", "creeping"])
def test_estimate_accepts_program_output(estimator):
    for name in ("bm", "cp"):
        cfg, est = _estimate(name, MODELS[name], estimator)
        assert checks.estimate(estimator, MODELS[name], est, cfg.paths, workloads.MC_LEVEL,
                               workloads.MC_RATE) == []


def test_estimate_rejects_perturbed_values():
    args = (workloads.MC_LEVEL, workloads.MC_RATE)
    cfg, est = _estimate("cp", MODELS["cp"], "upcross")
    shifted = dataclasses.replace(est, mean=est.analytic_target + 5 * est.stderr)
    assert checks.estimate("upcross", MODELS["cp"], shifted, cfg.paths, *args)
    off = dataclasses.replace(est, analytic_target=est.analytic_target * (1 + 1e-6))
    assert checks.estimate("upcross", MODELS["cp"], off, cfg.paths, *args)
    assert checks.estimate("upcross", MODELS["cp"], est, cfg.paths + 1, *args)

    cfg, est = _estimate("bm", MODELS["bm"], "passage")
    off = dataclasses.replace(est, analytic_target=est.analytic_target * (1 + 1e-6))
    assert checks.estimate("passage", MODELS["bm"], off, cfg.paths, *args)


def test_bitwise_equal_sees_one_ulp():
    _, est = _estimate("bm", MODELS["bm"], "survival")
    _, again = _estimate("bm", MODELS["bm"], "survival")
    assert checks.bitwise_equal(est, again)
    nudged = dataclasses.replace(est, mean=math.nextafter(est.mean, 2.0))
    assert not checks.bitwise_equal(est, nudged)


def test_run_round_counts_kept_faults_and_flags_others():
    wl = workloads.generate("validate", 3)
    fault = wl.models[-1]
    lat, kinds, items, failed, problems = run.run_round(wl)
    assert failed == 1 and problems == [] and len(lat) == len(kinds) == len(wl.models)
    assert items == sum(wl.expected[:-1])

    class Unexpected(workloads.ValidateWorkload):
        def new_round(self):
            return [workloads.Op("validate", (0,), lambda: validation.run_validation(fault))]

    _, _, _, failed, problems = run.run_round(Unexpected(3))
    assert failed == 1 and len(problems) == 1


def test_tracer_counts_layers_and_restores():
    original = lf.LevyModel.phi
    tracer = Tracer()
    tracer.install()
    try:
        e = _engine("tempered")
        fluctuation.passage_below_laplace(e, 2.5, 1.0)
        excursion.intensity_table(e, 0.5)
        e.w_detail(0.5, 1.0)
    finally:
        tracer.uninstall()
    assert lf.LevyModel.phi is original
    m = {k: v["value"] for k, v in tracer.metrics(1, None).items()}
    assert m["fluctuation.calls"] == 1
    assert m["excursion.calls"] == 1
    assert m["scale.calls"] == m["scale.contour.calls"] == 1
    assert m["scale.leading.calls"] == 2
    assert m["quadrature.calls"] > 0 and m["quadrature.integrand_evals"] > m["quadrature.calls"]
    assert m["model.phi.calls"] > 0 and m["model.psi.points"] > 0
    assert m["montecarlo.calls"] == 0 and m["validation.calls"] == 0
