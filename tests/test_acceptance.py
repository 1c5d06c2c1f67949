"""End-to-end acceptance checks.

One test per acceptance criterion; each prints a single [PASS]/[FAIL]
line with its worst measured figure (visible with pytest -s, and in the
captured output on failure).  Tolerances are stated inline; the Monte
Carlo criterion runs the full desk-scale grid and is the slow one.
"""

import json
import math
import time

import numpy as np
import pytest

from levyfluct import (
    MCConfig,
    constant_A,
    estimate_creeping,
    estimate_passage_below_laplace,
    estimate_survival,
    estimate_upcross_laplace,
    g_family,
    h_beta,
    intensity_cross_before,
    intensity_negative_start,
    intensity_table,
    intensity_total,
    laplace_roundtrip,
    make_engine,
    w_series_check,
)
from levyfluct.cli import main
from levyfluct.validation import _ladder_lk
from conftest import bm, model_b, stable_sn, tempered_mixed


def report(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
    assert ok, label


def family_models():
    return {
        "brownian": bm(),
        "brownian-up": bm(1.0),
        "brownian-down": bm(-1.0),
        "mixed": model_b(),
        "stable": stable_sn(),
        "tempered": tempered_mixed(),
    }


# ---------------------------------------------------------------------------
# 1. excursion intensity decomposition
# ---------------------------------------------------------------------------


def test_criterion_1_intensity_decomposition():
    t0 = time.monotonic()
    e_b = make_engine(model_b())
    table = intensity_table(e_b, 2.5).as_dict()
    exact = {"total": 3.75, "negativeStartFinite": 1.0, "crossBefore": 0.25,
             "upperCreep": 1.0, "stayPositiveForever": 1.0, "crossAfter": 0.5}
    worst = max(abs(table[k] - v) for k, v in exact.items())
    worst = max(worst, abs(table["residual"]))
    ok = worst <= 1e-8

    worst_rel = 0.0
    for make in (bm, lambda: bm(1.0), lambda: bm(-1.0), stable_sn):
        engine = make_engine(make())
        for beta in (0.1, 0.5, 2.5, 10.0):
            rel = abs(intensity_table(engine, beta).residual) / intensity_total(engine, beta)
            worst_rel = max(worst_rel, rel)
    elapsed = time.monotonic() - t0
    ok = ok and worst_rel <= 1e-6 and elapsed < 5.0
    report(ok, "criterion 1: intensity decomposition "
               f"(exact gap {worst:.2e} <= 1e-8, residual {worst_rel:.2e} <= 1e-6, "
               f"{elapsed:.1f}s < 5s)")


# ---------------------------------------------------------------------------
# 2. scale-function oracle triangle
# ---------------------------------------------------------------------------


def test_criterion_2_scale_oracle_triangle():
    t0 = time.monotonic()
    makers = (bm, lambda: bm(1.0), lambda: bm(-1.0), model_b)

    worst_inv = 0.0
    for make in makers:
        closed = make_engine(make())
        for q in (0.0, 0.5, 2.5):
            for x in np.geomspace(0.01, 10.0, 13):
                a = closed.w(q, float(x))
                b = float(closed._contour(q, float(x), "w").value)
                worst_inv = max(worst_inv, abs(b - a) / max(abs(a), 1e-12))

    worst_series = 0.0
    for make in makers:
        engine = make_engine(make())
        for q, x in ((1.0, 0.25), (0.5, 0.1)):
            worst_series = max(worst_series, abs(w_series_check(engine, q, x).rel_gap))

    worst_rt = 0.0
    for make in makers:
        engine = make_engine(make())
        m = engine.model
        for q in (0.0, 0.5, 2.5):
            for off in (1.0, 2.0):
                rt = laplace_roundtrip(engine, q, float(m.phi(q)) + off)
                worst_rt = max(worst_rt, abs(rt.rel_gap))

    elapsed = time.monotonic() - t0
    ok = worst_inv <= 1e-6 and worst_series <= 1e-5 and worst_rt <= 1e-6 and elapsed < 30.0
    report(ok, "criterion 2: oracle triangle "
               f"(closed/contour {worst_inv:.2e} <= 1e-6, series {worst_series:.2e} <= 1e-5, "
               f"roundtrip {worst_rt:.2e} <= 1e-6, {elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# 3. inverse-function and space factorization
# ---------------------------------------------------------------------------


def test_criterion_3_inverse_and_factorization():
    worst_inv = 0.0
    worst_fact = 0.0
    for name, m in family_models().items():
        for q in np.logspace(-4, 4, 9):
            lam = float(m.phi(float(q)))
            worst_inv = max(worst_inv, abs(m.psi(lam) - q) / q)
        phi0 = float(m.phi(0.0))
        for lam in (0.25, 1.0, 3.0, 7.0):
            if abs(lam - phi0) < 1e-9:
                continue
            psi = float(m.psi(lam))
            rebuilt = (lam - phi0) * _ladder_lk(m, lam)
            worst_fact = max(worst_fact, abs(psi - rebuilt) / (1.0 + abs(psi)))
    ok = worst_inv <= 1e-10 and worst_fact <= 1e-6
    report(ok, "criterion 3: inverse and ladder factorization "
               f"(inverse {worst_inv:.2e} <= 1e-10, factorization {worst_fact:.2e} <= 1e-6)")


# ---------------------------------------------------------------------------
# 4. boundary ratios of the avoidance weight
# ---------------------------------------------------------------------------


def test_criterion_4_h_boundary_ratios():
    # the x > 0 ratio converges like eps^(2 - alpha) for infinite-variation
    # jumps without a closed-form scale function, which cannot reach 1e-3
    # clear of the inversion noise floor; the tempered family is checked
    # by the same validation suite on its attainable checks instead
    eps = 1e-6
    worst = 0.0
    for make in (bm, lambda: bm(1.0), lambda: bm(-1.0), model_b, stable_sn):
        engine = make_engine(make())
        m = engine.model
        for beta in (0.5, 2.5):
            slope = float(m.phi_prime(beta) * m.phi(beta))
            below = h_beta(engine, beta, -eps) / eps
            worst = max(worst, abs(below - slope) / slope)
            above = h_beta(engine, beta, eps) / engine.w(beta, eps)
            target = 1.0 - 0.5 * m.sigma2 * slope
            worst = max(worst, abs(above - target) / target)
    ok = worst <= 1e-3
    report(ok, f"criterion 4: boundary ratios at x = +/-1e-6 ({worst:.2e} <= 1e-3)")


# ---------------------------------------------------------------------------
# 5. Monte Carlo desk-scale cross-validation
# ---------------------------------------------------------------------------


def test_criterion_5_monte_carlo_grid():
    paths, dt, seed = 100_000, 1e-4, 20260815
    bm0, bm1, mb, st = bm(), bm(1.0), model_b(), stable_sn()

    def cfg(**kw):
        return MCConfig(dt=dt, paths=paths, seed=seed, **kw)

    runs = [
        ("upcross brownian", lambda: estimate_upcross_laplace(bm0, cfg(horizon=12.0), 1.0, 2.0)),
        ("upcross brownian-up", lambda: estimate_upcross_laplace(bm1, cfg(), 1.0, 2.0)),
        ("upcross mixed", lambda: estimate_upcross_laplace(mb, cfg(), 1.0, 2.5)),
        ("passage brownian", lambda: estimate_passage_below_laplace(bm0, cfg(horizon=12.0), 1.0, 2.0)),
        ("passage brownian-up", lambda: estimate_passage_below_laplace(bm1, cfg(), 1.0, 2.0)),
        ("passage mixed", lambda: estimate_passage_below_laplace(mb, cfg(), 1.0, 2.5)),
        ("creep brownian", lambda: estimate_creeping(bm0, cfg(horizon=12.0), 1.0)),
        ("creep brownian-up", lambda: estimate_creeping(bm1, cfg(), 1.0)),
        ("creep mixed", lambda: estimate_creeping(mb, cfg(), 1.0)),
        ("creep stable", lambda: estimate_creeping(
            st, cfg(horizon=12.0, small_jump_mode="drift-only"), 1.0)),
        ("survival brownian-up", lambda: estimate_survival(bm1, cfg(), 1.0)),
        ("survival mixed", lambda: estimate_survival(mb, cfg(), 2.0)),
    ]

    t0 = time.monotonic()
    failures = []
    estimates = {}
    for name, fn in runs:
        est = fn()
        estimates[name] = est
        gap = abs(est.mean - est.analytic_target)
        bound = 3.0 * est.stderr + (est.truncation_allowance or 0.0)
        if gap > bound:
            failures.append(f"{name} gap {gap:.2e} > {bound:.2e}")
    elapsed = time.monotonic() - t0

    st_creep = estimates["creep stable"]
    zero_ok = st_creep.mean <= 3.0 * st_creep.stderr

    ok = not failures and zero_ok and elapsed < 120.0
    report(ok, "criterion 5: Monte Carlo grid "
               f"(12 estimator runs, 1e5 paths, dt=1e-4, {elapsed:.0f}s < 120s"
               + (f"; FAILED {failures}" if failures else "")
               + (", stable creep indistinguishable from 0)" if zero_ok
                  else ", stable creep NOT zero)"))


# ---------------------------------------------------------------------------
# 6. limit behaviour
# ---------------------------------------------------------------------------


def test_criterion_6_limits():
    # monotone convergence of the killed weight to its unkilled limit
    worst_g = 0.0
    mono_ok = True
    for name, m in family_models().items():
        engine = make_engine(m)
        fam = g_family(engine)
        for x in (-0.01, -0.05, -0.1):
            ladder = [fam.g_minus_beta(b, x)
                      for b in (10.0, 2.5, 0.5, 0.1, 1e-2, 1e-4, 1e-8)]
            mono_ok &= all(b >= a - 1e-14 for a, b in zip(ladder, ladder[1:]))
            limit = fam.g_minus_beta(0.0, x)
            worst_g = max(worst_g, abs(ladder[-1] - limit) / max(1.0, abs(limit)))

    # constant A against its per-regime case value
    a_ok = True
    for name, m in family_models().items():
        engine = make_engine(m)
        got = constant_A(engine)
        if m.mean > 0.0:
            want = 0.0
        elif m.mean < 0.0:
            phi0 = float(m.phi(0.0))
            want = phi0 / float(m.psi_prime(phi0))
        else:
            second = float(m.psi_second(0.0))
            want = 0.0 if math.isinf(second) else 1.0 / second
        a_ok &= (got == want == 0.0) or got == pytest.approx(want, rel=1e-9)

    # intensity limits as the killing rate vanishes (absolute gaps; the
    # infinite-lifetime total is 0 for zero-mean models)
    worst_zeta = 0.0
    beta0 = 1e-13
    for name, m in family_models().items():
        engine = make_engine(m)
        worst_zeta = max(
            worst_zeta,
            abs(intensity_total(engine, beta0) - intensity_total(engine, 0.0)),
            abs(intensity_cross_before(engine, beta0)
                - intensity_cross_before(engine, 0.0)),
            abs(intensity_negative_start(engine, beta0).total
                - 0.5 * m.sigma2 * float(m.phi(0.0))),
        )

    ok = worst_g <= 1e-6 and mono_ok and a_ok and worst_zeta <= 1e-4
    report(ok, "criterion 6: limit behaviour "
               f"(g-minus gap {worst_g:.2e} <= 1e-6, monotone {mono_ok}, "
               f"constant A cases {a_ok}, vanishing-killing gap {worst_zeta:.2e} <= 1e-4)")


# ---------------------------------------------------------------------------
# 7. deterministic reports
# ---------------------------------------------------------------------------


def test_criterion_7_deterministic_validate(tmp_path):
    model_file = tmp_path / "model.json"
    model_file.write_text(
        '{"gamma": 2.0, "sigma2": 2.0, '
        '"jumps": {"family": "cp_exp", "rate": 1.0, "jump_rate": 1.0}}'
    )
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main(["validate", "--model", str(model_file), "--with-mc",
                     "--paths", "4000", "--dt", "2e-3", "--seed", "5",
                     "--deterministic", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    json.loads(outs[0])  # the emitted report must re-parse
    report(identical, "criterion 7: validate --deterministic twice is byte-identical "
                      f"({len(outs[0])} bytes)")
