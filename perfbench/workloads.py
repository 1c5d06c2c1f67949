"""Workload inputs generated from a seed, and the operations run on them.

A workload is a fixed list of operations, one *round*.  The runner
repeats whole rounds, so every run attempts the same operations in the
same proportions, and the kept failures are always the same share of
the operations attempted.

The parameters and grid points of the Brownian and compound Poisson
models are drawn from the seed as a small multiplicative jitter around a
base value, and so are the Monte Carlo seeds: two seeds give different
inputs but nearly the same amount of work.  Stable and tempered models
keep their base values and grids: on about one jittered draw in a
hundred one of their quadratures or inversions fails, and a failure that
depends on the seed cannot be counted the same way in every run.  The
kept faulty inputs (``FAULT_*``) do not depend on the seed either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import levyfluct as lf
from levyfluct import excursion, fluctuation, montecarlo, validation
from levyfluct.errors import InversionFailure, SeriesDivergence

import checks

# relative half-width of the jitter applied to every base value
JITTER = 0.03


@dataclass(frozen=True)
class Op:
    """One timed operation of a round.

    ``items`` is the useful work it does when it succeeds; ``expect``
    names the exception class a kept fault raises, or is None.
    """

    kind: str
    key: tuple
    fn: object
    items: int = 1
    expect: type | None = None


def _jitter(rng, base, rel=JITTER):
    return base * (1.0 + rel * (2.0 * rng.random() - 1.0))


# families whose inputs are not jittered (see the module docstring)
FIXED_FAMILIES = ("stable", "tempered_stable")


def _fixed(base):
    return base["jumps"]["family"] in FIXED_FAMILIES


def _draw_model(rng, base, rel=JITTER):
    """Jitter every nonzero numeric field of a model dict."""
    if _fixed(base):
        return base
    gamma, sigma2 = _jitter(rng, base["gamma"], rel), _jitter(rng, base["sigma2"], rel)
    jumps = {k: v if k == "family" else _jitter(rng, v, rel) for k, v in base["jumps"].items()}
    return {"gamma": gamma, "sigma2": sigma2, "jumps": jumps}


def _draw_grid(rng, base, model):
    if _fixed(model):
        return base
    return tuple(_jitter(rng, v, rel=JITTER / 2.0) for v in base)


def _bm(gamma, sigma2):
    return {"gamma": gamma, "sigma2": sigma2, "jumps": {"family": "none"}}


def _cp(gamma, sigma2, rate, jump_rate):
    return {"gamma": gamma, "sigma2": sigma2,
            "jumps": {"family": "cp_exp", "rate": rate, "jump_rate": jump_rate}}


def _st(gamma, sigma2, alpha, scale):
    return {"gamma": gamma, "sigma2": sigma2,
            "jumps": {"family": "stable", "alpha": alpha, "scale": scale}}


def _ts(gamma, sigma2, alpha, scale, tempering):
    return {"gamma": gamma, "sigma2": sigma2,
            "jumps": {"family": "tempered_stable", "alpha": alpha, "scale": scale,
                      "tempering": tempering}}


def reset_caches():
    """Empty the phi solver cache; return the solves since the last reset.

    Each round starts cold, as one ``levy-fluct`` invocation does, so all
    rounds do the same work.  Without the cache every call is a solve,
    which ``layertrace`` accounts for by counting calls instead.
    """
    cached = getattr(lf.model, "_phi_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return None
    misses = cached.cache_info().misses
    cached.cache_clear()
    return misses


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

# four rational closed-form models, one Mittag-Leffler (pure stable keeps
# gamma = sigma2 = 0) and two contour models.  With these shares the
# median row is a closed-form fluctuation row and the 90th percentile a
# contour fluctuation row, each in the middle of its group
TABLE_MODELS = (
    ("bm-up", _bm(0.5, 1.0)),
    ("bm-down", _bm(-0.5, 2.0)),
    ("cp-exp-up", _cp(2.0, 1.0, 1.0, 2.0)),
    ("cp-exp-down", _cp(0.5, 1.0, 2.0, 3.0)),
    ("stable-pure", _st(0.0, 0.0, 1.5, 1.0)),
    ("stable-gauss", _st(-0.3, 0.5, 1.5, 0.5)),
    ("tempered", _ts(0.0, 1.0, 1.6, 0.8, 1.5)),
)
TABLE_QS = (0.0, 0.1, 0.5, 2.5, 10.0)
TABLE_BETAS = (0.1, 0.5, 2.5, 10.0)
TABLE_XS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

# drifting tempered model on the CLI's default grids: W'^(0)(5) has
# decayed so far that the contour self-estimate misses its 1e-8 target
FAULT_TABLE_MODEL = _ts(1.0, 0.5, 1.5, 1.0, 1.0)
FAULT_QS = (0.0, 0.5, 2.5)
FAULT_BETAS = (0.5, 2.5)
FAULT_XS = (0.1, 0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class Table:
    kind: str  # "scale", "fluct" or "intensity"
    label: str
    params: dict
    rates: tuple
    xs: tuple
    faults: frozenset = frozenset()  # (rate, x) keys that fail today


def scale_row(engine, q, x):
    return (engine.w_detail(q, x), engine.z_detail(q, x), engine.w_prime_detail(q, x))


def fluct_row(engine, beta, x):
    return (
        fluctuation.resolvent_density(engine, beta, x),
        fluctuation.h_beta(engine, beta, x),
        fluctuation.hitting_laplace(engine, beta, x),
        fluctuation.passage_below_laplace(engine, beta, x),
        fluctuation.creeping_probability(engine, x),
        fluctuation.survival_probability(engine, x),
    )


def intensity_row(engine, beta):
    return excursion.intensity_table(engine, beta)


class TablesWorkload:
    name = "tables"
    unit = "table row"

    def __init__(self, seed):
        rng = random.Random(f"tables-{seed}")
        self.tables = []
        for label, base in TABLE_MODELS:
            params = _draw_model(rng, base)
            qs = _draw_grid(rng, TABLE_QS, base)
            betas = _draw_grid(rng, TABLE_BETAS, base)
            xs = _draw_grid(rng, TABLE_XS, base)
            self.tables += [
                Table("scale", label, params, qs, xs),
                Table("fluct", label, params, betas, xs),
                Table("intensity", label, params, betas, ()),
            ]
        self.tables += [
            Table("scale", "fault", FAULT_TABLE_MODEL, FAULT_QS, FAULT_XS,
                  frozenset({(0.0, 5.0)})),
            Table("fluct", "fault", FAULT_TABLE_MODEL, FAULT_BETAS, FAULT_XS,
                  frozenset((b, 5.0) for b in FAULT_BETAS)),
        ]
        self.models = [lf.model_from_dict(t.params) for t in self.tables]

    def new_round(self):
        # one engine per table, as each table command builds its own
        ops = []
        for i, (table, model) in enumerate(zip(self.tables, self.models)):
            engine = lf.make_engine(model)
            if table.kind == "intensity":
                for beta in table.rates:
                    ops.append(Op(f"intensity_row/{table.label}", (i, beta),
                                  partial(intensity_row, engine, beta)))
                continue
            row = scale_row if table.kind == "scale" else fluct_row
            for rate in table.rates:
                for x in table.xs:
                    expect = InversionFailure if (rate, x) in table.faults else None
                    ops.append(Op(f"{table.kind}_row/{table.label}", (i, rate, x),
                                  partial(row, engine, rate, x), expect=expect))
        return ops

    def check_round(self, results):
        """results: list of (op, output) for the ops that succeeded."""
        by_table = {}
        for op, out in results:
            by_table.setdefault(op.key[0], []).append((op.key[1:], out))
        problems = []
        for i, rows in sorted(by_table.items()):
            table = self.tables[i]
            model = self.models[i]
            where = f"{table.kind} table of {table.label}"
            if table.kind == "scale":
                phis = {q: model.phi(q) for q in table.rates}
                found = checks.scale_rows(table.params, [
                    (q, x, w.value, z.value, wp.value) for (q, x), (w, z, wp) in rows
                ], phis)
            elif table.kind == "fluct":
                found = checks.fluct_rows([(b, x) + tuple(out) for (b, x), out in rows])
            else:
                found = checks.intensity_rows(table.params, [
                    (t.beta, t.total, t.residual, model.phi(t.beta)) for _, t in rows
                ])
            problems += [f"{where}: {p}" for p in found]
        return problems


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

# every family, inside the envelope where every suite completes.  Nine
# operations per round put the median on one compound Poisson report and
# the 90th percentile on the tempered one
VALIDATE_MODELS = (
    ("bm-up", _bm(1.0, 1.0)),
    ("bm-down", _bm(-0.5, 2.0)),
    ("bm-zero-mean", _bm(0.0, 1.0)),
    ("cp-exp-up", _cp(2.0, 2.0, 1.0, 1.0)),
    ("cp-exp-down", _cp(0.5, 1.0, 2.0, 3.0)),
    ("stable-drift", _st(0.5, 0.0, 1.5, 1.0)),
    ("stable-gauss", _st(-0.3, 0.5, 1.4, 0.7)),
    ("tempered-gauss", _ts(0.0, 1.0, 1.6, 0.8, 1.5)),
)
# W(0.5) > 4 here, so the series check at q = x = 0.5 is outside its
# domain and the whole report aborts with SeriesDivergence
FAULT_VALIDATE_MODEL = _bm(-0.37, 0.38)


class ValidateWorkload:
    name = "validate"
    unit = "completed check"

    def __init__(self, seed):
        rng = random.Random(f"validate-{seed}")
        self.labels = [label for label, _ in VALIDATE_MODELS] + ["fault"]
        self.params = [_draw_model(rng, base) for _, base in VALIDATE_MODELS]
        self.params.append(FAULT_VALIDATE_MODEL)
        self.models = [lf.model_from_dict(p) for p in self.params]
        self.expected = [checks.expected_check_count(p) for p in self.params]

    def new_round(self):
        ops = []
        for i, model in enumerate(self.models):
            expect = SeriesDivergence if self.params[i] is FAULT_VALIDATE_MODEL else None
            ops.append(Op(f"validate/{self.labels[i]}", (i,),
                          partial(validation.run_validation, model),
                          items=self.expected[i], expect=expect))
        return ops

    def check_round(self, results):
        problems = []
        for op, report in results:
            i = op.key[0]
            problems += [f"validate {self.labels[i]}: {p}"
                         for p in checks.validation_report(report, self.expected[i])]
        return problems


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

MC_PATHS = 4000
MC_DT = 1e-2
MC_MODELS = (
    ("bm", _bm(1.0, 1.0)),
    ("cp-exp", _cp(2.0, 1.0, 1.0, 2.0)),
    ("stable", _st(1.0, 0.0, 1.5, 0.5)),
    ("tempered", _ts(1.0, 0.5, 1.5, 1.0, 1.0)),
)
# creeping runs on the finite-activity models only: on the tempered
# model its allowance grid raises InversionFailure, and under Gaussian
# compensation the stable model creeps although its target is 0.  The
# martingale check runs on the compound Poisson model.  That makes 15
# calls a round: six below 10 ms, five of 20-30 ms and four of 150-300
# ms, so the median falls inside the middle group and the 90th
# percentile inside one call of the slow group, not between two groups
CREEP_FAMILIES = ("none", "cp_exp")
MARTINGALE_FAMILIES = ("cp_exp",)
MC_LEVEL = 1.0
MC_RATE = 2.5
MC_LAMBDA = 0.5
MC_MART_HORIZON = 1.0
# the default horizon 50/psi'(0+) carries a jitter of the drift and jump
# parameters into the simulated time: at 3% the median call of one seed
# cost up to 1.15 times the mean over ten seeds, so the models of mc are
# jittered by 1% only
MC_JITTER = JITTER / 3.0


class McWorkload:
    name = "mc"
    unit = "simulated path"

    def __init__(self, seed):
        rng = random.Random(f"mc-{seed}")
        self.calls = []  # (label, estimator name, params, model, config)
        for label, base in MC_MODELS:
            params = _draw_model(rng, base, MC_JITTER)
            model = lf.model_from_dict(params)
            estimators = ["passage", "upcross", "survival"]
            if params["jumps"]["family"] in CREEP_FAMILIES:
                estimators.append("creeping")
            if params["jumps"]["family"] in MARTINGALE_FAMILIES:
                estimators.append("martingale")
            for name in estimators:
                horizon = MC_MART_HORIZON if name == "martingale" else None
                cfg = montecarlo.MCConfig(dt=MC_DT, paths=MC_PATHS, horizon=horizon,
                                          seed=rng.randrange(1 << 32))
                self.calls.append((label, name, params, model, cfg))
        self.first = {}  # key -> Estimate of the first round, for the repeat check

    @staticmethod
    def _fn(name, model, cfg):
        if name == "passage":
            return partial(montecarlo.estimate_passage_below_laplace, model, cfg, MC_LEVEL, MC_RATE)
        if name == "upcross":
            return partial(montecarlo.estimate_upcross_laplace, model, cfg, MC_LEVEL, MC_RATE)
        if name == "survival":
            return partial(montecarlo.estimate_survival, model, cfg, MC_LEVEL)
        if name == "creeping":
            return partial(montecarlo.estimate_creeping, model, cfg, MC_LEVEL)
        return partial(montecarlo.martingale_check, model, cfg, MC_LAMBDA)

    def new_round(self):
        return [Op(f"{name}/{label}", (i,), self._fn(name, model, cfg), items=cfg.paths)
                for i, (label, name, _, model, cfg) in enumerate(self.calls)]

    def check_round(self, results):
        problems = []
        for op, est in results:
            i = op.key[0]
            label, name, params, _, cfg = self.calls[i]
            where = f"mc {name} on {label}"
            problems += [f"{where}: {p}" for p in checks.estimate(
                name, params, est, cfg.paths, MC_LEVEL, MC_RATE)]
            first = self.first.setdefault(i, est)
            if not checks.bitwise_equal(first, est):
                problems.append(f"{where}: repeated call with the same seed differs")
        return problems


WORKLOADS = {w.name: w for w in (TablesWorkload, ValidateWorkload, McWorkload)}


def generate(name, seed):
    return WORKLOADS[name](seed)
