"""Per-layer spans and counts for the traced run.

The tracer wraps the package's public functions from outside: class
attributes are replaced on the class, module functions in every
``levyfluct`` module that holds them, so calls between modules go
through the wrappers too.  Each wrapper opens a span on a per-thread
stack.  When a span closes its duration is charged to its parent as
child time, and its self time (duration minus child time) to its layer.
Spans are aggregated per layer as they close, so memory stays flat;
the validation pool's threads keep their own stacks, and their self
times are summed.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

import levyfluct as lf
from levyfluct import montecarlo, scale, validation
from levyfluct.model import LevyModel
from levyfluct.scale import ScaleEngine

# per-layer metrics, in report order; counts and times are per round
METRICS = (
    ("model.phi.calls", "count"),
    ("model.phi.solves", "count"),
    ("model.phi.self_ms", "ms"),
    ("model.psi.points", "count"),
    ("model.psi.self_ms", "ms"),
    ("scale.calls", "count"),
    ("scale.closed_form.calls", "count"),
    ("scale.contour.calls", "count"),
    ("scale.failed", "count"),
    ("scale.self_ms", "ms"),
    ("scale.leading.calls", "count"),
    ("scale.leading.self_ms", "ms"),
    ("fluctuation.calls", "count"),
    ("fluctuation.self_ms", "ms"),
    ("excursion.calls", "count"),
    ("excursion.self_ms", "ms"),
    ("quadrature.calls", "count"),
    ("quadrature.integrand_evals", "count"),
    ("quadrature.self_ms", "ms"),
    ("montecarlo.calls", "count"),
    ("montecarlo.paths", "count"),
    ("montecarlo.crossings", "count"),
    ("montecarlo.self_ms", "ms"),
    ("montecarlo.paths_per_s", "1/s"),
    ("validation.calls", "count"),
    ("validation.checks", "count"),
    ("validation.self_ms", "ms"),
)

_ESTIMATORS = ("estimate_upcross_laplace", "estimate_passage_below_laplace",
               "estimate_creeping", "estimate_survival", "martingale_check")
_SUITES = ("_model_checks", "_scale_checks", "_fluct_checks", "_excursion_checks",
           "_mc_checks")


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts")

    def __init__(self):
        self.stack = []  # open spans as [layer, child seconds]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._undo = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, layer, fn, count="entry", observe=None, prepare=None):
        """Span ``layer`` around fn.

        count: "entry" counts calls from outside the layer, "all" every
        call, None none.  observe(counts, args, result, failed) runs after
        the call; prepare(counts, args) may replace the arguments.
        """
        state = self._state
        clock = time.perf_counter
        calls = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            if count == "all" or (count == "entry" and (not stack or stack[-1][0] != layer)):
                st.counts[calls] += 1
            if prepare is not None:
                args = prepare(st.counts, args)
            frame = [layer, 0.0]
            stack.append(frame)
            out = None
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                st.self_s[layer] += dur - frame[1]
                if observe is not None:
                    observe(st.counts, args, out, failed)

        return wrapper

    def _counter(self, name, fn, observe):
        # counts calls without a span: run_validation only waits on its
        # pool, whose suites carry the validation spans
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = state().counts
            counts[name] += 1
            out = None
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                observe(counts, args, out, failed)

        return wrapper

    def _patch_attr(self, owner, name, wrapper):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _patch_function(self, fn, wrapper):
        # every binding of fn in the package, e.g. names imported with
        # ``from ._quadrature import integrate_finite``
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "levyfluct" or modname.startswith("levyfluct.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch_attr(mod, attr, wrapper)

    def install(self):
        w = self._wrap

        def psi_points(counts, args, out, failed):
            counts["model.psi.points"] += int(np.size(args[1]))

        self._patch_attr(LevyModel, "phi", w("model.phi", LevyModel.phi))
        self._patch_attr(LevyModel, "psi", w("model.psi", LevyModel.psi, observe=psi_points))

        def scale_route(counts, args, out, failed):
            if failed:
                counts["scale.failed"] += 1
            elif out.method in ("closed_form", "contour"):
                counts[f"scale.{out.method}.calls"] += 1

        for name in ("w_detail", "z_detail", "w_prime_detail"):
            self._patch_attr(ScaleEngine, name,
                             w("scale", getattr(ScaleEngine, name), observe=scale_route))
        for name in ("w_minus_leading", "z_minus_leading"):
            self._patch_attr(ScaleEngine, name, w("scale.leading", getattr(ScaleEngine, name)))
        for fn in (scale.w_series_check, scale.laplace_roundtrip):
            self._patch_function(fn, w("scale", fn, count=None))

        for layer, mod in (("fluctuation", lf.fluctuation), ("excursion", lf.excursion)):
            for name in mod.__all__:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type):
                    self._patch_function(fn, w(layer, fn))

        def count_evals(counts, args):
            f = args[0]

            def integrand(*a):
                counts["quadrature.integrand_evals"] += 1
                return f(*a)

            return (integrand,) + tuple(args[1:])

        for fn in (lf._quadrature.integrate_finite, lf._quadrature.integrate_semiinfinite):
            self._patch_function(fn, w("quadrature", fn, count="all", prepare=count_evals))

        def paths(counts, args, out, failed):
            if not failed:
                counts["montecarlo.paths"] += out.n
                counts["montecarlo.crossings"] += out.crossings or 0

        for name in _ESTIMATORS:
            fn = getattr(montecarlo, name)
            self._patch_function(fn, w("montecarlo", fn, observe=paths))
        for name in ("sample_terminal", "simulate_path"):
            fn = getattr(montecarlo, name)
            self._patch_function(fn, w("montecarlo", fn, count=None))

        def checks(counts, args, out, failed):
            if not failed:
                counts["validation.checks"] += len(out.checks)

        self._patch_function(validation.run_validation,
                             self._counter("validation.calls", validation.run_validation,
                                           checks))
        for name in _SUITES:
            self._patch_attr(validation, name,
                             w("validation", getattr(validation, name), count=None))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def totals(self):
        counts = defaultdict(int)
        self_s = defaultdict(float)
        with self._lock:
            for st in self._states:
                for k, v in st.counts.items():
                    counts[k] += v
                for k, v in st.self_s.items():
                    self_s[k] += v
        return counts, self_s

    def metrics(self, rounds, phi_solves):
        """Per-layer metrics per round.  phi_solves None: no solver cache,
        so every phi call is a solve."""
        counts, self_s = self.totals()
        values = {}
        for name, unit in METRICS:
            if unit == "ms":
                layer = name[: -len(".self_ms")]
                values[name] = 1e3 * self_s.get(layer, 0.0) / rounds
            elif name == "model.phi.solves":
                solves = counts["model.phi.calls"] if phi_solves is None else phi_solves
                values[name] = solves / rounds
            elif name == "montecarlo.paths_per_s":
                busy = self_s.get("montecarlo", 0.0)
                values[name] = counts["montecarlo.paths"] / busy if busy > 0.0 else 0.0
            else:
                values[name] = counts.get(name, 0) / rounds
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
