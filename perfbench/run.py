"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
After one warm-up round the workload's round of operations is repeated
until ``--seconds`` have passed and at least ``MIN_OPS`` operations have
run, always finishing the round.  Every
output is checked (see ``checks.py``).  Times are scaled to a fixed
machine speed, read from a pure-Python gauge loop timed after every
round (see ``gauge``).  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the public functions are
wrapped (see ``layertrace.py``) and the metrics are the per-layer ones.
Details go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# fresh interpreters started to time set-up; the median is reported
SETUP_REPEATS = 5
# a run measures at least this many operations, so that ten or more lie
# beyond the 90th percentile
MIN_OPS = 100
# the speed gauge: a fixed pure-Python loop that uses nothing of levyfluct
GAUGE_ITERS = 150_000
# the gauge's time at the reference speed (about its median on the 2-vCPU
# Xeon of the README's figures); every time is scaled to this speed
GAUGE_REF_S = 11e-3


def import_package():
    """Import levyfluct from this checkout's src/, or exit non-zero."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import levyfluct
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import levyfluct from {SRC}: {exc}")
    where = Path(levyfluct.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: levyfluct was imported from {where}, not from {SRC}")


def gauge():
    """Time of a fixed pure-Python loop: the machine's speed now.

    On a shared host the speed of a core drifts by tens of percent over
    tens of seconds, and every operation slows with it.  A time t taken
    next to a gauge reading g is reported as t * GAUGE_REF_S / g, the
    time it would take at the reference speed.  The gauge runs no code of
    the package, so a change to the package moves only t.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(GAUGE_ITERS):
        s += (i * 7) % 13
    return time.perf_counter() - t0


def measure_setup(workload, seed):
    """Median wall time of a fresh interpreter that imports the package
    and generates the workload's inputs, not yet scaled.

    ``main`` scales it by the run's median gauge reading.  A gauge timed
    here, just after this process has waited idle on the child, reads a
    core that is not yet up to speed and made the set-up time less
    steady, not more.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(wl):
    """Run one round; return (latencies, kinds, items, failed, problems)."""
    latencies = []
    kinds = []
    succeeded = []
    items = 0
    failed = 0
    problems = []
    clock = time.perf_counter
    for op in wl.new_round():
        t0 = clock()
        try:
            out = op.fn()
        except Exception as exc:  # an operation's failure is counted, not fatal
            latencies.append(clock() - t0)
            kinds.append(op.kind)
            failed += 1
            if op.expect is None or not isinstance(exc, op.expect):
                problems.append(f"{op.kind} {op.key}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - t0)
        kinds.append(op.kind)
        succeeded.append((op, out))
        items += op.items
    problems += wl.check_round(succeeded)
    return latencies, kinds, items, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tables", "validate", "mc"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads
    from layertrace import Tracer

    raw_setup_s = measure_setup(args.workload, args.seed)
    wl = workloads.generate(args.workload, args.seed)

    workloads.reset_caches()
    problems = run_round(wl)[-1]  # warm-up: lazy imports, first-call paths
    workloads.reset_caches()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    latencies = []  # scaled to the reference speed, as are all times below
    by_kind = {}
    round_s = []
    raw_round_s = []
    gauges = []
    items = 0
    failed = 0
    attempted = 0
    solves = 0
    before = gauge()
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < args.seconds:
        lat, kinds, n_items, n_failed, found = run_round(wl)
        after = gauge()
        gauges.append(after)
        scale = 2.0 * GAUGE_REF_S / (before + after)
        before = after
        raw_round_s.append(sum(lat))
        lat = [seconds * scale for seconds in lat]
        for kind, seconds in zip(kinds, lat):
            by_kind.setdefault(kind, []).append(seconds)
        misses = workloads.reset_caches()
        solves = None if misses is None else solves + misses
        latencies += lat
        round_s.append(sum(lat))
        items += n_items
        failed += n_failed
        attempted += len(lat)
        problems += found

    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics(len(round_s), solves)
    else:
        deciles = statistics.quantiles(latencies, n=10)
        setup_s = raw_setup_s * GAUGE_REF_S / statistics.median(gauges)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(round_s) / len(round_s), "unit": "s"},
            "items_per_s": {"value": items / sum(latencies), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * deciles[8], "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(round_s), round_s_median=statistics.median(round_s),
                  raw_round_s_median=statistics.median(raw_round_s),
                  raw_setup_s=raw_setup_s,
                  gauge_ms_median=1e3 * statistics.median(gauges),
                  unit=wl.unit, problems=problems[:100],
                  op_median_ms={k: 1e3 * statistics.median(v) for k, v in by_kind.items()})
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
