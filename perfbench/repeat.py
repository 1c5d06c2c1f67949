"""Repeat one workload over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload mc --runs 10 --first-seed 1
    python3 perfbench/repeat.py --workload mc --runs 3 --trace

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median against the metric's bound from
``BENCHMARK.json``; a spread above a third of the bound is marked WIDE.
It also prints the share of failed operations of every run, which must
be the same in all of them.  With ``--trace`` each seed gets a traced
run too, and the per-layer medians and the tracing overhead (traced
against untraced median round time) are printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail["round_s_median"]


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.runs)
    plain, traced = [], []
    for seed in seeds:
        result, round_s = run_once(args.workload, seed, spec["run_seconds"], 0)
        plain.append((result, round_s))
        share = Fraction(result["failed"], result["attempted"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({share})", flush=True)
        if args.trace:
            traced.append(run_once(args.workload, seed, spec["run_seconds"], 1))

    report = {"workload": args.workload, "seeds": list(seeds), "metrics": {}}
    print(f"\n{'metric':14s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r, _ in plain]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= m["bound"] / 3 else "  WIDE"
        print(f"{m['name']:14s} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{m['bound']:6.2f}{flag}")
        report["metrics"][m["name"]] = {"q1": q1, "median": med, "q3": q3, "spread": spread,
                                        "unit": m["unit"], "bound": m["bound"]}
    shares = {str(Fraction(r["failed"], r["attempted"])) for r, _ in plain}
    correct = all(r["correct"] for r, _ in plain)
    print(f"failed share per run: {sorted(shares)}; all correct: {correct}")
    report.update(failed_shares=sorted(shares), correct=correct)

    if traced:
        overhead = statistics.median(t for _, t in traced) / statistics.median(t for _, t in plain)
        print(f"\ntracing overhead: traced round {overhead:.2f}x the untraced round")
        report["trace_overhead"] = overhead
        report["per_layer"] = {}
        for m in spec["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in traced]
            med = statistics.median(values)
            report["per_layer"][m["name"]] = med
            print(f"{m['name']:28s} {med:14.6g} {m['unit']}")

    out = HERE / "results" / f"repeat-{args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
