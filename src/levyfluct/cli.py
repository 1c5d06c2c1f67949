"""Command line entry point.

Subcommands: validate (invariant suites), scale-table, fluct-table,
intensity-table (grid emission as CSV or JSON), and simulate (Monte
Carlo estimators).  Exit codes: 0 success, 1 failed checks or runtime
errors, 2 model/config rejection and usage errors.  JSON reports carry
"schema": "levy-fluct/1"; column order is part of the schema.  Output
is byte-identical across runs of the same invocation when
--deterministic suppresses the one timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import excursion, fluctuation, montecarlo
from .errors import (
    BadConfigError,
    BadParameterError,
    BoundedVariationError,
    LevyFluctError,
    ModelFormatError,
    _check_arg,
)
from .model import _as_number, parse_model
from .scale import make_engine
from .validation import TOLERANCES, _mc_configs, run_validation

_SCHEMA = "levy-fluct/1"


def _load_model(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"model file {path}: {exc.strerror}") from exc
    try:
        return parse_model(text)
    except BadParameterError as exc:
        # constructor-level rejection of a syntactically valid file is still
        # a bad model file, so it shares the format-error exit code
        raise ModelFormatError(str(exc)) from exc


def _bad_config(build, *args, **kwargs):
    # an out-of-range Monte Carlo setting is a bad config, as in _load_model
    try:
        return build(*args, **kwargs)
    except BadConfigError as exc:
        raise ModelFormatError(str(exc)) from exc


def _float_list(text):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{piece!r} is not a number")
    if not out:
        raise argparse.ArgumentTypeError("at least one value is required")
    return out


def _emit(args, payload, columns, rows):
    """Write the report as JSON (full payload) or CSV (the row table)."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stamp(args, payload):
    if not args.deterministic:
        payload["generatedAt"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return payload


def _tolerance(text):
    """Parse a tolerance: a finite number >= 0, so a report never holds NaN."""
    try:
        return _check_arg("tolerance", float(text), strict=False)
    except ValueError as exc:  # BadParameterError is one too
        raise argparse.ArgumentTypeError(str(exc))


def _tol_pair(pair):
    """Parse one NAME=VALUE tolerance override at argument-parsing time."""
    name, _, value = pair.partition("=")
    if name not in TOLERANCES:
        raise argparse.ArgumentTypeError(
            f"unknown check {name!r}; see levyfluct.validation.TOLERANCES"
        )
    return name, _tolerance(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args):
    model = _load_model(args.model)
    if args.with_mc:  # bad Monte Carlo settings fail before any suite runs
        _bad_config(_mc_configs, model, args.paths, args.dt, args.seed)
    report = run_validation(
        model,
        with_mc=args.with_mc,
        paths=args.paths,
        dt=args.dt,
        seed=args.seed,
        tolerances=dict(args.tol or ()),
    )
    payload = _stamp(args, report.as_dict())
    rows = [
        (c["name"], c["status"], c["measured"], c["tolerance"], c["context"])
        for c in payload["checks"]
    ]
    _emit(args, payload, ("name", "status", "measured", "tolerance", "context"), rows)
    return 0 if report.ok else 1


def cmd_scale_table(args):
    model = _load_model(args.model)
    engine = make_engine(model)
    rows = []
    for q in args.qs:
        for x in args.xs:
            wd = engine.w_detail(q, x)
            zd = engine.z_detail(q, x)
            wp = engine.w_prime_detail(q, x)
            rows.append((q, x, wd.value, zd.value, wp.value, wd.method, wd.est_error))
    columns = ("q", "x", "W", "Z", "Wprime", "method", "est_error")
    payload = _stamp(args, {
        "schema": _SCHEMA,
        "table": "scale",
        "columns": list(columns),
        "rows": [list(r) for r in rows],
    })
    _emit(args, payload, columns, rows)
    return 0


def cmd_fluct_table(args):
    model = _load_model(args.model)
    engine = make_engine(model)
    rows = []
    for beta in args.betas:
        for x in args.xs:
            rows.append((
                beta,
                x,
                fluctuation.resolvent_density(engine, beta, x),
                fluctuation.h_beta(engine, beta, x),
                fluctuation.hitting_laplace(engine, beta, x),
                fluctuation.passage_below_laplace(engine, beta, x),
                fluctuation.creeping_probability(engine, x),
                fluctuation.survival_probability(engine, x),
            ))
    columns = ("beta", "x", "resolvent", "h", "hitting", "passage",
               "creeping", "survival")
    payload = _stamp(args, {
        "schema": _SCHEMA,
        "table": "fluctuation",
        "columns": list(columns),
        "rows": [list(r) for r in rows],
    })
    _emit(args, payload, columns, rows)
    return 0


def cmd_intensity_table(args):
    model = _load_model(args.model)
    engine = make_engine(model)
    tables = [excursion.intensity_table(engine, beta) for beta in args.betas]
    columns = ("beta", "total", "upperCreep", "stayPositiveForever",
               "crossBefore", "negativeStartFinite", "negativeStartInfinite",
               "crossAfter", "residual")
    rows = [tuple(t.as_dict()[c] for c in columns) for t in tables]
    ok = all(abs(t.residual) <= args.tolerance * t.total for t in tables)
    payload = _stamp(args, {
        "schema": _SCHEMA,
        "table": "intensity",
        "tolerance": args.tolerance,
        "columns": list(columns),
        "rows": [list(r) for r in rows],
        "withinTolerance": ok,
    })
    _emit(args, payload, columns, rows)
    return 0 if ok else 1


_ESTIMATORS = {
    "upcross": lambda model, cfg, level, rate:
        montecarlo.estimate_upcross_laplace(model, cfg, level, rate),
    "passage": lambda model, cfg, level, rate:
        montecarlo.estimate_passage_below_laplace(model, cfg, level, rate),
    "creep": lambda model, cfg, level, rate:
        montecarlo.estimate_creeping(model, cfg, level),
    "survive": lambda model, cfg, level, rate:
        montecarlo.estimate_survival(model, cfg, level),
}

_MODE_NAMES = {
    "DriftOnly": "drift-only",
    "GaussianCompensation": "gaussian-compensation",
}


# the fields of an MC config file: numbers, integers, or a mode name
_CONFIG_FIELDS = {
    "dt": float, "horizon": float, "smallJumpCutoff": float,
    "paths": int, "seed": int, "smallJumpMode": str,
}


def _config_fields(data):
    # check each field of a config file as model_from_dict checks a model
    if not isinstance(data, dict):
        raise ModelFormatError("config: expected a JSON object")
    extra = set(data) - set(_CONFIG_FIELDS)
    if extra:
        raise ModelFormatError(f"config: unknown field(s) {sorted(extra)}")
    out = {}
    for name, value in data.items():
        kind = _CONFIG_FIELDS[name]
        if kind is float:
            value = _as_number(value, f"config {name}")
        elif kind is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ModelFormatError(f"config {name}: expected an integer, got {value!r}")
        elif kind is str and not (isinstance(value, str) and value in _MODE_NAMES):
            raise ModelFormatError(
                f"config {name}: expected DriftOnly or GaussianCompensation, got {value!r}"
            )
        out[name] = value
    return out


def _mc_config(args):
    base = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = _config_fields(json.load(fh))
        except OSError as exc:
            raise ModelFormatError(f"config file {args.config}: {exc.strerror}")
        except json.JSONDecodeError as exc:
            raise ModelFormatError(
                f"config JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
            )

    def pick(flag, name, default):
        # a flag wins over the file
        return flag if flag is not None else base.get(name, default)

    return _bad_config(
        montecarlo.MCConfig,
        dt=pick(args.dt, "dt", 1e-3),
        paths=pick(args.paths, "paths", 10000),
        horizon=pick(args.horizon, "horizon", None),
        seed=pick(args.seed, "seed", 0),
        small_jump_cutoff=base.get("smallJumpCutoff"),
        small_jump_mode=_MODE_NAMES[base.get("smallJumpMode", "GaussianCompensation")],
    )


def cmd_simulate(args):
    model = _load_model(args.model)
    cfg = _mc_config(args)
    run = _ESTIMATORS[args.estimator]
    results = []
    for level in args.xs:
        for rate in args.qs:
            est = run(model, cfg, level, rate)
            results.append({
                "level": level,
                "rate": rate,
                "estimate": est.mean,
                "stderr": est.stderr,
                "target": est.analytic_target,
                "zscore": est.z_score,
                "truncationAllowance": est.truncation_allowance,
                "n": est.n,
                "dt": cfg.dt,
                "paths": cfg.paths,
                "seed": cfg.seed,
            })
    payload = _stamp(args, {
        "schema": _SCHEMA,
        "estimator": args.estimator,
        "results": results,
    })
    columns = ("level", "rate", "estimate", "stderr", "target", "zscore",
               "truncationAllowance", "n", "dt", "paths", "seed")
    rows = [tuple(r[c] for c in columns) for r in results]
    _emit(args, payload, columns, rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="levy-fluct",
        description="Scale functions, fluctuation identities, excursion "
                    "intensities, and Monte Carlo cross-checks for "
                    "spectrally negative Levy processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--model", required=True, help="model JSON file")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="json")
            p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--deterministic", action="store_true",
                       help="omit the timestamp so identical runs are byte-identical")

    p = sub.add_parser("validate", help="run every invariant suite on one model")
    common(p)
    p.add_argument("--with-mc", action="store_true",
                   help="add Monte Carlo estimator checks")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", action="append", type=_tol_pair, metavar="NAME=VALUE",
                   help="override one check tolerance (repeatable)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("scale-table", help="W, Z, W' on a (q, x) grid")
    common(p)
    p.add_argument("--qs", type=_float_list,
                   default=[0.0, 0.5, 2.5], help="comma-separated q values")
    p.add_argument("--xs", type=_float_list,
                   default=[0.1, 0.5, 1.0, 2.0, 5.0], help="comma-separated x values")
    p.set_defaults(func=cmd_scale_table)

    p = sub.add_parser("fluct-table",
                       help="resolvent, h, hitting, passage, creeping, survival")
    common(p)
    p.add_argument("--betas", type=_float_list,
                   default=[0.5, 2.5], help="comma-separated killing rates")
    p.add_argument("--xs", type=_float_list,
                   default=[0.1, 0.5, 1.0, 2.0, 5.0])
    p.set_defaults(func=cmd_fluct_table)

    p = sub.add_parser("intensity-table", help="excursion intensities per beta")
    common(p)
    p.add_argument("--betas", type=_float_list,
                   default=[0.1, 0.5, 2.5, 10.0])
    p.add_argument("--tolerance", type=_tolerance, default=1e-6,
                   help="relative residual bound deciding the exit code")
    p.set_defaults(func=cmd_intensity_table)

    p = sub.add_parser("simulate", help="Monte Carlo estimator on a grid")
    common(p)
    p.add_argument("--estimator", required=True, choices=sorted(_ESTIMATORS))
    p.add_argument("--config", help="MC config JSON "
                   "(dt, horizon, paths, seed, smallJumpCutoff, smallJumpMode)")
    p.add_argument("--xs", type=_float_list, default=[1.0],
                   help="levels (a for upcross, x otherwise)")
    p.add_argument("--qs", type=_float_list, default=[2.5],
                   help="Laplace rates (ignored by creep and survive)")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None,
                   help="required for zero-mean models, which never default one")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelFormatError, BoundedVariationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LevyFluctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
