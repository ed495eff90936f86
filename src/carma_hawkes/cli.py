"""Command-line front end: simulate, validate, diagnose, bench.

Exit codes: 0 success, 2 invalid configuration or input (an unusable path
included), 3 validation failure without --force, 4 runtime envelope
violation (internal assertion).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .diagnostics import summarize, write_report_json, write_residuals_csv
from .errors import (
    BoundViolation,
    CarmaHawkesError,
    HorizonNonPositive,
    NonStationarySpec,
    SpecLogMismatch,
)
from .model import intensity_path, load_spec, spec_hash, validate
from .thinning import (
    bound_path,
    read_events_csv,
    simulate,
    write_events_csv,
    write_meta_json,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_BOUND_VIOLATION = 4

# Largest --trace-intensity grid, in rows: horizon / step + 1 beyond it is
# refused before any simulation runs.
TRACE_MAX_ROWS = 10**7


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_spec_or_none(path: str):
    try:
        return load_spec(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot load model spec from {path}: {exc}", file=sys.stderr)
        return None


def _write_trace(spec, log, horizon: float, dt: float, path: Path) -> None:
    grid = np.arange(0.0, horizon + dt / 2, dt)
    lam = intensity_path(spec, log, grid).reshape(len(grid), -1)
    n_comp = lam.shape[1]
    names = [f"intensity{c}" for c in range(1, n_comp + 1)] if n_comp > 1 else ["intensity"]
    bar = bound_path(spec, log, grid)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["time", *names, "bound"]) + "\n")
        for t, row, b in zip(grid, lam, bar):
            fh.write(",".join(f"{v:.15g}" for v in (t, *row, b)) + "\n")


def _checked_run(args):
    """The spec and the checks simulate and bench share: (spec, None) or (None, exit code)."""
    spec = _load_spec_or_none(args.model)
    if spec is None:
        return None, EXIT_BAD_CONFIG
    if not (math.isfinite(args.horizon) and args.horizon > 0):
        return None, _fail(f"horizon must be > 0, got {args.horizon}", EXIT_BAD_CONFIG)
    if args.reps < 1:
        return None, _fail(f"reps must be >= 1, got {args.reps}", EXIT_BAD_CONFIG)
    if args.seed < 0:
        return None, _fail("seed must be a non-negative integer", EXIT_BAD_CONFIG)
    report = validate(spec)
    if not report.admissible and not args.force:
        print(json.dumps(report.to_dict(), indent=2))
        return None, _fail(
            f"spec failed validation ({', '.join(report.flags)}); use --force to simulate anyway",
            EXIT_VALIDATION,
        )
    return spec, None


def _replicate(spec, args, each):
    """Replications k = 0..reps-1 with seed+k: each(k, log)'s results and the exit code."""
    results = []
    try:
        for k in range(args.reps):
            log = simulate(spec, args.horizon, rng=args.seed + k, override_validation=True)
            results.append(each(k, log))
    except BoundViolation as exc:
        return results, _fail(f"envelope violation during simulation: {exc}", EXIT_BOUND_VIOLATION)
    except (NonStationarySpec, HorizonNonPositive) as exc:
        return results, _fail(str(exc), EXIT_VALIDATION)
    return results, EXIT_OK


def cmd_simulate(args) -> int:
    step = args.trace_intensity
    if step is not None and not (math.isfinite(step) and step > 0):
        return _fail("--trace-intensity step must be finite and > 0", EXIT_BAD_CONFIG)
    spec, code = _checked_run(args)
    if spec is None:
        return code
    if step is not None and args.horizon / step + 1 > TRACE_MAX_ROWS:
        return _fail(
            f"--trace-intensity step {step} gives more than {TRACE_MAX_ROWS} grid rows",
            EXIT_BAD_CONFIG,
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write(k, log):
        write_events_csv(log, out_dir / f"events_{k}.csv")
        write_meta_json(log, out_dir / f"events_{k}.meta.json")
        if step is not None:
            _write_trace(spec, log, args.horizon, step, out_dir / f"trace_{k}.csv")
        return len(log), log.meta.acceptance_ratio

    results, code = _replicate(spec, args, write)
    if code != EXIT_OK:
        return code
    summary = {
        "out": str(out_dir),
        "replications": args.reps,
        "seed": args.seed,
        "horizon": args.horizon,
        "events": [n for n, _ in results],
        "acceptance_ratio": [r for _, r in results],
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = _load_spec_or_none(args.model)
    if spec is None:
        return EXIT_BAD_CONFIG
    report = validate(spec)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.admissible else EXIT_VALIDATION


def cmd_diagnose(args) -> int:
    spec = _load_spec_or_none(args.model)
    if spec is None:
        return EXIT_BAD_CONFIG
    events_path = Path(args.events)
    if not events_path.exists():
        return _fail(f"events file not found: {events_path}", EXIT_BAD_CONFIG)
    meta_path = events_path.parent / (events_path.stem + ".meta.json")
    try:
        log = read_events_csv(events_path, meta_path if meta_path.exists() else None)
    except ValueError as exc:
        return _fail(f"cannot parse events file: {exc}", EXIT_BAD_CONFIG)
    try:
        report = summarize(spec, log)
    except SpecLogMismatch as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)

    out_dir = Path(args.out) if args.out else events_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = events_path.stem
    write_report_json(report, out_dir / f"{stem}.report.json")
    for series in report.residuals:
        write_residuals_csv(series, out_dir / f"{stem}.residuals_{series.component}.csv")
    print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    return EXIT_OK


def cmd_bench(args) -> int:
    spec, code = _checked_run(args)
    if spec is None:
        return code
    t0 = time.perf_counter()
    results, code = _replicate(
        spec, args, lambda k, log: (len(log), log.meta.proposed, log.meta.squeezed)
    )
    wall = time.perf_counter() - t0
    if code != EXIT_OK:
        return code
    total_events, total_proposed, total_squeezed = (sum(col) for col in zip(*results))
    result = {
        "model": args.model,
        "horizon": args.horizon,
        "reps": args.reps,
        "events": total_events,
        "proposed": total_proposed,
        "wall_seconds": wall,
        "events_per_sec": total_events / wall if wall > 0 else math.inf,
        "proposals_per_sec": total_proposed / wall if wall > 0 else math.inf,
        "acceptance_ratio": total_events / total_proposed if total_proposed else 0.0,
        "squeezed_share": total_squeezed / total_proposed if total_proposed else 0.0,
    }
    print(json.dumps(result, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carma-hawkes",
        description="Simulate and diagnose self-exciting point processes "
        "with state-space excitation kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate event logs by thinning")
    sim.add_argument("--model", required=True, help="path to a model spec JSON")
    sim.add_argument("--horizon", type=float, required=True, help="simulation horizon")
    sim.add_argument("--seed", type=int, required=True, help="base seed; replication k uses seed+k")
    sim.add_argument("--reps", type=int, default=1, help="number of replications")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--force", action="store_true", help="simulate despite validation failures")
    sim.add_argument(
        "--trace-intensity",
        type=float,
        default=None,
        metavar="DT",
        help="also write a sampled intensity/envelope grid with this step "
        f"(at most {TRACE_MAX_ROWS:,} rows)",
    )
    sim.set_defaults(func=cmd_simulate)

    val = sub.add_parser("validate", help="print an admissibility report")
    val.add_argument("--model", required=True)
    val.set_defaults(func=cmd_validate)

    diag = sub.add_parser("diagnose", help="residual analysis of an event log")
    diag.add_argument("--model", required=True)
    diag.add_argument("--events", required=True, help="events CSV produced by simulate")
    diag.add_argument("--out", default=None, help="output directory (default: events dir)")
    diag.set_defaults(func=cmd_diagnose)

    bench = sub.add_parser("bench", help="throughput and acceptance-ratio benchmark")
    bench.add_argument("--model", required=True)
    bench.add_argument("--horizon", type=float, required=True)
    bench.add_argument("--reps", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--force", action="store_true")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CarmaHawkesError, OSError) as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
