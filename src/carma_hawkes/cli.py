"""Command-line front end: simulate, validate, diagnose, bench.

Exit codes, from _failure, the one map of an error's type to its code; an
error prints one `error:` line.  0 success; 2 invalid configuration or
input: a model spec or events file that cannot be read, an OSError (an
unusable path), every other CarmaHawkesError (HorizonNonPositive,
SpecLogMismatch, ZeroEigenvalue, DegenerateEigenvalues, ...); 3 a spec that
fails validation without --force, or NonStationarySpec; 4 BoundViolation,
the envelope not dominating (an internal assertion).  Any other exception
is a bug, and ends in its traceback.

`simulate` and `bench` split their replications over
P = min(reps, usable CPUs) processes, the CPUs being those of the process's
affinity mask.  The calling process runs the replications k = 0 (mod P);
P - 1 workers forked from it run k = i (mod P), write their own files and
send back only each replication's small results, or their first error.
Replication k is seeded seed + k wherever it runs, so every file is the
same byte for byte whatever P is.  The error of the lowest failing k gives
the exit code and the one `error:` line, as a one-process loop would.
Where the platform has no fork or no affinity mask, P is 1.

A `simulate` replication hands thinning.simulate_into the sink of
thinning.events_csv, the one writer of events files, so its file is written
slice by slice and a process holds one slice of events, not its log,
whatever the horizon.  The writer writes under a temporary name
(thinning.part_path), renames the file once the run is done and removes it
if the run fails, so a replication that fails leaves no events file.  A
worker killed by its caller (interrupted, say) or dying on its own cannot
remove its own, so the calling process also removes every replication's
temporary file, once its workers are reaped.  The replication's sidecar is
written before that rename, and its trace after it; if either fails, the
replication removes what it wrote, so a replication that fails leaves none
of its events file, sidecar or trace.  Only --trace-intensity reads the
whole log, back from that file.  `bench` drops each slice.

The constants cache.  Every command loads its spec through _load_spec,
which puts the spec's Dynamics and ValidationReport into the caches of
model.dynamics and model.validate from one JSON entry per spec under
$XDG_CACHE_HOME/carma-hawkes (~/.cache/carma-hawkes where that is unset),
or computes them, with numpy, and writes the entry.  The entry holds every
double by float.hex and is used only under the key it was written under:
the package's source, numpy's location and version, the Python build and
the host (_entry_key), so a warm process uses exactly the doubles it would
compute.  A warm `simulate` (without --trace-intensity), `validate` or
`bench` then loads no numpy at all: importing this module loads none, and
numpy is imported only inside the functions that make or read arrays.  A
missing, stale or damaged entry, or a cache directory that cannot be
written, only means computing in process.  Library calls never read or
write the cache.

main() leaves CPython's cyclic collector as it finds it, and importing this
module does not touch it: the process entry point, __main__.run, keeps the
collector off while this module loads and freezes what the imports built.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import itertools
import json
import math
import os
import pickle
import signal
import sys
import threading
import time
import traceback
import warnings
from pathlib import Path

from .diagnostics import summarize, write_report_json, write_residuals_csv
from .errors import BoundViolation, CarmaHawkesError, NonStationarySpec
from .model import (
    Dynamics,
    ValidationReport,
    _sha256,
    canonical_json,
    dynamics,
    intensity_path,
    load_spec,
    seed_constants,
    spec_hash,
    spec_to_dict,
    validate,
)
from .spectral import _is_int

# simulate and write_events_csv are not called here, but perfbench's tracer
# wraps them in this module's namespace
from .thinning import (  # noqa: F401
    _check_horizon,
    bound_path,
    events_csv,
    part_path,
    read_events_csv,
    simulate,
    simulate_into,
    write_csv_rows,
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


def _load_spec(path: str):
    """The spec at path, every command's one way in: its constants are then
    in the caches of dynamics and validate (_seed_constants)."""
    try:
        spec = load_spec(path)
    except (OSError, ValueError, TypeError) as exc:
        raise CarmaHawkesError(f"cannot load model spec from {path}: {exc}") from exc
    _seed_constants(spec)
    return spec


# ---------------------------------------------------------------------------
# the constants cache: one JSON entry per spec, holding its Dynamics and
# ValidationReport exactly, so a warm process never loads numpy for them


def _cache_dir() -> Path | None:
    """The cache's directory, by the XDG Base Directory spec:
    $XDG_CACHE_HOME/carma-hawkes, or ~/.cache/carma-hawkes where that
    variable is unset, empty or a relative path; None, and no cache, where
    there is no home directory either."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "carma-hawkes") if os.path.isabs(base) else None


def _entry_key() -> dict:
    """What the computed doubles depend on besides the spec: the package's
    source (a digest of its modules), numpy's location and version (a
    digest of its version.py, read without importing numpy), the Python
    build, and the host's name and machine, as OpenBLAS picks its kernels
    by CPU."""
    source = _sha256()
    for module in sorted(Path(__file__).parent.glob("*.py")):
        source.update(module.name.encode() + b"\0" + module.read_bytes())
    numpy = importlib.util.find_spec("numpy")
    origin = numpy and numpy.origin
    version = None
    if origin:
        with contextlib.suppress(OSError):
            version = _sha256(Path(origin).with_name("version.py").read_bytes()).hexdigest()
    if hasattr(os, "uname"):
        host = [os.uname().nodename, os.uname().machine]
    else:  # Windows, where platform asks the system instead
        import platform

        host = [platform.node(), platform.machine()]
    return {
        "source": source.hexdigest(),
        "numpy": [origin, version],
        "python": sys.version,
        "host": host,
    }


def _encode(value):
    """A leaf tree of a Dynamics or ValidationReport field as JSON: a tuple
    as a list, a float as its float.hex string, a complex number as
    {"j": [real, imag]} in float.hex, a string as {"s": text}; ints and
    None as they are."""
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return {"j": [value.real.hex(), value.imag.hex()]}
    if isinstance(value, str):
        return {"s": value}
    if _is_int(value):
        return int(value)
    if value is None:
        return value
    raise TypeError(f"no entry form for {type(value).__name__}")


def _decode(value):
    """The leaf tree _encode gave value for; a ValueError or TypeError for
    anything else."""
    if isinstance(value, list):
        return tuple(_decode(v) for v in value)
    if isinstance(value, str):
        return float.fromhex(value)
    if isinstance(value, dict):
        (tag, leaf), = value.items()
        if tag == "j":
            real, imag = leaf
            return complex(float.fromhex(real), float.fromhex(imag))
        if tag == "s" and isinstance(leaf, str):
            return leaf
        raise ValueError(f"unknown entry leaf {value!r}")
    if value is None or _is_int(value):
        return value
    raise TypeError(f"unknown entry leaf {value!r}")


# The records an entry holds, by the name they are stored under.
_ENTRY_RECORDS = {"dynamics": Dynamics, "report": ValidationReport}


def _entry_payload(dyn: Dynamics, report: ValidationReport) -> dict:
    return {
        name: {field: _encode(getattr(record, field)) for field in cls.__dataclass_fields__}
        for (name, cls), record in zip(_ENTRY_RECORDS.items(), (dyn, report))
    }


def _payload_digest(payload: dict) -> str:
    return _sha256(canonical_json(payload).encode()).hexdigest()


def read_entry(path: Path, key: dict, spec_json: str):
    """The (Dynamics, ValidationReport) the entry at path holds, or None.
    None, and so a computation in process, for a missing or unreadable
    file, one that is not the JSON write_entry writes, one with another key
    or another spec's canonical JSON, or one whose payload does not match
    its digest (an edited number).  JSON alone is read, so reading an
    entry runs no code."""
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        payload = entry["payload"]
        if (entry["key"], entry["spec"], entry["digest"]) != (key, spec_json, _payload_digest(payload)):
            return None
        return tuple(
            cls(**{field: _decode(value) for field, value in payload[name].items()})
            for name, cls in _ENTRY_RECORDS.items()
        )
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError):
        # what reading, parsing or decoding a damaged entry raises
        return None


def write_entry(path: Path, key: dict, spec_json: str, dyn: Dynamics,
                report: ValidationReport) -> None:
    """Write the entry of a spec (its canonical JSON, spec_json) at path,
    under a temporary name of this process's and then renamed, so a
    concurrent reader never sees part of it.  A directory that cannot be
    made or written leaves the cache as it was, silently."""
    payload = _entry_payload(dyn, report)
    text = json.dumps({"key": key, "spec": spec_json, "digest": _payload_digest(payload),
                       "payload": payload})
    part = path.with_name(f"{path.name}.{os.getpid()}.part")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        part.write_text(text, encoding="utf-8")
        os.replace(part, path)
    except OSError:
        with contextlib.suppress(OSError):
            part.unlink()


def _seed_constants(spec) -> None:
    """Put the spec's Dynamics and ValidationReport into the caches of
    dynamics and validate (model.seed_constants) from its cache entry,
    <cache dir>/<spec_hash>.json; on a miss, compute them here and write
    the entry.  A spec whose dynamics raises writes no entry: the command
    meets the error where it meets it without the cache."""
    cache = _cache_dir()
    if cache is None:
        return
    path = cache / f"{spec_hash(spec)}.json"
    key, spec_json = _entry_key(), canonical_json(spec_to_dict(spec))
    found = read_entry(path, key, spec_json)
    if found is not None:
        seed_constants(spec, *found)
        return
    try:
        dyn = dynamics(spec)
    except CarmaHawkesError:
        return
    write_entry(path, key, spec_json, dyn, validate(spec))


def _write_trace(spec, log, horizon: float, dt: float, path: Path) -> None:
    import numpy as np

    grid = np.arange(0.0, horizon + dt / 2, dt)
    lam = intensity_path(spec, log, grid).reshape(len(grid), -1)
    n_comp = lam.shape[1]
    names = [f"intensity{c}" for c in range(1, n_comp + 1)] if n_comp > 1 else ["intensity"]
    bar = bound_path(spec, log, grid)
    row = ",".join(["%.15g"] * (n_comp + 2)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["time", *names, "bound"]) + "\n")
        write_csv_rows(fh, row, (grid, *lam.T, bar))


def _checked_run(args):
    """The spec, after the checks simulate and bench share."""
    spec = _load_spec(args.model)
    _check_horizon(args.horizon)
    if args.reps < 1:
        raise CarmaHawkesError(f"reps must be >= 1, got {args.reps}")
    if args.seed < 0:
        raise CarmaHawkesError("seed must be a non-negative integer")
    report = validate(spec)
    if not report.admissible and not args.force:
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
        raise NonStationarySpec(
            f"spec failed validation ({', '.join(report.flags)}); use --force to simulate anyway"
        )
    return spec


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where there is no fork or no affinity
    mask, and while other Python threads run, which a fork could catch
    holding a lock."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _processes(reps: int) -> int:
    return min(reps, _usable_cpus())


def _share(each, ks):
    """Replications ks in order: ({k: each(k)}, None), or the results
    before the first error and (k, that error)."""
    results = {}
    for k in ks:
        try:
            results[k] = each(k)
        except Exception as exc:
            return results, (k, exc)
    return results, None


def _failure(exc):
    """(exit code, error line) of an error: the one map from exception type
    to exit code.  The code is None, and the line a traceback, for an error
    the CLI does not expect."""
    if isinstance(exc, BoundViolation):
        return EXIT_BOUND_VIOLATION, f"envelope violation during simulation: {exc}"
    if isinstance(exc, NonStationarySpec):
        return EXIT_VALIDATION, str(exc)
    if isinstance(exc, (CarmaHawkesError, OSError)):
        return EXIT_BAD_CONFIG, str(exc)
    return None, "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


def _worker(each, ks, parent: int, fd: int) -> None:
    """A forked worker's share: replications ks while `parent` is alive,
    then (results, failure or None) pickled into the pipe fd."""
    alive = itertools.takewhile(lambda k: os.getppid() == parent, ks)
    results, failed = _share(each, alive)
    with os.fdopen(fd, "wb") as pipe:
        pickle.dump((results, failed and (failed[0], *_failure(failed[1]))), pipe)


def _collect(pid: int, fd: int, first: int):
    """A worker's (results, failure or None), read to the end of its pipe;
    the worker is reaped before this returns."""
    with os.fdopen(fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        return {}, (first, None, f"the worker exited with status {code} and sent no results")


def _replicate(reps: int, each):
    """Replications k = 0..reps-1 over _processes(reps) processes (see the
    module docstring): each(k)'s results in order of k, and the exit code."""
    procs = _processes(reps)
    parent = os.getpid()
    workers = {}  # pid -> (read end of its pipe, its first replication)
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for i in range(1, procs):
            r, w = os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns of any thread at a fork; the only ones
                # left are OpenBLAS's, which it stops across a fork itself
                warnings.filterwarnings("ignore", "This process .* is multi-threaded")
                pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    _worker(each, range(i, reps, procs), parent, w)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            workers[pid] = (r, i)
        results, failed = _share(each, range(0, reps, procs))
        failures = [] if failed is None else [(failed[0], *_failure(failed[1]), failed[1])]
        while workers:
            pid = next(iter(workers))
            theirs, failure = _collect(pid, *workers[pid])
            del workers[pid]
            results.update(theirs)
            if failure is not None:
                failures.append((*failure, None))
    finally:
        # workers left by an exception; an interrupted _collect may already
        # have closed the pipe or reaped the worker
        for pid, (fd, _) in workers.items():
            with contextlib.suppress(OSError):
                os.close(fd)
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if not failures:
        return [results[k] for k in range(reps)], EXIT_OK
    k, code, message, exc = min(failures, key=lambda f: f[0])
    if code is not None:
        return [], _fail(message, code)
    if exc is not None:
        raise exc
    raise RuntimeError(f"replication {k} failed in a worker process:\n{message}")


def cmd_simulate(args) -> int:
    step = args.trace_intensity
    if step is not None and not (math.isfinite(step) and step > 0):
        raise CarmaHawkesError("--trace-intensity step must be finite and > 0")
    spec = _checked_run(args)
    if step is not None and args.horizon / step + 1 > TRACE_MAX_ROWS:
        raise CarmaHawkesError(
            f"--trace-intensity step {step} gives more than {TRACE_MAX_ROWS} grid rows"
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write(k):
        # the sidecar is written before the events file is renamed, and what
        # this replication wrote is removed if a later step fails
        path = out_dir / f"events_{k}.csv"
        written = []
        try:
            with events_csv(path) as sink:
                meta = simulate_into(spec, args.horizon, sink, rng=args.seed + k,
                                     override_validation=True)
                written.append(out_dir / f"events_{k}.meta.json")
                write_meta_json(meta, written[-1])
            written.append(path)
            if step is not None:
                written.append(out_dir / f"trace_{k}.csv")
                _write_trace(spec, read_events_csv(path), args.horizon, step, written[-1])
        except BaseException:
            for done in written:
                with contextlib.suppress(OSError):
                    done.unlink()
            raise
        return meta.accepted, meta.acceptance_ratio

    try:
        results, code = _replicate(args.reps, write)
    finally:
        # the temporary file of a worker killed mid-run: every worker is
        # reaped by now, and every other run renamed or removed its own
        for k in range(args.reps):
            Path(part_path(out_dir / f"events_{k}.csv")).unlink(missing_ok=True)
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
    report = validate(_load_spec(args.model))
    print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    return EXIT_OK if report.admissible else EXIT_VALIDATION


def cmd_diagnose(args) -> int:
    spec = _load_spec(args.model)
    events_path = Path(args.events)
    if not events_path.exists():
        raise CarmaHawkesError(f"events file not found: {events_path}")
    meta_path = events_path.parent / (events_path.stem + ".meta.json")
    try:
        log = read_events_csv(events_path, meta_path if meta_path.exists() else None)
    except ValueError as exc:
        raise CarmaHawkesError(f"cannot parse events file: {exc}") from exc
    report = summarize(spec, log)

    out_dir = Path(args.out) if args.out else events_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = events_path.stem
    write_report_json(report, out_dir / f"{stem}.report.json")
    for series in report.residuals:
        write_residuals_csv(series, out_dir / f"{stem}.residuals_{series.component}.csv")
    print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = _checked_run(args)

    def run(k):
        meta = simulate_into(spec, args.horizon, lambda times, marks: None, rng=args.seed + k,
                             override_validation=True)
        return meta.accepted, meta.proposed, meta.squeezed, meta.wall_time_seconds

    t0 = time.perf_counter()
    results, code = _replicate(args.reps, run)
    wall = time.perf_counter() - t0
    if code != EXIT_OK:
        return code
    total_events, total_proposed, total_squeezed, simulate_seconds = (
        sum(col) for col in zip(*results)
    )
    result = {
        "model": args.model,
        "horizon": args.horizon,
        "reps": args.reps,
        "processes": _processes(args.reps),
        "events": total_events,
        "proposed": total_proposed,
        "wall_seconds": wall,
        "simulate_seconds": simulate_seconds,
        # a rate over no measurable time is null, as JSON has no infinity
        "events_per_sec": total_events / wall if wall > 0 else None,
        "proposals_per_sec": total_proposed / wall if wall > 0 else None,
        "acceptance_ratio": total_events / total_proposed if total_proposed else 0.0,
        "squeezed_share": total_squeezed / total_proposed if total_proposed else 0.0,
    }
    print(json.dumps(result, indent=2, allow_nan=False))
    return EXIT_OK


def makes_arrays(args) -> bool:
    """Whether the command args parsed to makes arrays, and so always loads
    numpy: `diagnose`, and `simulate` with --trace-intensity."""
    return args.command == "diagnose" or getattr(args, "trace_intensity", None) is not None


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
        code, message = _failure(exc)
        return _fail(message, code)


if __name__ == "__main__":
    # the process entry point is __main__.run, which this launch would bypass
    sys.exit(_fail("run the command line as `python -m carma_hawkes` or `carma-hawkes`",
                   EXIT_BAD_CONFIG))
