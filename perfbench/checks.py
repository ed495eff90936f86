"""Correctness checks on a workload's outputs, run outside the timed section.

An operation fails when it exits non-zero, raises, or fails one of these
checks.  The parsers here are deliberately independent of the package's own
readers, so a defect in those readers cannot hide a defect in the output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import carma_hawkes
from carma_hawkes import (
    read_events_csv,
    simulate,
    spec_hash,
    summarize,
    write_events_csv,
)


class CheckFailed(Exception):
    """An output did not meet its correctness check."""


# Errors a malformed output can raise while it is being checked.
CHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError,
                carma_hawkes.CarmaHawkesError)


def _reject_constant(name):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting Infinity, -Infinity and NaN."""
    return json.loads(text, parse_constant=_reject_constant)


def check_times(times, marks, horizon: float, n_comp: int) -> None:
    """Event times strictly increasing, finite, in (0, horizon]; marks valid."""
    prev = 0.0
    for t in times:
        if not (math.isfinite(t) and t > prev):
            raise CheckFailed(f"event time {t!r} after {prev!r} is not increasing")
        prev = t
    if prev > horizon:
        raise CheckFailed(f"last event {prev!r} is after the horizon {horizon!r}")
    if any(m < 1 or m > n_comp for m in marks):
        raise CheckFailed(f"mark outside 1..{n_comp}")


def parse_events(path: Path, horizon: float, n_comp: int):
    """Strictly parse an events CSV: header, one `time,mark` row per line."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[0] != "time,mark" or lines[-1] != "":
        raise CheckFailed(f"{path}: bad header or missing final newline")
    times, marks = [], []
    for line in lines[1:-1]:
        t_str, m_str = line.split(",")
        times.append(float(t_str))
        marks.append(int(m_str))
    check_times(times, marks, horizon, n_comp)
    return times, marks


def ks_of(report, model: str) -> list:
    """[model, component, p-value] of every KS test in a report."""
    return [[model, c.component, c.ks.p_value] for c in report.components if c.ks]


def csv_roundtrip_error(log, path: Path, horizon: float, n_comp: int) -> float:
    """Largest |time parsed back - time simulated| after `write_events_csv`
    writes the log to `path`."""
    write_events_csv(log, path)
    times, _ = parse_events(path, horizon, n_comp)
    return max((abs(a - b) for a, b in zip(times, log.times)), default=0.0)


def check_library_op(op: dict, spec, log, report, override: dict, scratch: Path) -> dict:
    """Checks of one in-process replication of protocol-lib."""
    out = {"events": len(log), "ks": ks_of(report, op["model"]), "failures": []}
    try:
        check_times(log.times, log.marks, op["horizon"], spec.n_components)
        json.dumps(report.to_dict(), allow_nan=False)
        if sum(c.n_events for c in report.components) != len(log):
            raise CheckFailed("component event counts do not add up to the log")
        if op["round"] == 0:
            again = simulate(spec, op["horizon"], rng=op["seed"],
                             override_validation=override[op["model"]])
            if again.times != log.times or again.marks != log.marks:
                raise CheckFailed("same seed gave a different log")
            out["roundtrip_err"] = csv_roundtrip_error(log, scratch / f"{op['model']}.csv",
                                                       op["horizon"], spec.n_components)
    except CHECK_ERRORS as exc:
        out["failures"].append(f"{op['model']} round {op['round']}: {exc}")
    return out


def check_simulate_op(op: dict, spec, scratch: Path, quality: bool) -> dict:
    """Checks of one `carma-hawkes simulate` call.

    Every events file parses, is increasing and ends by the horizon, and its
    sidecar matches.  In round 0 the bytes of replication 0 must equal
    `write_events_csv` of an in-process `simulate` with the same seed, which
    also gives the CSV round-trip error of the times.  With `quality`, every
    replication is read back and diagnosed in-process for KS.
    """
    out = {"events": 0, "ks": [], "failures": []}
    try:
        if op["code"] != 0:
            raise CheckFailed(f"exit code {op['code']}")
        counts = strict_json(Path(op["stdout"]).read_text(encoding="utf-8"))["events"]
        if len(counts) != op["reps"]:
            raise CheckFailed(f"{len(counts)} replications reported, {op['reps']} asked")
        out["events"] = sum(counts)
        digest = spec_hash(spec)
        for k in range(op["reps"]):
            csv = Path(op["out"]) / f"events_{k}.csv"
            meta_path = csv.with_suffix(".meta.json")
            times, _ = parse_events(csv, op["horizon"], spec.n_components)
            meta = strict_json(meta_path.read_text(encoding="utf-8"))
            if (len(times), meta["accepted"]) != (counts[k], counts[k]):
                raise CheckFailed(f"{csv}: event count differs from the summary")
            if (meta["seed"], meta["horizon"], meta["spec_hash"]) != (
                op["seed"] + k, op["horizon"], digest
            ):
                raise CheckFailed(f"{meta_path}: seed, horizon or spec hash differs")
            if quality:
                log = read_events_csv(csv, meta_path)
                out["ks"] += ks_of(summarize(spec, log), op["model"])
            if k == 0 and op["round"] == 0:
                log = simulate(spec, op["horizon"], rng=op["seed"], override_validation=True)
                ref = scratch / f"ref_{op['model']}.csv"
                out["roundtrip_err"] = csv_roundtrip_error(log, ref, op["horizon"],
                                                           spec.n_components)
                if ref.read_bytes() != csv.read_bytes():
                    raise CheckFailed(f"{csv}: bytes differ from an in-process run")
    except CHECK_ERRORS as exc:
        out["failures"].append(f"simulate {op['model']} round {op['round']}: {exc}")
    return out


def reference_report(spec, csv: Path) -> tuple[int, list]:
    """Event count and report components of an in-process `summarize` of
    the log as read back from the events file and its sidecar."""
    log = read_events_csv(csv, csv.with_suffix(".meta.json"))
    return len(log), summarize(spec, log).to_dict()["components"]


def check_diagnose_op(op: dict, input_csv: str, reference: list) -> dict:
    """Checks of one `carma-hawkes diagnose` call.

    The printed report and the report file parse as strict JSON and agree;
    their KS statistics equal those of an in-process `summarize` of the same
    read-back log; each residuals file has one row per residual.
    """
    out = {"ks": [], "failures": []}
    try:
        if op["code"] != 0:
            raise CheckFailed(f"exit code {op['code']}")
        stem = Path(input_csv).stem
        printed = strict_json(Path(op["stdout"]).read_text(encoding="utf-8"))
        report = strict_json((Path(op["out"]) / f"{stem}.report.json").read_text(encoding="utf-8"))
        if printed != report:
            raise CheckFailed("printed report differs from the report file")
        keys = ("component", "n_events", "ks_statistic", "ks_p_value")
        got = [[c[k] for k in keys] for c in report["components"]]
        if got != [[c[k] for k in keys] for c in reference]:
            raise CheckFailed(f"KS results differ from in-process summarize: {got}")
        for comp, n, _, p in got:
            residuals = Path(op["out"]) / f"{stem}.residuals_{comp}.csv"
            rows = residuals.read_text(encoding="utf-8").count("\n") - 1
            if rows != n:
                raise CheckFailed(f"{residuals}: {rows} rows for {n} residuals")
            if p is not None:
                out["ks"].append([op["model"], comp, p])
    except CHECK_ERRORS as exc:
        out["failures"].append(f"diagnose {op['model']} round {op['round']}: {exc}")
    return out
