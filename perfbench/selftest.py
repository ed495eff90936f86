"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs ``run.py --tiny`` for each workload with tracing off and on, and checks
that the last line is the result object, that every metric BENCHMARK.json
declares for that mode is present, finite and carries its unit, and that no
operation failed.  It also checks that the benchmark refuses to run, without
printing a result, in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result(proc, declared: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0):
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, declared {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    if "ok_share" in metrics and metrics["ok_share"]["value"] != 1.0:
        problems.append("failed_share is not 0")
    return problems


def bare_directory_refuses() -> list[str]:
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "--workload", "synth-cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"ran in a bare directory: exit {proc.returncode}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[section]}
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            problems = check_result(proc, declared)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok'}  {workload} --trace {trace}", flush=True)
            for problem in problems:
                print(f"      {problem}")
    problems = bare_directory_refuses()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok'}  refuses a directory without the package")
    for problem in problems:
        print(f"      {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
