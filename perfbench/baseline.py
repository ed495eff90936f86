"""Regenerate the committed baseline, perfbench/BASELINE.json.

    python3 perfbench/baseline.py --seeds 201-210

Runs the benchmark once per seed and workload with tracing off, then once
per workload with tracing on, sequentially and at BENCHMARK.json's run
length.  For each end-to-end metric it records every value, the median, the
quartiles and the spread (interquartile distance over the median) next to
the metric's regression bound; for each per-layer metric the traced value.
Diff the file between commits to compare them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
    return result


def summary(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "bound": bound, "values": values}


def versions() -> dict:
    code = "import sys, numpy; print(sys.version.split()[0], numpy.__version__)"
    py, np_version = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, check=True).stdout.split()
    return {"nproc": os.cpu_count(), "python": py, "numpy": np_version,
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 201-210 or 1,2,3")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = seed_list(args.seeds)
    out = {"command": " ".join(["python3", "perfbench/baseline.py", "--seeds", args.seeds]),
           "environment": versions(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"end_to_end": {}, "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs)}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = entry["end_to_end"][metric["name"]] = summary(values, metric["bound"])
            flag = "" if s["spread"] < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name} {metric['name']}: median {s['median']:.6g} {metric['unit']}, "
                  f"spread {s['spread']:.4f} (bound {metric['bound']}){flag}", flush=True)
        traced = run_once(name, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][name] = entry
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
