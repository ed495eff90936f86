"""End-to-end and per-layer benchmark of carma-hawkes.

    python3 perfbench/run.py --workload synth-cli --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is taken from the
checkout's ``src`` directory and the models from ``models``.

Workloads (closed loop, one operation at a time; see BENCHMARK.json):

* synth-cli     -- ``carma-hawkes simulate`` in fresh processes
* diagnose-cli  -- ``carma-hawkes diagnose`` in fresh processes on event
                   files generated from the seed before timing starts
* protocol-lib  -- in-process ``simulate`` -> ``summarize`` over all models

With ``--trace 0`` the run measures the end-to-end metrics, with tracing off.
With ``--trace 1`` it runs the workload twice more in fresh interpreters,
once plain and once with spans around the package's public functions, and
reports the per-layer metrics and the tracing overhead.  Either way every
output is checked, outside the timed section, and the last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import speed
import workloads
from workloads import KS_ALPHA, ROOT, SRC

# Fresh interpreters timed for cli.process_start_s; the median is reported.
# One more untimed start first compiles the bytecode.
START_RUNS = 5
# The machine's speed drifts in phases of a few seconds, so set-up is sampled
# throughout the timed loop: one fresh interpreter per SETUP_EVERY_S seconds
# of operations, outside their timing.
SETUP_EVERY_S = 1.0
SETUP_CODE = """
import sys
import carma_hawkes
for path in sys.argv[1:]:
    spec = carma_hawkes.load_spec(path)
    carma_hawkes.dynamics(spec)
    carma_hawkes.validate(spec)
"""

# Checks and reference reports run after the timed section, in this many
# processes, one per core of the 2-core machine the baseline was measured on.
CHECK_PROCESSES = 2

# A child still running after this long is killed (and its operation fails).
CHILD_TIMEOUT_S = 170.0
WORK_DIR = ROOT / ".perfbench_work"

# Per-model breakdowns, kept only where a planned change should move them:
# the envelope work moves proposals per event on every model of order > 1,
# and the vectorised residual transform is sized on carma31 and bivariate_cross.
PER_MODEL_PROPOSALS = ("carma21", "carma31", "bivariate_cross", "bivariate_lagged")
PER_MODEL_RESIDUAL = ("carma31", "bivariate_cross")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], stdout: Path | None = None) -> tuple[float, int, float]:
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB)."""
    out = open(stdout, "w", encoding="utf-8") if stdout else subprocess.DEVNULL
    err = open(stdout.with_suffix(".stderr"), "w", encoding="utf-8") if stdout else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    finally:
        if stdout:
            out.close()
            err.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def median_start(code: str) -> float:
    """Median wall time of a fresh interpreter running `code`."""
    argv = [sys.executable, "-c", code]
    spawn(argv)
    walls = []
    for _ in range(START_RUNS):
        wall, rc, _ = spawn(argv)
        if rc != 0:
            raise RuntimeError(f"interpreter exited {rc}")
        walls.append(wall)
    return statistics.median(walls)


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "carma_hawkes", *argv]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args, work: Path):
        import carma_hawkes

        self.name = args.workload
        self.kind = workloads.WORKLOADS[args.workload]["kind"]
        self.seed = args.seed
        self.seconds = args.seconds
        self.ks_rounds = workloads.WORKLOADS[args.workload]["ks_rounds"]
        self.tiny = args.tiny
        self.work = work
        self.pairs = workloads.horizons(self.name, self.tiny)
        self.specs = {m: carma_hawkes.load_spec(workloads.model_path(m)) for m, _ in self.pairs}
        self.inputs: dict[str, list[str]] = {}
        self.references: dict[str, tuple[int, list]] = {}
        self.roundtrip_errs: list[float] = []
        self.failures: list[str] = []

    # -- inputs -------------------------------------------------------------

    def generate_inputs(self) -> None:
        """diagnose-cli: write its event files with `carma-hawkes simulate`."""
        from checks import check_simulate_op, reference_report

        reps = workloads.WORKLOADS[self.name]["reps"]
        seeds = workloads.input_seeds(self.name, self.seed)
        for model, horizon in self.pairs:
            opdir = self.work / "inputs" / model
            op = {"round": 0, "model": model, "horizon": horizon, "seed": seeds[model],
                  "reps": reps, "out": str(opdir), "stdout": str(self.work / f"inputs_{model}.out")}
            _, op["code"], _ = spawn(cli(workloads.cli_argv(op, "simulate", opdir, {})),
                                     Path(op["stdout"]))
            checked = check_simulate_op(op, self.specs[model], self.work, quality=False)
            if checked["failures"]:
                raise RuntimeError(f"input generation failed: {checked['failures']}")
            self.roundtrip_errs.append(checked["roundtrip_err"])
            self.inputs[model] = [str(opdir / f"events_{k}.csv") for k in range(reps)]
        pairs = [(self.specs[model], Path(csv)) for model, files in self.inputs.items() for csv in files]
        with ProcessPoolExecutor(CHECK_PROCESSES) as pool:
            reports = pool.map(reference_report, *zip(*pairs))
            self.references = {str(csv): report for (_, csv), report in zip(pairs, reports)}

    # -- operations ---------------------------------------------------------

    def time_setup(self) -> float:
        """Seconds, at the reference speed, of a fresh interpreter that
        imports the package and loads and validates every model of the
        workload."""
        before = speed.loop_seconds()
        wall, rc, _ = spawn([sys.executable, "-c", SETUP_CODE,
                             *(str(workloads.model_path(m)) for m, _ in self.pairs)])
        if rc != 0:
            raise RuntimeError(f"set-up interpreter exited {rc}")
        return speed.at_reference(wall, before, speed.loop_seconds())

    def sample_setup(self, seconds_of_ops: float) -> list[float]:
        """One set-up sample per SETUP_EVERY_S seconds of operations."""
        n = max(1, round(seconds_of_ops / SETUP_EVERY_S))
        return [self.time_setup() for _ in range(n)]

    def cli_rounds(self) -> tuple[list[dict], float, list[float]]:
        """Closed loop of CLI calls: whole rounds until --seconds are spent,
        and at least the workload's ks_rounds.

        Returns the operations, the peak RSS of their processes, and the
        set-up samples taken between them.
        """
        ops, rss, samples = [], 0.0, []
        elapsed, since_sample, rnd = 0.0, 0.0, 0
        while rnd < self.ks_rounds or elapsed < self.seconds:
            for op in workloads.round_ops(self.name, self.seed, rnd, self.tiny):
                opdir = self.work / f"r{rnd}_{op['model']}"
                op["out"], op["stdout"] = str(opdir), str(self.work / f"r{rnd}_{op['model']}.out")
                argv = cli(workloads.cli_argv(op, self.kind, opdir, self.inputs))
                before = speed.loop_seconds()
                op["wall"], op["code"], peak = spawn(argv, Path(op["stdout"]))
                op["ref_wall"] = speed.at_reference(op["wall"], before, speed.loop_seconds())
                rss = max(rss, peak)
                elapsed += op["wall"]
                since_sample += op["wall"]
                ops.append(op)
                if since_sample >= SETUP_EVERY_S:
                    samples += self.sample_setup(since_sample)
                    since_sample = 0.0
            rnd += 1
        if not samples:  # a run shorter than SETUP_EVERY_S
            samples = self.sample_setup(since_sample)
        return ops, rss, samples

    def library_rounds(self) -> tuple[list[dict], float, list[float]]:
        """Closed loop of in-process replications in one worker process, for
        --seconds and at least ks_rounds rounds.  Set-up is sampled in fresh
        interpreters, half before the worker and half after it."""
        samples = self.sample_setup(self.seconds / 2)
        result, rss = self.worker("lib", traced=False, seconds=self.seconds,
                                  min_rounds=self.ks_rounds)
        samples += self.sample_setup(self.seconds / 2)
        return result["ops"], rss, samples

    def worker(self, tag: str, traced: bool, seconds: float,
               min_rounds: int) -> tuple[dict, float]:
        """Run the in-process worker in a fresh interpreter: whole rounds
        until `seconds` of operations are spent, and at least `min_rounds`."""
        work = self.work / tag
        work.mkdir()
        job = {"workload": self.name, "seed": self.seed, "tiny": self.tiny,
               "traced": traced, "seconds": seconds, "min_rounds": min_rounds,
               "work": str(work), "inputs": self.inputs, "result": str(work / "result.json")}
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        log = work / "worker.out"
        _, rc, rss = spawn([sys.executable, str(Path(__file__).with_name("worker.py")),
                            str(job_path)], log)
        if rc != 0:
            tail = log.with_suffix(".stderr").read_text(encoding="utf-8")[-2000:]
            raise RuntimeError(f"worker {tag} exited {rc}:\n{tail}")
        return json.loads(Path(job["result"]).read_text(encoding="utf-8")), rss

    def check(self, ops: list[dict]) -> None:
        """Check every operation; adds `events`, `ks` and `failures` to each."""
        from checks import check_diagnose_op, check_simulate_op

        if self.kind == "simulate":
            with ProcessPoolExecutor(CHECK_PROCESSES) as pool:
                checked = list(pool.map(
                    check_simulate_op, ops, [self.specs[op["model"]] for op in ops],
                    [self.work] * len(ops), [op["round"] < self.ks_rounds for op in ops],
                ))
            for op, result in zip(ops, checked):
                op.update(result)
        for op in ops:
            if self.kind == "diagnose":
                csv = self.inputs[op["model"]][op["input"]]
                events, reference = self.references[csv]
                op.update(check_diagnose_op(op, csv, reference))
                op["events"] = 0 if op["failures"] else events
            elif "error" in op:
                op.update(events=0, ks=[], failures=[f"{op['model']}: {op['error']}"])
            if "roundtrip_err" in op:
                self.roundtrip_errs.append(op["roundtrip_err"])
            self.failures += op["failures"]

    # -- metrics ------------------------------------------------------------

    @staticmethod
    def events_per_s(ops: list[dict]) -> float:
        """Events taken through the workload's path per second of the timed
        operations, their wall times scaled to the reference speed."""
        return sum(op["events"] for op in ops) / sum(op["ref_wall"] for op in ops)

    def ks_tests(self, ops: list[dict], model: str | None = None) -> list[float]:
        """p-values of the KS tests of the first ks_rounds rounds."""
        return [p for op in ops if op["round"] < self.ks_rounds
                for m, _, p in op["ks"] if model is None or m == model]

    def end_to_end(self) -> tuple[list[dict], dict]:
        self.time_setup()  # compiles the bytecode
        if self.kind == "diagnose":
            self.generate_inputs()
        if self.kind == "library":
            ops, rss, samples = self.library_rounds()
        else:
            ops, rss, samples = self.cli_rounds()
        self.check(ops)
        ks = self.ks_tests(ops)
        failed = sum(1 for op in ops if op["failures"])
        return ops, {
            "events_per_s": self.events_per_s(ops),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": rss,
            "ok_share": (len(ops) - failed) / len(ops),
            "ks_pass_share": sum(1 for p in ks if p >= KS_ALPHA) / len(ks) if ks else 0.0,
        }

    def per_layer(self) -> tuple[list[dict], dict]:
        from tracer import layer_metrics

        start = median_start("import carma_hawkes")
        if self.kind == "diagnose":
            self.generate_inputs()
        # the KS rounds of the end-to-end run, so the KS shares count the same tests
        plain, _ = self.worker("plain", traced=False, seconds=0.0, min_rounds=self.ks_rounds)
        if any(op.get("code", 0) != 0 or "error" in op for op in plain["ops"]):
            raise RuntimeError("an operation of the untraced in-process run failed")
        traced, _ = self.worker("traced", traced=True, seconds=0.0, min_rounds=self.ks_rounds)
        ops = traced["ops"]
        self.check(ops)
        metrics = layer_metrics(traced["spans"], PER_MODEL_PROPOSALS, PER_MODEL_RESIDUAL)
        metrics["cli.process_start_s"] = start
        metrics["thinning.csv_roundtrip_max_abs_err"] = max(self.roundtrip_errs, default=0.0)
        for key, model in (("", None), (".bivariate_lagged", "bivariate_lagged")):
            ks = self.ks_tests(ops, model)
            rejected = sum(1 for p in ks if p < KS_ALPHA)
            metrics[f"diagnostics.ks_reject_share{key}"] = rejected / len(ks) if ks else 0.0
        plain_s, traced_s = (sum(op["ref_wall"] for op in r["ops"]) for r in (plain, traced))
        metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
        return ops, metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def preflight() -> list[str]:
    """Files the benchmark needs from the checkout that are missing."""
    needed = [ROOT / "BENCHMARK.json", SRC / "carma_hawkes" / "__init__.py"]
    needed += [workloads.model_path(m) for m in workloads.ALL_MODELS]
    return [str(p) for p in needed if not p.is_file()]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills its running child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = preflight()
    if missing:
        print(f"error: not a carma-hawkes checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = declared_metrics(bool(args.trace))

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        ops, values = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    if set(values) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    for failure in run.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    failed = sum(1 for op in ops if op["failures"])
    ks = run.ks_tests(ops)
    rejected = sum(1 for p in ks if p < KS_ALPHA)
    events = sum(op["events"] for op in ops)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} operations, "
          f"failed_share={failed / len(ops):.4g} ({failed}/{len(ops)}), "
          f"ks_reject_share={rejected / len(ks) if ks else 0:.4g} ({rejected}/{len(ks)}), "
          f"wall-clock events/s={events / sum(op['wall'] for op in ops):.6g}")
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {declared[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": declared[k]} for k in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
