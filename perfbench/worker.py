"""In-process executor of a workload's operations.

Run as ``python3 perfbench/worker.py JOB.json`` in a fresh interpreter with
the package's ``src`` directory on PYTHONPATH.  The job names the workload,
its seed, a time budget and a least number of rounds: the worker runs whole
rounds, from round 0, until ``seconds`` of operations are spent and at least
``min_rounds`` rounds are done.  Library operations call ``simulate`` and
``summarize``; CLI operations call ``carma_hawkes.cli.main(argv)``, so that a
traced run sees the CLI's calls into the other layers.

The worker writes one JSON result: per-operation wall times and outcomes,
and, when the job is traced, every recorded span.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import speed
import workloads
from checks import check_library_op

import carma_hawkes.cli


def _run_cli(argv: list[str], stdout_path: Path) -> int:
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(io.StringIO()):
        try:
            return carma_hawkes.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error exits 1 from the real CLI
            return 1


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    name = job["workload"]
    kind = workloads.WORKLOADS[name]["kind"]
    work = Path(job["work"])
    pairs = workloads.horizons(name, job["tiny"])

    tracer = None
    phase = contextlib.nullcontext
    if job["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(carma_hawkes)
        phase = tracer.span

    # cold set-up: the caches behind dynamics and validate start empty here
    specs, override = {}, {}
    with phase("phase.setup"):
        for model, _ in pairs:
            spec = carma_hawkes.load_spec(workloads.model_path(model))
            carma_hawkes.dynamics(spec)
            override[model] = not carma_hawkes.validate(spec).admissible
            specs[model] = spec
    if tracer is not None:
        tracer.spec_names = {spec: model for model, spec in specs.items()}

    ops_out = []
    ops_wall = 0.0
    rnd = 0
    with phase("phase.ops"):
        while rnd < job["min_rounds"] or ops_wall < job["seconds"]:
            for op in workloads.round_ops(name, job["seed"], rnd, job["tiny"]):
                before = speed.loop_seconds()
                if kind == "library":
                    spec = specs[op["model"]]
                    t0 = time.perf_counter()
                    try:
                        log = carma_hawkes.simulate(
                            spec, op["horizon"], rng=op["seed"],
                            override_validation=override[op["model"]],
                        )
                        report = carma_hawkes.summarize(spec, log)
                    except Exception as exc:  # counted as a failed operation
                        op["error"] = repr(exc)
                    op["wall"] = time.perf_counter() - t0
                else:
                    opdir = work / f"r{rnd}_{op['model']}"
                    argv = workloads.cli_argv(op, kind, opdir, job.get("inputs", {}))
                    op["out"] = str(opdir)
                    op["stdout"] = str(work / f"r{rnd}_{op['model']}.stdout")
                    t0 = time.perf_counter()
                    op["code"] = _run_cli(argv, Path(op["stdout"]))
                    op["wall"] = time.perf_counter() - t0
                op["ref_wall"] = speed.at_reference(op["wall"], before, speed.loop_seconds())
                if kind == "library" and "error" not in op:
                    with tracer.paused() if tracer else contextlib.nullcontext():
                        op.update(check_library_op(op, spec, log, report, override, work))
                ops_wall += op["wall"]
                ops_out.append(op)
            rnd += 1

    result = {"ops": ops_out}
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
