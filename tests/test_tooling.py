"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
module and attribute name.  A function moved to another module without the
tracer following it would fail a traced run; this checks every target the
tracer looks up first, and reads perfbench/ only.  A fresh import of the
package, which the benchmark's setup_s times, is checked for worker
machinery, a CLI simulate and diagnose for OpenSSL, and summarize for the per-component calls the tracer times and
for one modal scan per mode group.  The benchmark's own correctness check of
an in-process replication (perfbench/checks.py) must pass on every benchmark
model, so a change to the record types cannot fail its operations."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import carma_hawkes
import pytest
import util
from carma_hawkes import diagnostics, dynamics, load_spec, simulate, summarize, validate
from carma_hawkes.model import mode_groups

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """A perfbench module, loaded by path without putting perfbench on the
    import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load("tracer")
    assert tracer.TARGETS
    for name, places, _ in tracer.TARGETS:
        module_name, attr = places[0]
        module = (
            importlib.import_module(f"carma_hawkes.{module_name}")
            if module_name
            else carma_hawkes
        )
        assert callable(getattr(module, attr, None)), (
            f"{name}: {module.__name__}.{attr} is not a callable"
        )


def test_import_loads_no_worker_machinery():
    # the CLI forks its workers with os.fork; a fresh `import carma_hawkes`
    # (what the benchmark's setup_s times) must not pull in a process pool
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, carma_hawkes; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256 (_sha2 or _sha256), so spec_hash uses hashlib",
)
def test_runs_load_no_openssl(tmp_path):
    # spec_hash takes CPython's built-in SHA-256, so neither the package nor
    # a CLI simulate (forked workers included) and diagnose loads _hashlib,
    # OpenSSL's binding
    src = Path(__file__).resolve().parents[1] / "src"
    model = util.MODELS / "bivariate_cross.json"
    code = "\n".join((
        "import sys",
        "from carma_hawkes import load_spec, spec_hash",
        "from carma_hawkes.cli import main",
        f"spec_hash(load_spec({str(model)!r}))",
        "loaded = ['_hashlib' in sys.modules]",
        f"assert main(['simulate', '--model', {str(model)!r}, '--horizon', '200', '--seed', '1',"
        " '--reps', '2', '--out', 'runs']) == 0",
        f"assert main(['diagnose', '--model', {str(model)!r}, '--events', 'runs/events_1.csv']) == 0",
        "loaded.append('_hashlib' in sys.modules)",
        "print('loaded', loaded, file=sys.stderr)",
    ))
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "loaded [False, False]"
    assert (tmp_path / "runs" / "events_1.report.json").exists()


def test_summarize_calls_residual_transform_per_component(monkeypatch):
    # the tracer's diagnostics.residual_us_per_event times summarize's calls
    # to residual_transform, which it replaces as a module global; the first
    # call does the scan that every component's residuals share
    calls = []
    scan = diagnostics.residual_transform

    def counting(spec, log, component=1):
        calls.append(component)
        return scan(spec, log, component=component)

    monkeypatch.setattr(diagnostics, "residual_transform", counting)
    spec = util.biv_cross()
    diagnostics.summarize(spec, simulate(spec, 50.0, rng=1))
    assert calls == [1, 2]


def test_summarize_scans_once_per_mode_group(monkeypatch):
    # every component's residuals come from one modal_scan per mode group,
    # not one per component
    calls = []
    scan = diagnostics.modal_scan

    def counting(lams, *args):
        calls.append(lams)
        return scan(lams, *args)

    monkeypatch.setattr(diagnostics, "modal_scan", counting)
    specs = (
        util.biv_cross(),
        util.diagonal_spec([util.carma31_spec(), util.carma21_spec()]),
        load_spec(util.MODELS / "trivariate_cyclic.json"),
    )
    for spec, n_groups in zip(specs, (1, 2, 1)):
        calls.clear()
        diagnostics.summarize(spec, simulate(spec, 50.0, rng=1))
        groups = mode_groups(dynamics(spec))
        assert len(groups) == n_groups
        assert len(calls) == n_groups
        assert all(lams is group.lams for lams, group in zip(calls, groups))


def test_exports_resolve_and_are_sorted():
    # a name removed from the package must leave __all__ with it
    names = carma_hawkes.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(carma_hawkes, name)] == []


def test_library_check_passes_on_every_benchmark_model(tmp_path):
    # round 0 of protocol-lib also re-simulates and compares the log fields,
    # and writes and parses the events CSV
    checks, workloads = _load("checks"), _load("workloads")
    assert len(workloads.ALL_MODELS) == 6
    for model in workloads.ALL_MODELS:
        spec = load_spec(workloads.model_path(model))
        override = {model: not validate(spec).admissible}
        log = simulate(spec, 200.0, rng=5, override_validation=override[model])
        op = {"round": 0, "model": model, "horizon": 200.0, "seed": 5}
        out = checks.check_library_op(op, spec, log, summarize(spec, log), override, tmp_path)
        assert out["failures"] == [] and len(log) > 0 and out["roundtrip_err"] == 0.0
