"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
module and attribute name.  A function moved to another module without the
tracer following it would fail a traced run; this checks every target the
tracer looks up first, and that a traced CLI and library run records the
spans the per-layer metrics read.  It reads perfbench/ only.

The package's imports are lazy.  A fresh import of the package loads no
submodule, numpy or worker machinery; the benchmark's set-up code, which
setup_s times, loads errors, spectral and model alone; a CLI simulate and
diagnose load the package's six run modules and not OpenSSL, and a CLI
simulate's peak memory does not grow with its horizon.  `import
carma_hawkes.cli` loads no numpy; a simulate, validate or bench whose spec
constants are cached never loads it, while diagnose and --trace-intensity,
which make arrays, load it before the entry point's freeze.  The process entry
point loads the CLI with the cyclic collector off and freezes what it
loaded, the script in pyproject.toml runs that same entry point, `python
-m carma_hawkes.cli` refuses to bypass it, and an in-process main() leaves
the collector alone.  Every public name resolves to its own module's
object, and the per-event oracles, which live in tests/oracles.py, are not
in the package.  summarize is checked for the one residual_transform call
per log that the tracer times, and for one modal scan per mode group.
The CLI writes events files only through thinning's one writer, and the
reader leaves the sidecar's count and horizon to EventLog.
The benchmark's own correctness check of an in-process replication
(perfbench/checks.py) must pass on every benchmark model, so a change to the
record types cannot fail its operations."""

import ast
import gc
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import carma_hawkes
import pytest
import util
from carma_hawkes import (
    cli,
    diagnostics,
    dynamics,
    load_spec,
    simulate,
    spec_hash,
    summarize,
    validate,
)
from carma_hawkes.model import mode_groups

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"

# The package's public names before its imports became lazy, and
# simulate_into since, each with the module that defines it; the per-event
# oracles, exp_action and NegativeIntensity left for tests/oracles.py, and
# ScriptedUniforms for tests/util.py.
PUBLIC_NAMES = {
    **dict.fromkeys(
        ("ComponentDiagnostics", "DiagnosticsReport", "KsResult", "ResidualSeries",
         "kolmogorov_survival", "ks_exp1", "residual_transform", "summarize",
         "write_report_json", "write_residuals_csv"),
        "diagnostics",
    ),
    **dict.fromkeys(
        ("BoundViolation", "CarmaHawkesError", "DegenerateEigenvalues", "EmptySample",
         "HorizonNonPositive", "NanSample", "NonStationarySpec",
         "NumericalOverflow", "RootFindingFailure", "SpecLogMismatch", "ZeroEigenvalue"),
        "errors",
    ),
    **dict.fromkeys(
        ("BivariateSpec", "Dynamics", "Spec", "UnivariateSpec", "ValidationReport",
         "channel_kernel", "dynamics", "intensity_path", "load_spec", "save_spec",
         "spec_from_dict", "spec_hash", "spec_to_dict", "stationary_rates", "validate"),
        "model",
    ),
    **dict.fromkeys(
        ("SpectralData", "bound_constant", "build_companion", "spectral_decompose"),
        "spectral",
    ),
    **dict.fromkeys(
        ("EventLog", "SimulationMeta", "UniformStream", "bound_path",
         "read_events_csv", "simulate", "simulate_into", "write_events_csv", "write_meta_json"),
        "thinning",
    ),
}
SUBMODULES = ("cli", "diagnostics", "errors", "model", "spectral", "thinning")
# The names that moved to tests/oracles.py and tests/util.py; no run loads
# them.
MOVED_NAMES = (
    "BoundTracker", "NegativeIntensity", "ProcessState", "ScriptedUniforms", "apply_event",
    "bound_after_event", "bound_value", "compensator_increment", "exp_action", "initial_bound",
    "initial_state", "intensity_at", "state_vector",
)
# Code that prints the package's loaded submodules, by name.
PRINT_SUBMODULES = ("print(sorted(m.split('.', 1)[1] for m in __import__('sys').modules "
                    "if m.startswith('carma_hawkes.')))")


def _load(name: str):
    """A perfbench module, loaded by path without putting perfbench on the
    import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fresh(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter run with args, the package's src first on its
    path, its output captured as text."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def _run_fresh(code: str, *args: str, cwd=None) -> str:
    """What a fresh interpreter running code (with args) prints; it must
    exit 0."""
    done = _fresh("-c", code, *args, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


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


def _traced_run(*lines: str) -> str:
    """Code that installs the tracer on a fresh package, as
    perfbench/worker.py does, runs a CLI simulate and diagnose and a library
    simulate -> summarize of bivariate_cross, then the given lines."""
    model = util.MODELS / "bivariate_cross.json"
    return "\n".join((
        "import importlib.util",
        "import carma_hawkes",
        f"spec = importlib.util.spec_from_file_location('tracer', {str(PERFBENCH / 'tracer.py')!r})",
        "tracer_module = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(tracer_module)",
        "tracer = tracer_module.Tracer()",
        "tracer.install(carma_hawkes)",
        f"model = {str(model)!r}",
        "assert carma_hawkes.cli.main(['simulate', '--model', model, '--horizon', '100',"
        " '--seed', '1', '--out', 'runs']) == 0",
        "assert carma_hawkes.cli.main(['diagnose', '--model', model, '--events', 'runs/events_0.csv']) == 0",
        "spec = carma_hawkes.load_spec(model)",
        "carma_hawkes.summarize(spec, carma_hawkes.simulate(spec, 100.0, rng=2))",
        *lines,
    ))


def test_traced_runs_record_every_layer(tmp_path):
    # the spans the per-layer metrics read must all be there
    code = _traced_run("print(sorted({span[1] for span in tracer.spans if not span[8]}))")
    names = set(ast.literal_eval(_run_fresh(code, cwd=tmp_path).splitlines()[-1]))
    assert {
        "thinning.simulate", "model.validate", "diagnostics.summarize",
        "diagnostics.residual_transform", "cli.cmd_diagnose",
    } <= names


def test_traced_runs_time_residuals_once_per_log(tmp_path):
    # summarize makes one residual_transform call per log, whatever its
    # number of components, inside its own span: the tracer's
    # diagnostics.residual_us_per_event times the whole residual layer
    code = _traced_run(
        "spans = {span[0]: span for span in tracer.spans}",
        "residual = [span for span in tracer.spans if span[1] == 'diagnostics.residual_transform']",
        "summaries = [span for span in tracer.spans if span[1] == 'diagnostics.summarize']",
        "metrics = tracer_module.layer_metrics(tracer.spans, [], [])",
        "print(len(residual), len(summaries),"
        " sorted(spans[span[2]][1] for span in residual) == ['diagnostics.summarize'] * len(residual),"
        " metrics['diagnostics.residual_us_per_event'] > 0)",
    )
    assert _run_fresh(code, cwd=tmp_path).splitlines()[-1] == "2 2 True True"


def test_import_loads_no_worker_machinery():
    # the CLI forks its workers with os.fork; a fresh `import carma_hawkes`
    # (what the benchmark's setup_s times) must not pull in a process pool
    code = (
        "import sys, carma_hawkes; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    assert _run_fresh(code).strip() == "[]"


def test_import_loads_no_submodule_or_numpy():
    code = "import sys, carma_hawkes; print('numpy' in sys.modules); " + PRINT_SUBMODULES
    assert _run_fresh(code) == "False\n[]\n"


def _setup_code() -> str:
    """perfbench/run.py's SETUP_CODE, the set-up that setup_s times."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_CODE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SETUP_CODE")


def test_setup_code_loads_model_layers_only():
    # load_spec, dynamics and validate of every bundled model load errors,
    # spectral and model: no thinning, diagnostics or cli
    models = sorted(str(path) for path in util.MODELS.glob("*.json"))
    out = _run_fresh(_setup_code() + "\n" + PRINT_SUBMODULES, *models)
    assert out == "['errors', 'model', 'spectral']\n"


def test_public_names_resolve_to_their_modules():
    assert carma_hawkes.__all__ == sorted(PUBLIC_NAMES)
    listed = dir(carma_hawkes)
    for name, home in PUBLIC_NAMES.items():
        module = importlib.import_module(f"carma_hawkes.{home}")
        assert getattr(carma_hawkes, name) is getattr(module, name), name
        assert name in listed
    assert set(SUBMODULES) <= set(listed)


def test_submodules_resolve_as_attributes():
    # in a fresh interpreter, so each attribute goes through the package's
    # lazy lookup; model alone loads what it imports, not thinning
    code = "\n".join((
        "import sys, carma_hawkes",
        "assert carma_hawkes.model is sys.modules['carma_hawkes.model']",
        PRINT_SUBMODULES,
        f"for name in {SUBMODULES!r}:",
        "    assert getattr(carma_hawkes, name) is sys.modules['carma_hawkes.' + name], name",
        "print(carma_hawkes.thinning.simulate is carma_hawkes.simulate)",
    ))
    assert _run_fresh(code) == "['errors', 'model', 'spectral']\nTrue\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'carma_hawkes' has no attribute 'no_such_name'"):
        carma_hawkes.no_such_name
    assert not hasattr(carma_hawkes, "ProcessStates")
    with pytest.raises(ImportError):
        exec("from carma_hawkes import no_such_name", {})


def test_oracles_are_not_in_the_package():
    # the per-event references live with the tests, not in src
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("carma_hawkes.oracles")
    assert not hasattr(carma_hawkes, "oracles")
    for name in MOVED_NAMES:
        with pytest.raises(AttributeError):
            getattr(carma_hawkes, name)
        assert name not in carma_hawkes.__all__


def test_number_rules_live_in_spectral_alone():
    # spectral._is_real and spectral._is_int are the one number rule and the
    # one integer rule: no other module imports numbers, tests type(v) is
    # int or sets bools apart itself
    for path in sorted((SRC / "carma_hawkes").glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}: {ast.unparse(node)[:60]}"
            if isinstance(node, ast.Import):
                assert all(alias.name != "numbers" for alias in node.names), where
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "numbers", where
            elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
                type_test = ast.unparse(node.left.func) == "type"
                assert not (type_test and "int" in map(ast.unparse, node.comparators)), where
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
                assert "bool" not in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}, where


def test_sidecar_rules_live_in_simulation_meta_alone():
    # SimulationMeta checks a sidecar's fields when it is built; the reader
    # keeps only the checks that need the file
    tree = ast.parse((SRC / "carma_hawkes" / "thinning.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_sidecar_number" not in functions
    reader = ast.walk(functions["read_events_csv"])
    calls = {ast.unparse(node.func) for node in reader if isinstance(node, ast.Call)}
    assert not calls & {"_is_int", "_is_real"}, calls


def _identifiers(tree) -> set:
    """Every name a module's code defines, imports or reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_events_file_pair_lives_in_thinning_alone():
    # cli writes events files only through thinning's one writer, and
    # EventLog checks a sidecar against its rows, not the reader
    cli_tree = ast.parse((SRC / "carma_hawkes" / "cli.py").read_text(encoding="utf-8"))
    names = _identifiers(cli_tree)
    assert not names & {"EVENTS_HEADER", "EVENT_ROW", "_part", "_stream_events"}
    assert "events_csv" in names
    tree = ast.parse((SRC / "carma_hawkes" / "thinning.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    compares = [node for node in ast.walk(functions["read_events_csv"]) if isinstance(node, ast.Compare)]
    for node in compares:
        assert not _identifiers(node) & {"accepted", "horizon"}, ast.unparse(node)


def test_cli_runs_load_no_oracles(tmp_path):
    # a CLI simulate and diagnose load the modules a run executes, no more
    model = util.MODELS / "carma21.json"
    code = "\n".join((
        "from carma_hawkes.cli import main",
        f"assert main(['simulate', '--model', {str(model)!r}, '--horizon', '100', '--seed', '1',"
        " '--out', 'runs']) == 0",
        f"assert main(['diagnose', '--model', {str(model)!r}, '--events', 'runs/events_0.csv']) == 0",
        PRINT_SUBMODULES,
    ))
    out = _run_fresh(code, cwd=tmp_path).splitlines()[-1]
    assert out == "['cli', 'diagnostics', 'errors', 'model', 'spectral', 'thinning']"


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256 (_sha2 or _sha256), so spec_hash uses hashlib",
)
def test_runs_load_no_openssl(tmp_path):
    # spec_hash takes CPython's built-in SHA-256, so neither the package nor
    # a CLI simulate (forked workers included) and diagnose loads _hashlib,
    # OpenSSL's binding
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
        "assert loaded == [False, False], loaded",
    ))
    _run_fresh(code, cwd=tmp_path)
    assert (tmp_path / "runs" / "events_1.report.json").exists()


# Spawns its arguments as a child process and prints the child's exit code
# and peak RSS in KiB.  A fork+exec child's ru_maxrss starts from its
# parent's RSS, so the child is spawned from this small interpreter, not
# from the test process, whose RSS would be the reading.
LAUNCHER = "\n".join((
    "import os, sys",
    "pid = os.spawnv(os.P_NOWAIT, sys.executable, [sys.executable, *sys.argv[1:]])",
    "_, status, usage = os.wait4(pid, 0)",
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)",
))


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path):
    # about 7.7k and 77k bivariate_cross events: simulate streams them to
    # the events file slice by slice, so its peak grows by less than 10%
    # when the horizon grows ×10 (a whole log held adds about 6 MB)
    model = util.MODELS / "bivariate_cross.json"
    # both timed calls read the spec's constants from the cache, so neither
    # loads numpy: an untimed call writes the entry first
    _run_fresh(LAUNCHER, "-m", "carma_hawkes", "validate", "--model", str(model))
    peaks = []
    for horizon in ("4e3", "4e4"):
        out = _run_fresh(LAUNCHER, "-m", "carma_hawkes", "simulate", "--model", str(model),
                         "--horizon", horizon, "--seed", "1", "--out", str(tmp_path / horizon))
        code, kib = out.split()[-2:]
        assert code == "0"
        peaks.append(int(kib) / 1024)
    assert peaks[1] < 1.1 * peaks[0], f"peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MB"


# Runs `python -m carma_hawkes` with its arguments in this interpreter, then
# prints the number of collections that started before main was entered,
# and gc.isenabled() and gc.get_freeze_count() as it was entered.  The first
# gc.collect() empties generation 0, so none of the launcher's own
# allocations can start a collection before the entry point runs.
ENTRY_LAUNCHER = "\n".join((
    "import gc, runpy, sys",
    "gc.collect()",
    "collections, at_main = [], []",
    "gc.callbacks.append(lambda phase, info: phase == 'start' and collections.append(1))",
    "def profile(frame, event, arg):",
    "    if (event == 'call' and frame.f_code.co_name == 'main'",
    "            and frame.f_globals.get('__name__') == 'carma_hawkes.cli'):",
    "        at_main.extend((len(collections), gc.isenabled(), gc.get_freeze_count()))",
    "        sys.setprofile(None)",
    "sys.setprofile(profile)",
    "try:",
    "    runpy.run_module('carma_hawkes', run_name='__main__', alter_sys=True)",
    "except SystemExit as exc:",
    "    assert exc.code == 0, exc.code",
    "print(*at_main)",
))


# Runs `python -m carma_hawkes` with its arguments, as ENTRY_LAUNCHER does,
# and prints whether numpy was loaded by the end.
NUMPY_LAUNCHER = "\n".join((
    "import runpy, sys",
    "try:",
    "    runpy.run_module('carma_hawkes', run_name='__main__', alter_sys=True)",
    "except SystemExit as exc:",
    "    assert exc.code == 0, exc.code",
    "print('numpy' in sys.modules)",
))


def test_cli_import_loads_no_numpy():
    code = "import sys, carma_hawkes.cli; print('numpy' in sys.modules)"
    assert _run_fresh(code) == "False\n"


def test_warm_commands_load_no_numpy(tmp_path, cache_home):
    # the first call of each spec computes its constants, with numpy, and
    # writes one entry; a later simulate, validate or bench reads it and
    # never loads numpy
    for name in ("carma31", "bivariate_cross"):
        model = str(util.MODELS / f"{name}.json")
        commands = (
            ["validate", "--model", model],
            ["simulate", "--model", model, "--horizon", "100", "--seed", "1", "--reps", "2",
             "--out", str(tmp_path / name)],
            ["bench", "--model", model, "--horizon", "100", "--reps", "2"],
        )
        before = set(cache_home.glob("carma-hawkes/*"))
        loaded = [_run_fresh(NUMPY_LAUNCHER, *commands[0]).splitlines()[-1]]
        assert [p.name for p in set(cache_home.glob("carma-hawkes/*")) - before] == [
            f"{spec_hash(load_spec(model))}.json"
        ]
        loaded += [_run_fresh(NUMPY_LAUNCHER, *command).splitlines()[-1] for command in commands]
        assert loaded == ["True", "False", "False", "False"], name


def test_array_commands_still_load_numpy(tmp_path):
    # diagnose and --trace-intensity make arrays: warm, they load numpy and
    # run as before
    model = str(util.MODELS / "carma21.json")
    simulate_args = ["simulate", "--model", model, "--horizon", "50", "--seed", "1",
                     "--out", str(tmp_path)]
    assert _run_fresh(NUMPY_LAUNCHER, *simulate_args).splitlines()[-1] == "True"
    for command in (
        simulate_args + ["--trace-intensity", "0.5"],
        ["diagnose", "--model", model, "--events", str(tmp_path / "events_0.csv")],
    ):
        assert _run_fresh(NUMPY_LAUNCHER, *command).splitlines()[-1] == "True"
    assert (tmp_path / "trace_0.csv").exists() and (tmp_path / "events_0.report.json").exists()


def test_entry_point_loads_without_collections():
    # the objects cli and numpy build at import are never scanned: no
    # collection runs while they load, and they are frozen by the time
    # main runs, with the collector back on
    out = _run_fresh(ENTRY_LAUNCHER, "validate", "--model", str(util.MODELS / "carma21.json"))
    collections, enabled, frozen = out.splitlines()[-1].split()
    assert (collections, enabled) == ("0", "True")
    assert int(frozen) > 0


def test_array_commands_load_numpy_before_the_freeze(tmp_path):
    # diagnose always loads numpy, so the entry point imports it with cli,
    # before the freeze: its objects are frozen too, and no collection
    # runs while it loads
    model = str(util.MODELS / "carma21.json")
    assert cli.main(["simulate", "--model", model, "--horizon", "50", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
    frozen = {}
    for command in (["validate", "--model", model],
                    ["diagnose", "--model", model, "--events", str(tmp_path / "events_0.csv")]):
        out = _run_fresh(ENTRY_LAUNCHER, *command)
        collections, enabled, frozen[command[0]] = out.splitlines()[-1].split()
        assert (collections, enabled) == ("0", "True"), command
    assert int(frozen["diagnose"]) > int(frozen["validate"]) + 10_000


def test_main_in_process_leaves_the_collector_alone(tmp_path):
    # tests, the benchmark's worker and library users call main directly;
    # only the entry point sets the collector, and no import does
    code = ("import gc, carma_hawkes.cli, carma_hawkes.__main__; "
            "print(gc.isenabled(), gc.get_freeze_count())")
    assert _run_fresh(code) == "True 0\n"
    model = str(util.MODELS / "bivariate_cross.json")
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["validate", "--model", model]) == 0
    assert cli.main(["simulate", "--model", model, "--horizon", "50", "--seed", "1",
                     "--reps", "2", "--out", str(tmp_path)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_console_script_runs_what_python_m_runs():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = pyproject["project"]["scripts"]["carma-hawkes"].partition(":")
    assert module == "carma_hawkes.__main__"
    assert callable(getattr(importlib.import_module(module), name, None))
    tree = ast.parse((SRC / "carma_hawkes" / "__main__.py").read_text(encoding="utf-8"))
    guard = tree.body[-1]
    assert ast.unparse(guard) == f"if __name__ == '__main__':\n    sys.exit({name}())"
    # the CLI module run alone would bypass the entry point: it refuses,
    # naming the two launches, before any command runs
    done = _fresh("-m", "carma_hawkes.cli", "validate", "--model",
                  str(util.MODELS / "carma21.json"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: run the command line as `python -m carma_hawkes` or `carma-hawkes`\n"


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
