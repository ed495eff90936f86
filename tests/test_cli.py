import argparse
import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from carma_hawkes import (
    BoundViolation,
    bound_path,
    dynamics,
    intensity_path,
    read_events_csv,
    save_spec,
    simulate,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
    summarize,
    validate,
    write_events_csv,
    write_meta_json,
)
from carma_hawkes import cli, diagnostics, thinning
from carma_hawkes.cli import main
from carma_hawkes.model import canonical_json

REPO_ROOT = Path(__file__).resolve().parents[1]
# a zero AR root: the branching ratio and the spectral radius are infinite
ZERO_ROOT_SPEC = {"type": "univariate", "mu": 0.5, "a": [1.0, 0.0], "b": [0.3]}


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN."""

    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def write_spec(tmp_path, spec, name="model.json"):
    path = tmp_path / name
    save_spec(spec, path)
    return str(path)


def assert_no_children():
    # every forked worker was reaped: this process has no child left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(args, cpu=None, timeout=None):
    """The CLI in a fresh interpreter; with cpu, pinned to that one CPU, so
    simulate and bench run in one process.  A run past timeout seconds is
    killed, and raises."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    entry = ["-m", "carma_hawkes"] if cpu is None else [
        "-c",
        f"import os, sys; os.sched_setaffinity(0, [{cpu}]); "
        "from carma_hawkes.cli import main; sys.exit(main(sys.argv[1:]))",
    ]
    return subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestSimulateCommand:
    def test_writes_events_and_meta(self, tmp_path, carma21, capsys):
        model = write_spec(tmp_path, carma21)
        out = tmp_path / "runs"
        code = main(
            ["simulate", "--model", model, "--horizon", "500", "--seed", "42",
             "--reps", "2", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == [len(read_events_csv(out / f"events_{k}.csv")) for k in (0, 1)]
        for k in (0, 1):
            meta = json.loads((out / f"events_{k}.meta.json").read_text())
            assert meta["seed"] == 42 + k
            assert meta["horizon"] == 500.0
            assert 0 < meta["acceptance_ratio"] <= 1

    def test_event_count_near_rate(self, tmp_path, hawkes, capsys):
        model = write_spec(tmp_path, hawkes)
        out = tmp_path / "runs"
        code = main(
            ["simulate", "--model", model, "--horizon", "10000", "--seed", "42",
             "--out", str(out)]
        )
        assert code == 0
        n = json.loads(capsys.readouterr().out)["events"][0]
        assert abs(n - 4500) <= 0.05 * 4500

    def test_negative_horizon_exits_2(self, tmp_path, carma21, capsys):
        model = write_spec(tmp_path, carma21)
        for horizon in ("-1", "inf", "nan"):
            for argv in (["simulate", "--out", str(tmp_path / "x")], ["bench"]):
                code = main([*argv, "--model", model, "--horizon", horizon, "--seed", "1"])
                assert code == 2
                err = capsys.readouterr().err
                assert err == f"error: horizon must be finite and > 0, got {float(horizon)!r}\n"

    def test_tiny_envelope_constant_is_kept(self, tmp_path):
        # the envelope constant's squares underflow a double, its norm does not
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"type": "univariate", "mu": 0.5, "a": [1e-300], "b": [1e-300]}))
        done = run_cli(["validate", "--model", str(path)])
        assert (done.returncode, done.stderr) == (3, "")
        assert strict_json(done.stdout)["bound_constants"] == [1e-300]
        done = run_cli(["simulate", "--model", str(path), "--force", "--horizon", "5",
                        "--seed", "1", "--out", str(tmp_path / "runs")])
        assert (done.returncode, done.stderr) == (0, "")

    def test_zero_reps_exits_2(self, tmp_path, carma21):
        model = write_spec(tmp_path, carma21)
        code = main(["simulate", "--model", model, "--horizon", "10", "--seed", "1",
                     "--reps", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_model_exits_2(self, tmp_path):
        code = main(["simulate", "--model", str(tmp_path / "nope.json"),
                     "--horizon", "10", "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_nonstationary_needs_force(self, tmp_path, capsys):
        from carma_hawkes import UnivariateSpec

        spec = UnivariateSpec(mu=0.3, a=(2.0,), b=(3.0,))
        model = write_spec(tmp_path, spec)
        code = main(["simulate", "--model", model, "--horizon", "20", "--seed", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        capsys.readouterr()
        code = main(["simulate", "--model", model, "--horizon", "20", "--seed", "1",
                     "--out", str(tmp_path / "y"), "--force"])
        assert code == 0

    def test_kernel_negative_model_needs_force(self, tmp_path, biv_lagged, capsys):
        model = write_spec(tmp_path, biv_lagged)
        code = main(["simulate", "--model", model, "--horizon", "50", "--seed", "3",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        capsys.readouterr()
        code = main(["simulate", "--model", model, "--horizon", "50", "--seed", "3",
                     "--out", str(tmp_path / "y"), "--force"])
        assert code == 0

    def test_bound_violation_exits_4(self, tmp_path, carma21, monkeypatch, capsys):
        from carma_hawkes import BoundViolation
        from carma_hawkes import cli as cli_mod

        def boom(*args, **kwargs):
            raise BoundViolation("synthetic")

        monkeypatch.setattr(cli_mod, "simulate_into", boom)
        model = write_spec(tmp_path, carma21)
        code = main(["simulate", "--model", model, "--horizon", "10", "--seed", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 4
        assert list((tmp_path / "x").iterdir()) == []

    def test_trace_grid(self, tmp_path, carma21, biv_cross, capsys):
        # one intensity column per component; their sum stays under the bound
        for spec, header in ((carma21, "time,intensity,bound"),
                             (biv_cross, "time,intensity1,intensity2,bound")):
            model = write_spec(tmp_path, spec)
            out = tmp_path / header
            code = main(["simulate", "--model", model, "--horizon", "50", "--seed", "8",
                         "--out", str(out), "--trace-intensity", "0.5"])
            assert code == 0
            lines = (out / "trace_0.csv").read_text().strip().splitlines()
            assert lines[0] == header
            assert len(lines) == 1 + 101  # grid 0..50 step 0.5
            for row in lines[1:]:
                _, *lams, bar = map(float, row.split(","))
                assert sum(lams) <= bar + 1e-9

    def test_trace_bytes_match_one_format_per_row(self, tmp_path, biv_cross, monkeypatch):
        # the chunked writer gives the bytes of one f-string per row, across
        # chunk boundaries and a last chunk that is not full
        monkeypatch.setattr(thinning, "CSV_CHUNK_ROWS", 7)
        horizon, step = 20.0, 0.3
        log = simulate(biv_cross, horizon, rng=3)
        cli._write_trace(biv_cross, log, horizon, step, tmp_path / "trace.csv")
        grid = np.arange(0.0, horizon + step / 2, step)
        lam = intensity_path(biv_cross, log, grid).reshape(len(grid), -1)
        bar = bound_path(biv_cross, log, grid)
        assert len(grid) % 7 != 0
        expected = "time,intensity1,intensity2,bound\n" + "".join(
            ",".join(f"{v:.15g}" for v in (t, *row, b)) + "\n"
            for t, row, b in zip(grid, lam, bar)
        )
        assert (tmp_path / "trace.csv").read_bytes() == expected.encode()

    def test_bad_trace_step_exits_2(self, tmp_path, carma21, capsys):
        # the last two ask for more than TRACE_MAX_ROWS grid rows; none runs
        # a simulation, so no output directory is made
        model = write_spec(tmp_path, carma21)
        over = repr(10.0 / cli.TRACE_MAX_ROWS)  # 10 / step + 1 rows
        for step in ("0", "nan", "inf", "1e-300", over):
            code = main(["simulate", "--model", model, "--horizon", "10", "--seed", "1",
                         "--out", str(tmp_path / "x"), "--trace-intensity", step])
            assert code == 2
            assert "--trace-intensity" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_trace_row_limit_is_inclusive(self, tmp_path, carma21, monkeypatch, capsys):
        # a 0..50 grid of step 0.5 has 101 rows: allowed at a limit of 101,
        # refused at 100
        model = write_spec(tmp_path, carma21)
        args = ["simulate", "--model", model, "--horizon", "50", "--seed", "1",
                "--trace-intensity", "0.5", "--out"]
        monkeypatch.setattr(cli, "TRACE_MAX_ROWS", 101)
        assert main(args + [str(tmp_path / "a")]) == 0
        monkeypatch.setattr(cli, "TRACE_MAX_ROWS", 100)
        assert main(args + [str(tmp_path / "b")]) == 2
        assert "--trace-intensity" in capsys.readouterr().err

    def test_unusable_paths_exit_2(self, tmp_path, carma21, capsys):
        # a directory where a file is read, and an existing file where an
        # output directory is made: an error line and exit 2, no traceback
        model = write_spec(tmp_path, carma21)
        out = tmp_path / "runs"
        assert main(["simulate", "--model", model, "--horizon", "50", "--seed", "1",
                     "--out", str(out)]) == 0
        events = str(out / "events_0.csv")
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        (tmp_path / "a_dir").mkdir()
        sidecar_dir = tmp_path / "sidecar"
        sidecar_dir.mkdir()
        (sidecar_dir / "events_0.csv").write_bytes((out / "events_0.csv").read_bytes())
        (sidecar_dir / "events_0.meta.json").mkdir()
        capsys.readouterr()
        for args in (
            ["diagnose", "--model", model, "--events", str(tmp_path / "a_dir")],
            ["diagnose", "--model", model, "--events", str(sidecar_dir / "events_0.csv")],
            ["simulate", "--model", model, "--horizon", "50", "--seed", "1",
             "--out", str(a_file)],
            ["diagnose", "--model", model, "--events", events, "--out", str(a_file)],
        ):
            assert main(args) == 2, args
            captured = capsys.readouterr()
            assert captured.err.startswith("error: "), args
            assert captured.out == ""


class TestValidateCommand:
    def test_admissible_report(self, tmp_path, carma21, capsys):
        model = write_spec(tmp_path, carma21)
        assert main(["validate", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["admissible"] is True
        assert report["branching"] == pytest.approx(0.5)
        assert report["decay"] == pytest.approx(-1.0)
        assert report["bound_constants"][0] == pytest.approx(1.140175, abs=5e-7)
        assert report["eigenvalues"] == [[-1.0, 0.0], [-2.0, 0.0]]

    def test_degenerate_exits_3(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({"type": "univariate", "mu": 0.3,
                                    "a": [2.0, 1.0], "b": [1.0]}))
        assert main(["validate", "--model", str(path)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["flags"] == ["DegenerateEigenvalues"]

    def test_bad_spec_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--model", str(path)]) == 2

    def test_non_finite_values_print_null(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(ZERO_ROOT_SPEC))
        assert main(["validate", "--model", str(path)]) == 3
        report = strict_json(capsys.readouterr().out)
        assert report["flags"] == ["NonStationary"]
        assert report["branching"] is None
        assert report["spectral_radius"] is None
        assert report["decay"] == 0.0
        assert report["eigenvalues"] == [[0.0, 0.0], [-1.0, 0.0]]

    def test_refusal_report_is_strict(self, tmp_path, capsys):
        # simulate and bench print the same report when they refuse a spec
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(ZERO_ROOT_SPEC))
        for argv in (["simulate", "--out", str(tmp_path / "runs"), "--seed", "1"], ["bench"]):
            assert main([*argv, "--model", str(path), "--horizon", "10"]) == 3
            captured = capsys.readouterr()
            assert strict_json(captured.out)["spectral_radius"] is None
            assert "use --force" in captured.err


    def test_huge_ma_coefficient_exits_3(self, tmp_path):
        # the envelope constant's squares overflow a double, its norm does not
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"type": "univariate", "mu": 0.5, "a": [3, 2], "b": [1e300, 1]}))
        done = run_cli(["validate", "--model", str(path)])
        assert (done.returncode, done.stderr) == (3, "")
        report = strict_json(done.stdout)
        assert report["flags"] == ["NonStationary"]
        assert report["bound_constants"][0] == pytest.approx(2e300, rel=1e-12)

    def test_malformed_multivariate_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        specs = [
            {"type": "multivariate", "mu": [0.3, 0.3], "a": [[2.0], [2.0]], "b": b}
            for b in ([1.0, 2.0], [[1.0, 2.0]], [[[1.0], [0.0]], [[0.0], [-1.0, 0.5]]])
        ]
        for spec in specs:
            path.write_text(json.dumps(spec))
            assert main(["validate", "--model", str(path)]) == 2
            assert "cannot load model spec" in capsys.readouterr().err
        # a document that is not a JSON object, refused by every command
        for doc, kind in (([1, 2], "list"), ("x", "str")):
            path.write_text(json.dumps(doc))
            for argv in (["validate"], ["bench", "--horizon", "1"],
                         ["simulate", "--horizon", "1", "--seed", "1", "--out", str(tmp_path / "o")],
                         ["diagnose", "--events", str(tmp_path / "events.csv")]):
                assert main([*argv, "--model", str(path)]) == 2
                captured = capsys.readouterr()
                assert captured.err == (
                    f"error: cannot load model spec from {path}: "
                    f"a model spec must be a JSON object, got {kind}\n"
                )
                assert captured.out == ""

    # a spec lacking a key of its type: the type and the first key missing
    MISSING_KEYS = {
        "univariate": ({"type": "univariate", "mu": 1, "a": [2]}, "univariate spec lacks key 'b'"),
        "bivariate": ({"type": "bivariate", "mu": [1, 1], "a2": [2], "b11": [0.5], "b12": [0],
                       "b21": [0], "b22": [0.5]}, "bivariate spec lacks key 'a1'"),
        "multivariate": ({"type": "multivariate", "mu": [1, 1, 1], "a": [[2], [2], [2]]},
                         "multivariate spec lacks key 'b'"),
    }

    @pytest.mark.parametrize("case", sorted(MISSING_KEYS))
    def test_missing_key_is_named(self, tmp_path, capsys, case):
        spec, message = self.MISSING_KEYS[case]
        path = tmp_path / "nob.json"
        path.write_text(json.dumps(spec))
        assert main(["validate", "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot load model spec from {path}: {message}\n"
        assert captured.out == ""

    # a coefficient that is not a real number within a double's range:
    # "32" would be read as (3, 2), true as 1, and a 400-digit integer
    # would end in an OverflowError
    NON_NUMBERS = {
        "string mu": {"type": "univariate", "mu": "0.5", "a": [3, 2], "b": [1]},
        "string a": {"type": "univariate", "mu": 0.5, "a": "32", "b": [1]},
        "string b": {"type": "univariate", "mu": 0.5, "a": [3, 2], "b": "1"},
        "bool mu": {"type": "univariate", "mu": True, "a": [3, 2], "b": [1]},
        "bool in a": {"type": "univariate", "mu": 0.5, "a": [3, False], "b": [1]},
        "huge mu": {"type": "univariate", "mu": 10**400, "a": [3, 2], "b": [1]},
        "huge a": {"type": "univariate", "mu": 0.5, "a": [10**400, 2], "b": [1]},
        "huge b": {"type": "univariate", "mu": 0.5, "a": [3, 2], "b": [10**400]},
        "multivariate string": {"type": "multivariate", "mu": [0.3, "0.3"], "a": [[2.0], [2.0]],
                                "b": [[[0.5], [0.1]], [[0.1], [0.5]]]},
    }

    @pytest.mark.parametrize("case", sorted(NON_NUMBERS))
    def test_coefficients_must_be_numbers(self, tmp_path, capsys, case):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.NON_NUMBERS[case]))
        for argv in (["validate"], ["bench", "--horizon", "1"],
                     ["simulate", "--horizon", "1", "--seed", "1", "--out", str(tmp_path / "o")],
                     ["diagnose", "--events", str(tmp_path / "events.csv")]):
            assert main([*argv, "--model", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: cannot load model spec from {path}: ")
            assert captured.err.count("\n") == 1 and captured.out == ""


class TestDiagnoseCommand:
    def test_roundtrip_matches_in_process_report(self, tmp_path, carma21, capsys):
        model = write_spec(tmp_path, carma21)
        out = tmp_path / "runs"
        main(["simulate", "--model", model, "--horizon", "800", "--seed", "5",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["diagnose", "--model", model, "--events", str(out / "events_0.csv")])
        assert code == 0
        cli_report = json.loads(capsys.readouterr().out)
        log = read_events_csv(out / "events_0.csv", out / "events_0.meta.json")
        expected = summarize(carma21, log).to_dict()
        assert cli_report == expected
        assert (out / "events_0.report.json").exists()
        assert (out / "events_0.residuals_1.csv").exists()
        written = json.loads((out / "events_0.report.json").read_text())
        assert written == expected

    def test_bivariate_residual_files(self, tmp_path, biv_independent, capsys):
        model = write_spec(tmp_path, biv_independent)
        out = tmp_path / "runs"
        main(["simulate", "--model", model, "--horizon", "300", "--seed", "5",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["diagnose", "--model", model, "--events", str(out / "events_0.csv"),
                     "--out", str(tmp_path / "diag")])
        assert code == 0
        assert (tmp_path / "diag" / "events_0.residuals_1.csv").exists()
        assert (tmp_path / "diag" / "events_0.residuals_2.csv").exists()
        body = (tmp_path / "diag" / "events_0.residuals_1.csv").read_text().splitlines()
        assert body[0] == "tau"

    def test_empty_events_file(self, tmp_path, carma21, capsys):
        model = write_spec(tmp_path, carma21)
        events = tmp_path / "events.csv"
        events.write_text("time,mark\n")
        code = main(["diagnose", "--model", model, "--events", str(events)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["components"][0]["n_events"] == 0
        assert report["components"][0]["ks_statistic"] is None

    def test_hash_mismatch_exits_2(self, tmp_path, carma21, hawkes, capsys):
        model21 = write_spec(tmp_path, carma21, "c21.json")
        model_h = write_spec(tmp_path, hawkes, "hawkes.json")
        out = tmp_path / "runs"
        main(["simulate", "--model", model21, "--horizon", "200", "--seed", "5",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["diagnose", "--model", model_h, "--events", str(out / "events_0.csv")])
        assert code == 2

    def test_mark_outside_model_exits_2(self, tmp_path, hawkes, capsys):
        model = write_spec(tmp_path, hawkes)
        events = tmp_path / "events.csv"
        events.write_text("time,mark\n1.0,1\n2.0,2\n")
        assert main(["diagnose", "--model", model, "--events", str(events)]) == 2
        assert "mark" in capsys.readouterr().err

    def test_mark_outside_bivariate_model_exits_2(self, tmp_path, biv_cross, capsys):
        # a log may hold any integer mark >= 1; one the model lacks is refused
        # against the model, and a mark below 1 when the file is read
        model = write_spec(tmp_path, biv_cross)
        events = tmp_path / "events.csv"
        for bad, message in (("3", "mark outside 1..2"), ("0", "marks must be integers >= 1")):
            events.write_text(f"time,mark\n1.0,1\n2.0,{bad}\n")
            assert main(["diagnose", "--model", model, "--events", str(events)]) == 2
            assert message in capsys.readouterr().err

    def test_nonfinite_time_exits_2(self, tmp_path, hawkes, capsys):
        model = write_spec(tmp_path, hawkes)
        for bad in ("inf", "nan"):
            events = tmp_path / f"events_{bad}.csv"
            events.write_text(f"time,mark\n1.0,1\n{bad},1\n")
            assert main(["diagnose", "--model", model, "--events", str(events)]) == 2
            captured = capsys.readouterr()
            assert "finite" in captured.err
            assert captured.out == ""

    def test_bad_sidecar_exits_2(self, tmp_path, carma21, capsys):
        # a horizon before the last event, a sidecar number that is not a
        # finite JSON number (null, a string, a bool, beyond a double), a
        # count that is not a non-negative int, a seed that is neither null
        # nor one, a spec_hash that is neither null nor a string, or a
        # sidecar that is valid JSON but not an object
        model = write_spec(tmp_path, carma21)
        out = tmp_path / "runs"
        main(["simulate", "--model", model, "--horizon", "200", "--seed", "5",
              "--out", str(out)])
        capsys.readouterr()
        meta_path = out / "events_0.meta.json"
        good = json.loads(meta_path.read_text())
        bad_sidecars = [
            {**good, **bad}
            for bad in ({"horizon": 100.0}, {"horizon": math.inf},
                        {"acceptance_ratio": math.nan}, {"horizon": None},
                        {"proposed": math.inf}, {"squeezed": math.inf},
                        {"squeezed": 2.5}, {"squeezed": None},
                        {"accepted": good["accepted"] - 1},
                        {"accepted": good["accepted"] + 0.5}, {"accepted": 1.5},
                        {"accepted": float(good["accepted"])}, {"accepted": True},
                        {"proposed": 2.9}, {"proposed": -7}, {"proposed": False},
                        {"proposed": "9"}, {"seed": "abc"}, {"seed": -1},
                        {"seed": 5.0}, {"seed": True}, {"horizon": "50000"},
                        {"acceptance_ratio": "0.4"}, {"wall_time_seconds": "1"},
                        {"horizon": True}, {"acceptance_ratio": False},
                        {"wall_time_seconds": math.inf},
                        {"horizon": 10**400}, {"spec_hash": 5})
        ] + [[1, 2]]
        for sidecar in bad_sidecars:
            meta_path.write_text(json.dumps(sidecar))
            assert main(["diagnose", "--model", model, "--events",
                         str(out / "events_0.csv")]) == 2
            captured = capsys.readouterr()
            assert "metadata" in captured.err
            assert captured.out == ""

    def test_truncated_events_file_exits_2(self, tmp_path, carma21, capsys):
        # the file loses its last rows, the sidecar stays intact
        model = write_spec(tmp_path, carma21)
        out = tmp_path / "runs"
        main(["simulate", "--model", model, "--horizon", "200", "--seed", "5",
              "--out", str(out)])
        capsys.readouterr()
        events = out / "events_0.csv"
        lines = events.read_text().splitlines(keepends=True)
        events.write_text("".join(lines[:-3]))
        assert main(["diagnose", "--model", model, "--events", str(events)]) == 2
        captured = capsys.readouterr()
        assert f"metadata accepted {len(lines) - 1} events, the log holds {len(lines) - 4}" in captured.err
        assert captured.out == ""

    def test_bad_row_names_its_line(self, tmp_path, hawkes, capsys):
        model = write_spec(tmp_path, hawkes)
        events = tmp_path / "events.csv"
        for text, message in (("time,mark\n1.0,1\nabc,1\n", "line 3: cannot read 'abc' as a time"),
                              ("time,mark\n1.0\n", "line 2: expected 2 comma-separated fields")):
            events.write_text(text)
            assert main(["diagnose", "--model", model, "--events", str(events)]) == 2
            assert f"error: cannot parse events file: {message}" in capsys.readouterr().err

    def test_nan_residual_exits_2(self, tmp_path, hawkes, capsys, monkeypatch):
        # a NaN residual is refused by the KS test, not read as a fit
        model = write_spec(tmp_path, hawkes)
        events = tmp_path / "events.csv"
        events.write_text("time,mark\n1.0,1\n2.0,1\n")
        nan_series = diagnostics.ResidualSeries(taus=(math.nan, 1.0), component=1)
        monkeypatch.setattr(diagnostics, "residual_transform", lambda *args, **kw: (nan_series,))
        assert main(["diagnose", "--model", model, "--events", str(events)]) == 2
        captured = capsys.readouterr()
        assert "error: cannot run a KS test on a sample with 1 NaN value(s)" in captured.err
        assert captured.out == ""

    def test_residual_below_expm1_range_exits_0(self, tmp_path, hawkes, capsys, monkeypatch):
        # F overflows for a residual below about -709.78: D is inf and the
        # strict report writes it as null
        model = write_spec(tmp_path, hawkes)
        events = tmp_path / "events.csv"
        events.write_text("time,mark\n1.0,1\n2.0,1\n")
        series = diagnostics.ResidualSeries(taus=(-1000.0, 1.0), component=1)
        monkeypatch.setattr(diagnostics, "residual_transform", lambda *args, **kw: (series,))
        assert main(["diagnose", "--model", model, "--events", str(events)]) == 0
        row = strict_json((tmp_path / "events.report.json").read_text())["components"][0]
        assert row["ks_statistic"] is None and row["ks_p_value"] == 0.0
        assert strict_json(capsys.readouterr().out)["components"][0] == row

    def test_zero_root_exits_2(self, tmp_path, capsys):
        # the compensator divides by every AR root: validate flags the spec,
        # and diagnose refuses it with a typed error
        model = tmp_path / "zero.json"
        model.write_text(json.dumps(ZERO_ROOT_SPEC))
        events = tmp_path / "events.csv"
        events.write_text("time,mark\n1.0,1\n2.0,1\n")
        assert main(["diagnose", "--model", str(model), "--events", str(events)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: zero eigenvalue: compensator closed form undefined\n"
        assert captured.out == ""

    def test_infinite_empirical_rate_is_null(self, tmp_path, hawkes, capsys):
        # one event at 1e-320 gives a rate of 1 / 1e-320 = inf
        model = write_spec(tmp_path, hawkes)
        events = tmp_path / "events.csv"
        events.write_text("time,mark\n1e-320,1\n")
        assert main(["diagnose", "--model", model, "--events", str(events)]) == 0
        row = strict_json((tmp_path / "events.report.json").read_text())["components"][0]
        assert row["n_events"] == 1 and row["empirical_rate"] is None
        assert strict_json(capsys.readouterr().out)["components"][0] == row

    def test_missing_events_exits_2(self, tmp_path, carma21):
        model = write_spec(tmp_path, carma21)
        assert main(["diagnose", "--model", model, "--events",
                     str(tmp_path / "none.csv")]) == 2


class TestBenchCommand:
    def test_reports_throughput(self, tmp_path, carma21, capsys):
        model = write_spec(tmp_path, carma21)
        code = main(["bench", "--model", model, "--horizon", "500", "--reps", "2",
                     "--seed", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["events"] > 0
        assert out["proposed"] >= out["events"]
        assert 0 < out["acceptance_ratio"] <= 1
        assert out["events_per_sec"] > 0

    def test_rates_over_no_wall_time_are_null(self, tmp_path, carma21, monkeypatch, capsys):
        # a clock that does not move: the rates are null, not Infinity
        model = write_spec(tmp_path, carma21)
        monkeypatch.setattr(cli, "time", argparse.Namespace(perf_counter=lambda: 1.0))
        assert main(["bench", "--model", model, "--horizon", "100", "--seed", "0"]) == 0
        out = strict_json(capsys.readouterr().out)
        assert out["wall_seconds"] == 0.0
        assert out["events"] > 0
        assert out["events_per_sec"] is None
        assert out["proposals_per_sec"] is None

    def test_reports_squeezed_share(self, tmp_path, carma31, capsys):
        # carma31's envelope is loose, so the squeeze decides most rejections
        model = write_spec(tmp_path, carma31)
        assert main(["bench", "--model", model, "--horizon", "500", "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0 < out["squeezed_share"] <= 1 - out["acceptance_ratio"]

    def test_reports_processes_and_simulate_seconds(self, tmp_path, carma21, monkeypatch,
                                                    capsys):
        # simulate_seconds sums the replications' own times, so it can exceed
        # the wall time only when they run side by side
        model = write_spec(tmp_path, carma21)
        for cpus, processes in ((1, 1), (2, 2), (8, 3)):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            assert main(["bench", "--model", model, "--horizon", "300", "--reps", "3"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["processes"] == processes
            assert out["simulate_seconds"] > 0
            if processes == 1:
                assert out["simulate_seconds"] <= out["wall_seconds"]
        assert_no_children()

    def test_zero_reps_exits_2(self, tmp_path, carma21):
        model = write_spec(tmp_path, carma21)
        assert main(["bench", "--model", model, "--horizon", "10", "--reps", "0"]) == 2

    def test_negative_seed_exits_2(self, tmp_path, carma21, capsys):
        # a negative seed would silently give the stream of its absolute value
        model = write_spec(tmp_path, carma21)
        assert main(["bench", "--model", model, "--horizon", "10", "--seed", "-3"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_growing_envelope_exits_3_under_force(self, tmp_path, capsys):
        # a root with positive real part cannot be thinned, forced or not;
        # bench and simulate refuse it with the same exit code
        from carma_hawkes import UnivariateSpec

        model = write_spec(tmp_path, UnivariateSpec(mu=0.3, a=(-1.0,), b=(0.5,)))
        for command in (["bench"], ["simulate", "--out", str(tmp_path / "x")]):
            code = main(command + ["--model", model, "--horizon", "5", "--seed", "1",
                                   "--force"])
            assert code == 3
            assert "decay rate" in capsys.readouterr().err

    def test_tight_envelope_accepts_more(self, tmp_path, hawkes, carma21, capsys):
        # order-1 envelope is exact, so its acceptance ratio beats order 2
        m1 = write_spec(tmp_path, hawkes, "h.json")
        m2 = write_spec(tmp_path, carma21, "c.json")
        main(["bench", "--model", m1, "--horizon", "2000", "--seed", "0"])
        r1 = json.loads(capsys.readouterr().out)
        main(["bench", "--model", m2, "--horizon", "2000", "--seed", "0"])
        r2 = json.loads(capsys.readouterr().out)
        assert r1["acceptance_ratio"] > r2["acceptance_ratio"]


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path, carma21):
        model = write_spec(tmp_path, carma21)
        args = ["simulate", "--model", model, "--horizon", "400", "--seed", "11",
                "--reps", "2"]
        r1 = run_cli(args + ["--out", str(tmp_path / "a")])
        r2 = run_cli(args + ["--out", str(tmp_path / "b")])
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        for k in (0, 1):
            a = (tmp_path / "a" / f"events_{k}.csv").read_bytes()
            b = (tmp_path / "b" / f"events_{k}.csv").read_bytes()
            assert a == b

    def test_worker_count_does_not_change_output(self, tmp_path, biv_cross, monkeypatch,
                                                 capfd):
        # more replications than processes, so the split interleaves; every
        # file equals an in-process simulate(seed + k), whatever the count
        model = write_spec(tmp_path, biv_cross)
        horizon, seed, step, reps = 300.0, 7, 0.5, 5
        ref = tmp_path / "ref"
        ref.mkdir()
        for k in range(reps):
            log = simulate(biv_cross, horizon, rng=seed + k, override_validation=True)
            write_events_csv(log, ref / f"events_{k}.csv")
            write_meta_json(log, ref / f"events_{k}.meta.json")
            cli._write_trace(biv_cross, log, horizon, step, ref / f"trace_{k}.csv")
        summaries = []
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            code = main(["simulate", "--model", model, "--horizon", repr(horizon),
                         "--seed", str(seed), "--reps", str(reps), "--out", str(out),
                         "--trace-intensity", repr(step)])
            assert code == 0
            assert_no_children()
            summary = json.loads(capfd.readouterr().out)
            summaries.append({**summary, "out": None})
            for k in range(reps):
                for name in (f"events_{k}.csv", f"trace_{k}.csv"):
                    assert (out / name).read_bytes() == (ref / name).read_bytes(), (cpus, name)
                meta, expected = (
                    json.loads((d / f"events_{k}.meta.json").read_text()) for d in (out, ref)
                )
                del meta["wall_time_seconds"], expected["wall_time_seconds"]
                assert meta == expected
        assert summaries[0] == summaries[1]


class TestWorkers:
    """Replications split over forked workers (three CPUs patched in): the
    errors, exit codes and output of a one-process loop."""

    ARGS = ["simulate", "--horizon", "50", "--seed", "1", "--reps", "3"]

    def run(self, tmp_path, spec, monkeypatch, cpus=3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"runs{cpus}"
        try:
            code = main(self.ARGS + ["--model", write_spec(tmp_path, spec), "--out", str(out)])
        finally:
            assert_no_children()
        return code, out

    @staticmethod
    def failing_simulate(monkeypatch, errors):
        # errors: seed -> exception, raised once the run has handed over
        # its first slice; forked workers inherit the patch
        real = cli.simulate_into

        def patched(spec, horizon, sink, rng, **kwargs):
            if rng not in errors:
                return real(spec, horizon, sink, rng=rng, **kwargs)

            def failing_sink(times, marks):
                sink(times, marks)
                raise errors[rng]

            return real(spec, horizon, failing_sink, rng=rng, **kwargs)

        monkeypatch.setattr(cli, "simulate_into", patched)

    def test_success_prints_one_json_document(self, tmp_path, carma21, monkeypatch, capfd):
        code, out = self.run(tmp_path, carma21, monkeypatch)
        assert code == 0
        captured = capfd.readouterr()
        assert captured.err == ""
        summary = json.loads(captured.out)
        assert summary["events"] == [
            len(read_events_csv(out / f"events_{k}.csv")) for k in range(3)
        ]

    def test_bound_violation_in_a_worker_exits_4(self, tmp_path, carma21, monkeypatch, capfd):
        # replication 1 (seed 2) runs in a worker
        self.failing_simulate(monkeypatch, {2: BoundViolation("synthetic")})
        code, out = self.run(tmp_path, carma21, monkeypatch)
        assert code == 4
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "error: envelope violation during simulation: synthetic\n"
        assert (out / "events_0.csv").exists()
        # the failing replication leaves no events file, partial or whole
        assert sorted(p.name for p in out.iterdir() if p.name.startswith("events_1")) == []

    def test_lowest_failing_replication_wins(self, tmp_path, carma21, monkeypatch, capfd):
        # with two processes the caller runs replications 0 and 2 and a worker
        # runs 1: the worker's error wins over the caller's later one
        self.failing_simulate(
            monkeypatch, {2: BoundViolation("first"), 3: OSError("second")}
        )
        code, _ = self.run(tmp_path, carma21, monkeypatch, cpus=2)
        assert code == 4
        assert capfd.readouterr().err == "error: envelope violation during simulation: first\n"

    def test_write_error_in_a_worker_exits_2(self, tmp_path, carma21, monkeypatch, capfd):
        # the disk fills after replication 1 has written some rows; slices
        # of about 3 events make that its second write of rows
        real = thinning.write_csv_rows

        def full_disk(fh, row, columns):
            if Path(fh.name).name.startswith("events_1.") and fh.tell() > len("time,mark\n"):
                raise OSError(28, "No space left on device", fh.name)
            return real(fh, row, columns)

        monkeypatch.setattr(thinning, "CSV_CHUNK_ROWS", 3)
        monkeypatch.setattr(thinning, "write_csv_rows", full_disk)
        errors = []
        for cpus in (1, 3):
            code, out = self.run(tmp_path, carma21, monkeypatch, cpus)
            assert code == 2
            captured = capfd.readouterr()
            assert captured.out == ""
            assert [p.name for p in out.iterdir() if p.name.startswith("events_1")] == []
            errors.append(captured.err.replace(f"runs{cpus}", "runs"))
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and errors[0].count("\n") == 1

    def test_unexpected_worker_error_raises(self, tmp_path, carma21, monkeypatch, capfd):
        # an error the CLI does not map to an exit code is not hidden
        self.failing_simulate(monkeypatch, {3: ZeroDivisionError("boom")})
        with pytest.raises(RuntimeError, match="(?s)replication 2 .*ZeroDivisionError: boom"):
            self.run(tmp_path, carma21, monkeypatch)

    def test_worker_that_dies_is_reported(self, tmp_path, carma21, monkeypatch, capfd):
        test_pid = os.getpid()
        real = cli.simulate_into

        def dies(spec, horizon, sink, rng, **kwargs):
            if rng == 2 and os.getpid() != test_pid:
                os._exit(9)
            return real(spec, horizon, sink, rng=rng, **kwargs)

        monkeypatch.setattr(cli, "simulate_into", dies)
        with pytest.raises(RuntimeError, match="(?s)replication 1 .*status 9"):
            self.run(tmp_path, carma21, monkeypatch)
        # a process that dies mid-run leaves neither an events file that
        # looks whole nor its temporary file, which the caller removes
        assert not (tmp_path / "runs3" / "events_1.csv").exists()
        assert list((tmp_path / "runs3").glob("*.part")) == []

    @pytest.mark.parametrize("reps", [1, 2])
    def test_failed_replication_leaves_none_of_its_files(self, tmp_path, carma21, monkeypatch,
                                                         reps, capfd):
        # a directory where the last replication's sidecar or trace goes:
        # that replication (in a worker with --reps 2) exits 2 and leaves
        # neither its events file nor its sidecar, and the others keep theirs
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        model = write_spec(tmp_path, carma21)
        k = reps - 1
        for blocked, extra in ((f"events_{k}.meta.json", []),
                               (f"trace_{k}.csv", ["--trace-intensity", "1"])):
            out = tmp_path / f"runs_{blocked}"
            (out / blocked).mkdir(parents=True)
            code = main(["simulate", "--model", model, "--horizon", "50", "--seed", "1",
                         "--reps", str(reps), "--out", str(out), *extra])
            assert_no_children()
            assert code == 2
            captured = capfd.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            kept = [] if k == 0 else ["events_0.csv", "events_0.meta.json", *(["trace_0.csv"] if extra else [])]
            assert sorted(p.name for p in out.iterdir()) == sorted([blocked, *kept])

    def test_caller_interrupted_kills_its_workers(self, tmp_path, carma21, monkeypatch,
                                                  capfd):
        # an exception in the caller (Ctrl-C, say) ends the workers that are
        # still running and reaps them, then removes the temporary files
        # they could not
        class Interrupt(BaseException):
            pass

        test_pid = os.getpid()

        def slow(spec, horizon, sink, rng, **kwargs):
            if os.getpid() == test_pid:
                raise Interrupt
            time.sleep(60)

        monkeypatch.setattr(cli, "simulate_into", slow)
        started = time.perf_counter()
        with pytest.raises(Interrupt):
            self.run(tmp_path, carma21, monkeypatch)
        assert time.perf_counter() - started < 30
        assert list((tmp_path / "runs3").glob("*.part")) == []

    def test_other_threads_keep_one_process(self):
        # a fork could catch another Python thread holding a lock
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert cli._usable_cpus() == 1
        finally:
            release.set()
            thread.join()
        assert cli._usable_cpus() == len(os.sched_getaffinity(0))

    def test_worker_stops_once_its_parent_is_gone(self):
        # a worker whose parent pid has changed runs no further replication
        for parent, ran in ((os.getppid(), [0, 1, 2]), (os.getpid(), [])):
            r, w = os.pipe()
            cli._worker(lambda k: k, range(3), parent, w)
            with os.fdopen(r, "rb") as pipe:
                results, failure = pickle.load(pipe)
            assert sorted(results) == ran
            assert failure is None


class TestThreeComponents:
    """The bundled three-component model, end to end through the CLI."""

    MODEL = str(REPO_ROOT / "models" / "trivariate_cyclic.json")

    def test_simulate_traces_three_intensities(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(["simulate", "--model", self.MODEL, "--horizon", "50", "--seed", "8",
                     "--out", str(out), "--trace-intensity", "0.5"])
        assert code == 0
        lines = (out / "trace_0.csv").read_text().strip().splitlines()
        assert lines[0] == "time,intensity1,intensity2,intensity3,bound"
        assert len(lines) == 1 + 101
        for row in lines[1:]:
            _, *lams, bar = map(float, row.split(","))
            assert len(lams) == 3
            assert sum(lams) <= bar + 1e-9
        assert set(read_events_csv(out / "events_0.csv").marks) == {1, 2, 3}

    def test_diagnose_reports_three_components(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["simulate", "--model", self.MODEL, "--horizon", "5000", "--seed", "3",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["diagnose", "--model", self.MODEL, "--events", str(out / "events_0.csv")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["component"] for c in report["components"]] == [1, 2, 3]
        for comp in report["components"]:
            assert comp["n_events"] > 1000
            assert comp["ks_p_value"] >= 0.01
            assert (out / f"events_0.residuals_{comp['component']}.csv").exists()

    def test_validate_reports_multivariate(self, capsys):
        assert main(["validate", "--model", self.MODEL]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["process_type"] == "multivariate"
        assert len(report["branching_matrix"]) == 3
        assert len(report["kernel_mins"]) == 9


class TestBundledModels:
    def test_console_validate_bundled(self, capsys):
        model = REPO_ROOT / "models" / "carma31.json"
        assert main(["validate", "--model", str(model)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["branching"] == pytest.approx(0.736, abs=5e-4)


class TestOverflowingSpecs:
    # a baseline that sums to inf would stop thinning's clock, and an
    # envelope weight that sums to inf breaks the envelope: each command
    # exits 2 before any loop runs, with no warning.  Each run has a timeout,
    # so a regression fails rather than hangs.
    SPECS = {
        "base": {"type": "bivariate", "mu": [1e308, 1e308], "a1": [1], "a2": [1],
                 "b11": [0.1], "b12": [0], "b21": [0], "b22": [0.1]},
        "weight": {"type": "bivariate", "mu": [1, 1], "a1": [1], "a2": [1],
                   "b11": [1e308], "b12": [0], "b21": [1e308], "b22": [0.1]},
    }

    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_every_command_exits_2(self, tmp_path, case):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(self.SPECS[case]))
        events = tmp_path / "events.csv"
        events.write_text("time,mark\n0.5,1\n")
        commands = [
            ["validate"],
            ["simulate", "--horizon", "1", "--seed", "1", "--force", "--out", str(tmp_path / "runs")],
            ["bench", "--horizon", "1", "--force"],
            ["diagnose", "--events", str(events)],
        ]
        for command in commands:
            done = run_cli([*command, "--model", str(model)], timeout=60)
            assert (done.returncode, done.stdout) == (2, ""), done.stderr
            assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
            assert "overflows a double" in done.stderr


def leaves(value):
    """A record field's leaves, each with its type, every float and complex
    part by float.hex: equal leaves are the same doubles, signed zeros and
    infinities included."""
    if isinstance(value, tuple):
        return [leaves(v) for v in value]
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, complex):
        return ("complex", value.real.hex(), value.imag.hex())
    return (type(value).__name__, value)


def record_leaves(record):
    return {name: leaves(getattr(record, name)) for name in record.__dataclass_fields__}


class TestConstantsCache:
    """The CLI's cache of each spec's Dynamics and ValidationReport
    (cli.read_entry, cli.write_entry): exact, JSON only, refused whole when
    anything in it is off, and never needed."""

    @staticmethod
    def entry_path(spec):
        return cli._cache_dir() / f"{spec_hash(spec)}.json"

    @staticmethod
    def round_trip(spec, dyn, report):
        key, spec_json = cli._entry_key(), canonical_json(spec_to_dict(spec))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "entry.json")
            cli.write_entry(path, key, spec_json, dyn, report)
            return cli.read_entry(path, key, spec_json)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bivariate=st.booleans(), forced=st.booleans())
    def test_entry_reads_back_the_computed_doubles(self, seed, bivariate, forced):
        rng = np.random.default_rng(seed)
        make = util.random_bivariate_spec if bivariate else util.random_univariate_spec
        spec = make(rng, p_max=3)
        while validate(spec).admissible == forced:
            spec = make(rng, p_max=3)
        computed = dynamics(spec), validate(spec)
        read = self.round_trip(spec, *computed)
        assert [record_leaves(r) for r in read] == [record_leaves(r) for r in computed]
        assert read == computed

    def test_signed_zeros_and_infinities_read_back(self):
        # a zero root: infinite branching and radius; and hand-set leaves
        # that no computation promises, as the entry must keep any double
        spec = spec_from_dict(ZERO_ROOT_SPEC)
        dyn, report = dynamics(spec), validate(spec)
        assert report.spectral_radius == math.inf
        odd = (
            dataclasses.replace(dyn, lams=(complex(-0.0, -0.0), complex(-1.0, 0.0)), decay=-0.0),
            dataclasses.replace(report, kernel_min=-math.inf, detail="x", branching=math.nan),
        )
        for computed in ((dyn, report), odd):
            read = self.round_trip(spec, *computed)
            assert [record_leaves(r) for r in read] == [record_leaves(r) for r in computed]

    def test_cold_call_writes_one_entry_a_warm_one_reads_it(self, tmp_path, cache_home, capsys):
        path = write_spec(tmp_path, util.biv_cross())
        assert main(["validate", "--model", path]) == 0
        expected = capsys.readouterr().out
        entries = list((cache_home / "carma-hawkes").iterdir())
        assert [p.name for p in entries] == [f"{spec_hash(util.biv_cross())}.json"]
        text = entries[0].read_text()
        assert "payload" in json.loads(text)
        dynamics.cache_clear()
        validate.cache_clear()
        assert main(["validate", "--model", path]) == 0
        assert capsys.readouterr().out == expected
        assert entries[0].read_text() == text

    @staticmethod
    def corruptions(text, other_text):
        """name -> the bytes of an entry that must be refused."""
        entry = json.loads(text)
        cases = {
            "truncated": text[: len(text) // 2].encode(),
            "not json": b"not json at all",
            "another spec's entry": other_text.encode(),
            "pickle": pickle.dumps((dynamics(util.biv_cross()), validate(util.biv_cross()))),
        }
        for field in entry["key"]:
            foreign = json.loads(text)
            foreign["key"][field] = ["elsewhere"]
            cases[f"foreign {field}"] = json.dumps(foreign).encode()
        edited = json.loads(text)
        edited["payload"]["report"]["decay"] = (-0.5).hex()
        cases["edited number"] = json.dumps(edited).encode()
        return cases

    def test_refused_entries_are_recomputed_and_rewritten(self, tmp_path, capsys):
        spec = util.biv_cross()
        path = write_spec(tmp_path, spec)
        other = write_spec(tmp_path, util.carma21_spec(), "other.json")
        assert main(["validate", "--model", path]) == 0
        expected = capsys.readouterr().out
        assert main(["validate", "--model", other]) == 0
        capsys.readouterr()
        entry = self.entry_path(spec)
        good = entry.read_text()
        cases = self.corruptions(good, self.entry_path(util.carma21_spec()).read_text())
        assert sorted(cases) == sorted([
            "another spec's entry", "edited number", "foreign host", "foreign numpy",
            "foreign python", "foreign source", "not json", "pickle", "truncated",
        ])
        key, spec_json = cli._entry_key(), canonical_json(spec_to_dict(spec))
        for name, data in cases.items():
            entry.write_bytes(data)
            assert cli.read_entry(entry, key, spec_json) is None, name
            dynamics.cache_clear()
            validate.cache_clear()
            assert main(["validate", "--model", path]) == 0, name
            assert capsys.readouterr().out == expected, name
            assert entry.read_text() == good, name

    def test_unusable_cache_directory_changes_no_output(self, tmp_path, monkeypatch, capfd):
        # the cache home a file, the cache directory a file, an entry's name
        # a directory: each command's exit code and output are those of a
        # writable cache
        spec = util.carma21_spec()
        path = write_spec(tmp_path, spec)
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        (blocked / "file").write_text("")
        (blocked / "home" / "carma-hawkes").mkdir(parents=True)
        (blocked / "home" / "carma-hawkes" / f"{spec_hash(spec)}.json").mkdir()
        (blocked / "dirfile").mkdir()
        (blocked / "dirfile" / "carma-hawkes").write_text("")
        commands = (["validate"], ["bench", "--horizon", "20", "--seed", "1"],
                    ["simulate", "--horizon", "20", "--seed", "1", "--out", str(tmp_path / "runs")])

        def outputs():
            dynamics.cache_clear()
            validate.cache_clear()
            got = []
            for command in commands:
                code = main([*command, "--model", path])
                captured = capfd.readouterr()
                out = json.loads(captured.out)
                for timing in ("wall_seconds", "simulate_seconds", "events_per_sec",
                               "proposals_per_sec"):
                    out.pop(timing, None)
                got.append((code, out, captured.err))
            return got

        expected = outputs()
        assert [code for code, _, _ in expected] == [0, 0, 0]
        for home in (blocked / "file", blocked / "home", blocked / "dirfile"):
            monkeypatch.setenv("XDG_CACHE_HOME", str(home))
            assert outputs() == expected, home
        assert sorted(p.name for p in (blocked / "home" / "carma-hawkes").iterdir()) == [
            f"{spec_hash(spec)}.json"
        ]

    def test_failing_dynamics_writes_no_entry(self, tmp_path, cache_home, capsys):
        # a repeated root: validate reports it (exit 3), simulate refuses it
        # even forced (exit 2), and there is nothing to keep
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({"type": "univariate", "mu": 0.3, "a": [2.0, 1.0], "b": [1.0]}))
        assert main(["validate", "--model", str(path)]) == 3
        assert json.loads(capsys.readouterr().out)["flags"] == ["DegenerateEigenvalues"]
        assert main(["simulate", "--model", str(path), "--horizon", "5", "--seed", "1",
                     "--force", "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.startswith("error: roots ")
        assert not (cache_home / "carma-hawkes").exists()

    def test_library_calls_touch_no_file(self, cache_home):
        spec = util.carma31_spec()
        log = simulate(spec, 50.0, rng=3)
        summarize(spec, log)
        dynamics(util.biv_lagged())
        validate(util.biv_lagged())
        assert not cache_home.exists()

    def test_cache_home_follows_xdg(self, monkeypatch):
        # an unset, empty or relative XDG_CACHE_HOME means ~/.cache
        monkeypatch.setenv("HOME", "/home/someone")
        for value in (None, "", "relative/cache"):
            if value is None:
                monkeypatch.delenv("XDG_CACHE_HOME")
            else:
                monkeypatch.setenv("XDG_CACHE_HOME", value)
            assert cli._cache_dir() == Path("/home/someone/.cache/carma-hawkes")
        monkeypatch.setenv("XDG_CACHE_HOME", "/var/cache/me")
        assert cli._cache_dir() == Path("/var/cache/me/carma-hawkes")
        # no home directory either (expanduser leaves "~"): no cache, rather
        # than one under the working directory
        monkeypatch.setenv("XDG_CACHE_HOME", "")
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        assert cli._cache_dir() is None
