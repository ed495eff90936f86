import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import util
from carma_hawkes import read_events_csv, save_spec, summarize
from carma_hawkes.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_spec(tmp_path, spec, name="model.json"):
    path = tmp_path / name
    save_spec(spec, path)
    return str(path)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "carma_hawkes", *args],
        capture_output=True,
        text=True,
        env=env,
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

    def test_negative_horizon_exits_2(self, tmp_path, carma21):
        model = write_spec(tmp_path, carma21)
        code = main(["simulate", "--model", model, "--horizon", "-1", "--seed", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2

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

        monkeypatch.setattr(cli_mod, "simulate", boom)
        model = write_spec(tmp_path, carma21)
        code = main(["simulate", "--model", model, "--horizon", "10", "--seed", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 4

    def test_trace_grid(self, tmp_path, carma21, capsys):
        model = write_spec(tmp_path, carma21)
        out = tmp_path / "runs"
        code = main(["simulate", "--model", model, "--horizon", "50", "--seed", "8",
                     "--out", str(out), "--trace-intensity", "0.5"])
        assert code == 0
        lines = (out / "trace_0.csv").read_text().strip().splitlines()
        assert lines[0] == "time,intensity,bound"
        assert len(lines) == 1 + 101  # grid 0..50 step 0.5
        for row in lines[1:]:
            _, lam, bar = row.split(",")
            assert float(lam) <= float(bar) + 1e-9

    def test_bad_trace_step_exits_2(self, tmp_path, carma21, capsys):
        model = write_spec(tmp_path, carma21)
        for step in ("0", "nan", "inf"):
            code = main(["simulate", "--model", model, "--horizon", "10", "--seed", "1",
                         "--out", str(tmp_path / "x"), "--trace-intensity", step])
            assert code == 2
            assert "--trace-intensity" in capsys.readouterr().err


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
        # a horizon before the last event, a non-finite or null sidecar
        # number, or a sidecar that is valid JSON but not an object
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
                        {"squeezed": 2.5}, {"squeezed": None})
        ] + [[1, 2]]
        for sidecar in bad_sidecars:
            meta_path.write_text(json.dumps(sidecar))
            assert main(["diagnose", "--model", model, "--events",
                         str(out / "events_0.csv")]) == 2
            captured = capsys.readouterr()
            assert "metadata" in captured.err
            assert captured.out == ""

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

    def test_reports_squeezed_share(self, tmp_path, carma31, capsys):
        # carma31's envelope is loose, so the squeeze decides most rejections
        model = write_spec(tmp_path, carma31)
        assert main(["bench", "--model", model, "--horizon", "500", "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0 < out["squeezed_share"] <= 1 - out["acceptance_ratio"]

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

    def test_thread_count_does_not_change_output(self, tmp_path, biv_cross):
        model = write_spec(tmp_path, biv_cross)
        args = ["simulate", "--model", model, "--horizon", "300", "--seed", "7",
                "--reps", "3"]
        r1 = run_cli(args + ["--out", str(tmp_path / "t1")],
                     env_extra={"CARMA_HAWKES_THREADS": "1"})
        rn = run_cli(args + ["--out", str(tmp_path / "tn")],
                     env_extra={"CARMA_HAWKES_THREADS": "4"})
        assert r1.returncode == 0 and rn.returncode == 0, r1.stderr + rn.stderr
        for k in range(3):
            a = (tmp_path / "t1" / f"events_{k}.csv").read_bytes()
            b = (tmp_path / "tn" / f"events_{k}.csv").read_bytes()
            assert a == b


class TestBundledModels:
    def test_console_validate_bundled(self, capsys):
        model = REPO_ROOT / "models" / "carma31.json"
        assert main(["validate", "--model", str(model)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["branching"] == pytest.approx(0.736, abs=5e-4)
