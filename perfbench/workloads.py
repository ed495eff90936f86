"""Workload definitions shared by run.py and its worker.

Every input a run uses is derived here from the workload seed, so one seed
always gives the same replication seeds, horizons and input files.
"""

from __future__ import annotations

import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODELS_DIR = ROOT / "models"

ALL_MODELS = (
    "hawkes",
    "carma21",
    "carma31",
    "bivariate_independent",
    "bivariate_cross",
    "bivariate_lagged",
)

# kind: "simulate" and "diagnose" run the CLI, "library" calls the package.
# models: (model, horizon) pairs; one round runs one operation per pair.
# reps: replications per `simulate` call; for diagnose-cli, the input files
#   generated per model, one for each of its ks_rounds.
# ks_rounds: every run does at least this many rounds, and ks_pass_share
#   counts the KS tests of these rounds only, so for one seed the count does
#   not depend on how many rounds the time budget allows.  Each round of
#   synth-cli and diagnose-cli holds 5 KS components and each round of
#   protocol-lib 9, so a component that always rejects moves the share by
#   more than its 0.1 bound on every workload.
# Horizons give each CLI call about a second of work on a 2-core machine, so
# that process start stays a small share of a call.
WORKLOADS = {
    "synth-cli": {
        "kind": "simulate",
        "models": (
            ("carma31", 30_000.0),
            ("bivariate_cross", 20_000.0),
            ("bivariate_lagged", 20_000.0),
        ),
        "reps": 2,
        "ks_rounds": 4,
    },
    "diagnose-cli": {
        "kind": "diagnose",
        "models": (
            ("carma21", 50_000.0),
            ("bivariate_independent", 30_000.0),
            ("bivariate_cross", 20_000.0),
        ),
        "reps": 6,
        "ks_rounds": 6,
    },
    "protocol-lib": {
        "kind": "library",
        "models": tuple((name, 10_000.0) for name in ALL_MODELS),
        "reps": 1,
        "ks_rounds": 8,
    },
}

# --tiny shrinks every horizon by this factor (used by the self-test).
TINY_SCALE = 0.02

# KS tests with p below this count as rejections.
KS_ALPHA = 0.01


def model_path(name: str) -> Path:
    return MODELS_DIR / f"{name}.json"


def horizons(workload: str, tiny: bool) -> list[tuple[str, float]]:
    scale = TINY_SCALE if tiny else 1.0
    return [(m, h * scale) for m, h in WORKLOADS[workload]["models"]]


def _seed_stream(seed: int, purpose: str) -> random.Random:
    # str seeds are hashed with SHA-512, so streams are stable across runs
    return random.Random(f"{seed}/{purpose}")


def input_seeds(workload: str, seed: int) -> dict[str, int]:
    """Base seed of the generated input files of each model (diagnose-cli)."""
    rng = _seed_stream(seed, f"{workload}/inputs")
    return {m: rng.randrange(1, 2**31) for m, _ in WORKLOADS[workload]["models"]}


def round_ops(workload: str, seed: int, rnd: int, tiny: bool) -> list[dict]:
    """The operations of round `rnd`: one per model, in a fixed order."""
    spec = WORKLOADS[workload]
    rng = _seed_stream(seed, f"{workload}/round{rnd}")
    ops = []
    for model, horizon in horizons(workload, tiny):
        op = {"round": rnd, "model": model, "horizon": horizon}
        if spec["kind"] == "diagnose":
            op["input"] = rnd % spec["reps"]
        else:
            op["seed"] = rng.randrange(1, 2**31)
            op["reps"] = spec["reps"]
        ops.append(op)
    return ops


def cli_argv(op: dict, kind: str, opdir: Path, inputs: dict) -> list[str]:
    """Arguments of the `carma-hawkes` call that runs one CLI operation."""
    model = str(model_path(op["model"]))
    if kind == "simulate":
        return [
            "simulate", "--model", model, "--horizon", repr(op["horizon"]),
            "--seed", str(op["seed"]), "--reps", str(op["reps"]),
            "--out", str(opdir), "--force",
        ]
    return [
        "diagnose", "--model", model,
        "--events", inputs[op["model"]][op["input"]], "--out", str(opdir),
    ]

