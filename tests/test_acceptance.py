"""Acceptance gate: every release-blocking property in one module.

Each test prints a PASS line once its assertions clear; run with

    pytest tests/test_acceptance.py -v -s

to see one line per criterion.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

import util
from test_cli import run_cli, write_spec

from carma_hawkes import (
    UnivariateSpec,
    bound_path,
    dynamics,
    intensity_path,
    kolmogorov_survival,
    ks_exp1,
    simulate,
    spectral_decompose,
    summarize,
)
from carma_hawkes.spectral import _bound_constant_dense, _l2, ma_value
from oracles import (
    BoundTracker,
    apply_event,
    bound_after_event,
    bound_value,
    compensator_increment,
    exp_action,
    initial_state,
    intensity_at,
    state_vector,
)

SEED_BASE = 3000
PROTOCOL_HORIZON = 10000.0
PROTOCOL_SEEDS = 20

MODELS = {
    "hawkes": util.hawkes_spec(),
    "carma21": util.carma21_spec(),
    "carma31": util.carma31_spec(),
    "biv_independent": util.biv_independent(),
    "biv_cross": util.biv_cross(),
    "biv_lagged": util.biv_lagged(),
}


@pytest.fixture(scope="module")
def protocol_runs():
    """20 fixed-seed horizon-10000 runs per model, with per-marginal
    KS statistics and empirical rates.  Shared by criteria 5 and 6."""
    t0 = time.perf_counter()
    stats: dict[tuple[str, int], list[tuple[float, float, float, float]]] = {}
    for name, spec in MODELS.items():
        override = util.needs_override(spec)
        for k in range(PROTOCOL_SEEDS):
            log = simulate(
                spec, PROTOCOL_HORIZON, rng=SEED_BASE + k, override_validation=override
            )
            report = summarize(spec, log)
            for comp in report.components:
                stats.setdefault((name, comp.component), []).append(
                    (
                        comp.ks.statistic,
                        comp.ks.p_value,
                        comp.empirical_rate,
                        comp.residual_mean,
                    )
                )
    return stats, time.perf_counter() - t0


def test_criterion_1_bound_domination():
    """Intensity never exceeds its envelope along simulated paths."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for name, spec in MODELS.items():
        log = simulate(
            spec, 1000.0, rng=SEED_BASE, override_validation=util.needs_override(spec)
        )
        ts = np.sort(rng.uniform(0.0, 1000.0, size=10_000))
        lam = intensity_path(spec, log, ts)
        total = lam if lam.ndim == 1 else lam.sum(axis=1)
        bar = bound_path(spec, log, ts)
        worst = float(np.max(total - bar))
        assert worst <= 1e-9, f"{name}: intensity exceeded envelope by {worst}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"domination check took {elapsed:.1f}s (budget 10s)"
    print(f"\nACCEPTANCE 1 bound domination (6 models, 1e4 samples, {elapsed:.1f}s): PASS")


def test_criterion_2_envelope_recursion_equals_definition():
    """The anchored recursion reproduces the explicit decayed-jump sum."""
    rng = np.random.default_rng(202)
    for _ in range(100):
        base = float(rng.uniform(0.2, 1.5))
        decay = float(-rng.uniform(0.1, 3.0))
        jumps = tuple(rng.uniform(0.2, 2.5, size=2))
        n = int(rng.integers(1, 51))
        times = np.sort(rng.uniform(0.0, 40.0, size=n))
        marks = rng.integers(1, 3, size=n)
        tracker = BoundTracker(
            base=base, decay=decay, jump_size_for_mark=jumps,
            lambda_bar=base, anchor_time=0.0,
        )
        for t, m in zip(times, marks):
            tracker = bound_after_event(tracker, float(t), int(m))
        t_eval = float(times[-1] + rng.uniform(0.0, 3.0))
        direct = base + sum(
            jumps[m - 1] * math.exp(decay * (t_eval - t))
            for t, m in zip(times, marks)
        )
        got = bound_value(tracker, t_eval)
        assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct))
    print("\nACCEPTANCE 2 envelope recursion == decayed-jump sum (100 sequences): PASS")


def test_criterion_3_order_one_envelope_tightness():
    """For order p=1 the envelope equals the intensity pathwise."""
    rng = np.random.default_rng(303)
    for mu, a1, b0 in ((0.3, 3.0, 1.0), (0.4, 2.5, 0.55)):
        spec = UnivariateSpec(mu=mu, a=(a1,), b=(b0,))
        log = simulate(spec, 500.0, rng=SEED_BASE)
        ts = np.sort(rng.uniform(0.0, 500.0, size=1000))
        gap = bound_path(spec, log, ts) - intensity_path(spec, log, ts)
        worst = float(np.max(np.abs(gap)))
        assert worst < 1e-12, f"b0={b0}: |envelope - intensity| up to {worst}"
    print("\nACCEPTANCE 3 order-1 envelope tightness (<1e-12 at 1e3 times): PASS")


def test_criterion_4_envelope_constant_forms_agree():
    """Spectral-sum and materialised-norm-product envelope constants agree."""

    def univariate_pair(spec):
        sd = spectral_decompose(spec.ar[0])
        k_spec = _l2(ma_value(spec.ma[0][0], lam) for lam in sd.eigenvalues) * _l2(sd.sinv_e)
        return k_spec, _bound_constant_dense(sd, spec.ma[0][0])

    def bivariate_pairs(spec):
        sd1 = spectral_decompose(spec.ar[0])
        sd2 = spectral_decompose(spec.ar[1])
        p1, p2 = map(len, spec.ar)
        m = p1 + p2
        s_mat = np.zeros((m, m), dtype=complex)
        s_mat[:p1, :p1] = np.vander(np.array(sd1.eigenvalues), increasing=True).T
        s_mat[p1:, p1:] = np.vander(np.array(sd2.eigenvalues), increasing=True).T
        b_mat = np.zeros((2, m))
        b_mat[0, :p1], b_mat[0, p1:] = spec.ma[0][0], spec.ma[0][1]
        b_mat[1, :p1], b_mat[1, p1:] = spec.ma[1][0], spec.ma[1][1]
        row = np.ones(2) @ b_mat @ s_mat
        e_bar = np.zeros((m, 2), dtype=complex)
        e_bar[p1 - 1, 0] = 1.0
        e_bar[m - 1, 1] = 1.0
        cols = np.linalg.solve(s_mat, e_bar)
        dyn = dynamics(spec)
        return [
            (dyn.bound_jumps[j], float(np.linalg.norm(row) * np.linalg.norm(cols[:, j])))
            for j in (0, 1)
        ]

    pairs = []
    for spec in MODELS.values():
        if spec.n_components == 1:
            pairs.append(univariate_pair(spec))
        else:
            pairs.extend(bivariate_pairs(spec))
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        pairs.append(univariate_pair(util.random_univariate_spec(rng, p_max=5)))
    worst = max(abs(a - b) / max(a, b, 1e-300) for a, b in pairs)
    assert worst <= 1e-12, f"worst relative disagreement {worst}"
    print(f"\nACCEPTANCE 4 envelope-constant forms agree (worst rel {worst:.2e}): PASS")


def test_criterion_5_residual_validity(protocol_runs):
    """Transformed inter-event gaps look unit-exponential on long runs."""
    stats, elapsed = protocol_runs
    lines = []
    for (name, comp), vals in sorted(stats.items()):
        n_pass = sum(1 for _, p, _, _ in vals if p > 0.01)
        median_d = float(np.median([d for d, _, _, _ in vals]))
        assert n_pass >= 18, f"{name}.{comp}: only {n_pass}/20 seeds with p > 0.01"
        assert median_d < 0.02, f"{name}.{comp}: median KS statistic {median_d}"
        for _, _, _, mean in vals:
            assert 0.95 <= mean <= 1.05, f"{name}.{comp}: residual mean {mean}"
        lines.append(f"{name}.{comp} {n_pass}/20 medD={median_d:.4f}")
    assert elapsed < 120.0, f"protocol took {elapsed:.0f}s (budget 120s)"
    print(f"\nACCEPTANCE 5 residual KS validity ({elapsed:.0f}s): PASS")
    for line in lines:
        print("   ", line)


def test_criterion_6_stationary_rates(protocol_runs):
    """Mean empirical rates match the closed-form stationary rates."""
    stats, _ = protocol_runs
    br31 = 0.2 / (0.025 + 0.025 * math.pi**2)
    targets = {
        ("hawkes", 1): 0.45,
        ("carma21", 1): 0.6,
        ("carma31", 1): 0.3 / (1.0 - br31),  # ~1.1364
        ("biv_independent", 1): 0.45,
        ("biv_independent", 2): 0.6,
    }
    for key, target in targets.items():
        mean_rate = float(np.mean([r for _, _, r, _ in stats[key]]))
        assert abs(mean_rate - target) <= 0.05 * target, (
            f"{key}: rate {mean_rate:.4f} vs {target:.4f}"
        )
    print("\nACCEPTANCE 6 stationary rates within 5%: PASS")


def test_criterion_7_state_and_compensator_oracles():
    """Incremental state matches the from-scratch sum; the closed-form
    compensator matches adaptive quadrature of the intensity."""
    rng = np.random.default_rng(707)
    for case in range(50):
        bivariate = case % 5 < 2
        spec = (
            util.random_bivariate_spec(rng)
            if bivariate
            else util.random_univariate_spec(rng, p_max=4)
        )
        n_ev = int(rng.integers(1, 21))
        times = np.sort(rng.uniform(0.0, 8.0, size=n_ev))
        marks = rng.integers(1, spec.n_components + 1, size=n_ev)
        state = initial_state(spec)
        for t, m in zip(times, marks):
            state = apply_event(spec, state, float(t), int(m))

        # state-propagation oracle via independent matrix-exponential action
        t_end = float(times[-1])
        if bivariate:
            sd1 = spectral_decompose(spec.ar[0])
            sd2 = spectral_decompose(spec.ar[1])
            p1, p2 = map(len, spec.ar)
            direct = np.zeros(p1 + p2)
            for t, m in zip(times, marks):
                dt = t_end - float(t)
                if m == 1:
                    e1 = np.zeros(p1)
                    e1[-1] = 1.0
                    direct[:p1] += exp_action(sd1, e1, dt)
                else:
                    e2 = np.zeros(p2)
                    e2[-1] = 1.0
                    direct[p1:] += exp_action(sd2, e2, dt)
        else:
            sd = spectral_decompose(spec.ar[0])
            e_vec = np.zeros(len(spec.ar[0]))
            e_vec[-1] = 1.0
            direct = np.zeros(len(spec.ar[0]))
            for t in times:
                direct += exp_action(sd, e_vec, t_end - float(t))
        got = state_vector(spec, state)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert float(np.max(np.abs(got - direct))) <= 1e-9 * scale

        # compensator oracle: adaptive quadrature of the intensity
        t0 = t_end + float(rng.uniform(0.0, 1.0))
        t1 = t0 + float(rng.uniform(0.2, 3.0))
        closed = compensator_increment(spec, state, t0, t1)
        if bivariate:
            for c in (0, 1):
                numeric, _ = quad(
                    lambda s: intensity_at(spec, state, s)[c], t0, t1, limit=200
                )
                assert abs(closed[c] - numeric) <= 1e-6
        else:
            numeric, _ = quad(lambda s: intensity_at(spec, state, s), t0, t1, limit=200)
            assert abs(closed - numeric) <= 1e-6
    print("\nACCEPTANCE 7 state & compensator oracles (50 random cases): PASS")


def test_criterion_8_deterministic_replication(tmp_path):
    """Same seed: byte-identical event files, across reruns and process
    counts.  Runs a and b are pinned to one CPU, so each simulates its three
    replications in one process; run c is not, so it splits them over
    P = min(3, usable CPUs) processes.  With one usable CPU the one-vs-P leg
    is skipped, and the PASS line says so."""
    spec = util.biv_cross()
    model = write_spec(tmp_path, spec)
    args = ["simulate", "--model", model, "--horizon", "400", "--seed", "77",
            "--reps", "3"]
    cpus = sorted(os.sched_getaffinity(0))
    procs = min(3, len(cpus))
    runs = {"a": cpus[0], "b": cpus[0]}  # the CPU a run is pinned to, or None
    if procs > 1:
        runs["c"] = None
    for tag, cpu in runs.items():
        res = run_cli(args + ["--out", str(tmp_path / tag)], cpu=cpu)
        assert res.returncode == 0, res.stderr
    for k in range(3):
        ref = (tmp_path / "a" / f"events_{k}.csv").read_bytes()
        for tag in runs:
            assert (tmp_path / tag / f"events_{k}.csv").read_bytes() == ref, (tag, k)
    legs = f"reruns and 1-vs-{procs} processes" if procs > 1 else (
        "reruns; one usable CPU, so the 1-vs-P processes leg was skipped"
    )
    print(f"\nACCEPTANCE 8 deterministic replication ({legs}): PASS")


def test_criterion_9_ks_self_test():
    """Hand-checkable KS statistics and survival value."""
    r1 = ks_exp1([math.log(2.0)])
    assert r1.statistic == pytest.approx(0.5, abs=1e-15)
    r2 = ks_exp1([-math.log(0.75), -math.log(0.25)])
    assert r2.statistic == pytest.approx(0.25, abs=1e-15)
    assert kolmogorov_survival(1.0) == pytest.approx(0.270000, abs=1e-6)
    print("\nACCEPTANCE 9 KS machinery self-test: PASS")
