import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from carma_hawkes import (
    DiagnosticsReport,
    EmptySample,
    NumericalOverflow,
    SpecLogMismatch,
    UnivariateSpec,
    dynamics,
    kolmogorov_survival,
    ks_exp1,
    residual_transform,
    simulate_bivariate,
    simulate_univariate,
    summarize,
    write_report_json,
)
from carma_hawkes.diagnostics import BLOCK_EVENTS, BLOCK_EXPONENT

PARITY_RTOL = 1e-10


class TestResidualTransform:
    def test_pure_poisson(self):
        spec = UnivariateSpec(mu=0.3, a=(1.0,), b=(0.0,))
        log = util.make_log([1.0, 2.0], horizon=2.0, spec=spec)
        series = residual_transform(spec, log)
        assert series.taus == pytest.approx([0.3, 0.3], abs=1e-15)

    def test_single_event(self, hawkes):
        log = util.make_log([1.0], horizon=1.0, spec=hawkes)
        series = residual_transform(hawkes, log)
        assert series.taus == pytest.approx([0.3], abs=1e-12)

    def test_two_events_closed_form(self, hawkes):
        # oracle: second gap integrates mu plus one kernel tail:
        # 0.3 + (1/3)(1 - e^-3)
        log = util.make_log([1.0, 2.0], horizon=2.0, spec=hawkes)
        series = residual_transform(hawkes, log)
        expected = 0.3 + (1.0 - math.exp(-3.0)) / 3.0
        assert series.taus[1] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.616738, abs=5e-7)

    def test_censored_tail_discarded(self, hawkes):
        log = util.make_log([1.0], horizon=100.0, spec=hawkes)
        assert len(residual_transform(hawkes, log)) == 1

    def test_bivariate_counts_per_component(self, biv_cross):
        log = util.make_log([0.5, 1.0, 2.0, 2.5], [1, 2, 2, 1], spec=biv_cross)
        s1 = residual_transform(biv_cross, log, component=1)
        s2 = residual_transform(biv_cross, log, component=2)
        assert len(s1) == 2
        assert len(s2) == 2
        assert all(t >= 0 for t in s1.taus + s2.taus)

    def test_bivariate_cross_effects_enter_compensator(self, biv_cross):
        # a component-2 event must change component 1's later residual
        with_cross = util.make_log([1.0, 2.0], [2, 1], spec=biv_cross)
        without = util.make_log([2.0], [1], spec=biv_cross)
        tau_with = residual_transform(biv_cross, with_cross, component=1).taus[0]
        tau_without = residual_transform(biv_cross, without, component=1).taus[0]
        assert tau_with > tau_without  # b12 is positive for this spec

    def test_component_validation(self, hawkes, biv_cross):
        log = util.make_log([1.0], spec=hawkes)
        with pytest.raises(ValueError):
            residual_transform(hawkes, log, component=2)
        log2 = util.make_log([1.0], [1], spec=biv_cross)
        with pytest.raises(ValueError):
            residual_transform(biv_cross, log2, component=3)

    def test_spec_hash_mismatch(self, hawkes, carma21):
        log = util.make_log([1.0, 2.0], spec=carma21)
        with pytest.raises(SpecLogMismatch):
            residual_transform(hawkes, log)

    def test_no_hash_no_check(self, hawkes):
        log = util.make_log([1.0, 2.0])  # no spec hash in metadata
        assert len(residual_transform(hawkes, log)) == 2

    def test_mark_outside_spec(self, hawkes):
        log = util.make_log([1.0, 2.0], [1, 2])
        with pytest.raises(SpecLogMismatch):
            residual_transform(hawkes, log)


def _assert_matches_oracle(spec, log):
    """Scan and oracle agree to PARITY_RTOL relative to each residual's size.

    The size is the oracle's sum of absolute terms.  It equals |tau| when
    nothing cancels; a residual that cancels towards 0 (a negative
    intensity, or modal weights of opposite sign) is only ever known to
    rounding on that larger scale, by either implementation.
    """
    for c in range(1, spec.n_components + 1):
        got = np.array(residual_transform(spec, log, component=c).taus)
        want, sizes = (np.array(v) for v in util.residual_transform_scalar(spec, log, component=c))
        assert got.shape == want.shape
        worst = np.max(np.abs(got - want) / sizes, initial=0.0)
        assert worst <= PARITY_RTOL, f"component {c}: relative disagreement {worst:.3g}"


def _random_log(rng, n_comp, n, scale):
    times = np.cumsum(rng.exponential(scale, size=n)) + 1e-3
    marks = rng.integers(1, n_comp + 1, size=n)
    return util.make_log(times, marks)


class TestResidualScanParity:
    """The blocked scan against the per-event scalar oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bivariate=st.booleans(),
        n=st.integers(1, 400),
        log_scale=st.floats(-2.0, 2.0),
    )
    def test_random_specs_and_logs(self, seed, bivariate, n, log_scale):
        rng = np.random.default_rng(seed)
        if bivariate:
            spec = util.random_bivariate_spec(rng)
        else:
            spec = util.random_univariate_spec(rng)
        _assert_matches_oracle(spec, _random_log(rng, spec.n_components, n, 10.0**log_scale))

    def test_log_crosses_blocks_by_count_and_span(self, biv_cross):
        # a dense stretch fills blocks by event count, a sparse one by span
        rng = np.random.default_rng(5)
        gaps = np.concatenate(
            [rng.exponential(0.01, size=3 * BLOCK_EVENTS), rng.exponential(20.0, size=600)]
        )
        times = np.cumsum(gaps)
        marks = rng.integers(1, 3, size=len(times))
        max_rate = max(abs(lam.real) for lam in dynamics(biv_cross).lams)
        assert times[3 * BLOCK_EVENTS - 1] * max_rate < BLOCK_EXPONENT
        sparse_span = times[-1] - times[3 * BLOCK_EVENTS]
        assert sparse_span * max_rate > 10 * BLOCK_EXPONENT
        _assert_matches_oracle(biv_cross, util.make_log(times, marks))

    def test_single_long_gap(self, carma31):
        times = [0.5, 1.0, 1.7, 1.7 + 1e4, 1e4 + 2.0, 1e4 + 2.4]
        _assert_matches_oracle(carma31, util.make_log(times))

    def test_forced_nonstationary_overflow(self):
        spec = UnivariateSpec(mu=0.3, a=(-0.5,), b=(1.0,))  # root at +0.5
        log = util.make_log([1.0, 2.0, 2002.0])
        with pytest.raises(NumericalOverflow):
            util.residual_transform_scalar(spec, log)
        with pytest.raises(NumericalOverflow):
            residual_transform(spec, log)


class TestKsTest:
    def test_single_point_hand_case(self):
        # F(ln 2) = 0.5, empirical CDF steps 0 -> 1: D = 0.5
        res = ks_exp1([math.log(2.0)])
        assert res.statistic == pytest.approx(0.5, abs=1e-15)
        assert res.n == 1

    def test_two_point_hand_case(self):
        # F values 0.25 and 0.75 against steps 0, 0.5, 1: D = 0.25
        xs = [-math.log(0.75), -math.log(0.25)]
        res = ks_exp1(xs)
        assert res.statistic == pytest.approx(0.25, abs=1e-15)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_exp1([])

    def test_survival_at_one(self):
        # oracle: 2(e^-2 - e^-8 + e^-18 - e^-32 + ...)
        expected = 2 * (
            math.exp(-2.0) - math.exp(-8.0) + math.exp(-18.0) - math.exp(-32.0)
        )
        assert kolmogorov_survival(1.0) == pytest.approx(expected, abs=1e-13)
        assert kolmogorov_survival(1.0) == pytest.approx(0.270000, abs=1e-6)

    def test_survival_monotone_and_bounded(self):
        kappas = np.linspace(0.01, 3.0, 150)
        vals = [kolmogorov_survival(float(k)) for k in kappas]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert kolmogorov_survival(0.0) == 1.0
        assert kolmogorov_survival(3.0) < 1e-6

    def test_truncation_error_below_1e10(self):
        # compare against a much deeper partial sum
        for kappa in (0.3, 0.5, 0.8, 1.2, 2.0):
            deep = 2.0 * sum(
                (-1) ** (k - 1) * math.exp(-2.0 * k * k * kappa * kappa)
                for k in range(1, 200)
            )
            assert kolmogorov_survival(kappa) == pytest.approx(deep, abs=1e-10)

    def test_statistic_matches_brute_force_grid(self):
        # oracle: max |F_emp - F| over a dense grid augmented with both
        # one-sided empirical CDF values at every sample point
        rng = np.random.default_rng(71)
        for n in (1, 2, 3, 10, 40, 100):
            xs = np.sort(rng.exponential(size=n) * rng.uniform(0.5, 2.0))
            got = ks_exp1(xs.tolist()).statistic
            grid = np.linspace(0.0, float(xs[-1]) + 1.0, 5000)
            candidates = []
            for t in grid:
                f_emp = np.searchsorted(xs, t, side="right") / n
                candidates.append(abs(f_emp - (1 - math.exp(-t))))
            for i, x in enumerate(xs, start=1):
                f = 1 - math.exp(-x)
                candidates.append(abs(i / n - f))
                candidates.append(abs((i - 1) / n - f))
            assert got == pytest.approx(max(candidates), abs=1e-12)

    def test_accepts_residual_series(self, hawkes):
        log = util.make_log([1.0, 2.0], spec=hawkes)
        series = residual_transform(hawkes, log)
        assert ks_exp1(series).n == 2


class TestSummarize:
    def test_report_json_is_strict(self, hawkes, tmp_path):
        log = util.make_log([1.0], spec=hawkes)
        report = summarize(hawkes, log)
        bad = DiagnosticsReport(
            components=report.components,
            horizon=math.inf,
            acceptance_ratio=report.acceptance_ratio,
            residuals=report.residuals,
        )
        with pytest.raises(ValueError):
            write_report_json(bad, tmp_path / "report.json")

    def test_empty_log(self, hawkes):
        log = util.make_log([], horizon=100.0, spec=hawkes)
        report = summarize(hawkes, log)
        comp = report.components[0]
        assert comp.n_events == 0
        assert comp.ks is None
        assert comp.empirical_rate == 0.0
        d = report.to_dict()
        assert d["components"][0]["ks_statistic"] is None

    def test_theoretical_rates_in_report(self, hawkes, carma31):
        log = util.make_log([1.0], horizon=10.0, spec=hawkes)
        report = summarize(hawkes, log)
        assert report.components[0].theoretical_rate == pytest.approx(0.45, abs=1e-12)
        log31 = util.make_log([1.0], horizon=10.0, spec=carma31)
        report31 = summarize(carma31, log31)
        assert report31.components[0].theoretical_rate == pytest.approx(1.1364, abs=5e-4)

    def test_report_fields(self, carma21):
        log = simulate_univariate(carma21, 800.0, rng=99)
        report = summarize(carma21, log)
        d = report.to_dict()
        row = d["components"][0]
        for key in (
            "component",
            "n_events",
            "empirical_rate",
            "theoretical_rate",
            "ks_statistic",
            "ks_p_value",
            "acceptance_ratio",
        ):
            assert key in row
        assert row["acceptance_ratio"] == log.meta.acceptance_ratio
        assert row["n_events"] == len(log)

    def test_bivariate_reports_both_marginals(self, biv_independent):
        log = simulate_bivariate(biv_independent, 800.0, rng=17)
        report = summarize(biv_independent, log)
        assert [c.component for c in report.components] == [1, 2]
        assert sum(c.n_events for c in report.components) == len(log)

    def test_residual_mean_near_one(self, carma21):
        log = simulate_univariate(carma21, 6000.0, rng=321)
        report = summarize(carma21, log)
        comp = report.components[0]
        assert comp.n_events > 3000
        assert 0.95 <= comp.residual_mean <= 1.05
        assert comp.ks.p_value > 0.01
