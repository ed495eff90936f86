import dataclasses
import functools
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import util
from carma_hawkes import diagnostics, model, thinning
from carma_hawkes import (
    BivariateSpec,
    CarmaHawkesError,
    ComponentDiagnostics,
    DiagnosticsReport,
    EmptySample,
    KsResult,
    NanSample,
    NumericalOverflow,
    SpecLogMismatch,
    UnivariateSpec,
    ValidationReport,
    dynamics,
    kolmogorov_survival,
    ks_exp1,
    residual_transform,
    simulate,
    summarize,
    write_report_json,
    write_residuals_csv,
)
from carma_hawkes.diagnostics import BLOCK_EVENTS, BLOCK_EXPONENT, ResidualSeries

PARITY_RTOL = 1e-10


def _on_gap(n, k, step):
    """A point whose F is k/n, moved by step ulps (-1, 0 or 1)."""
    x = -math.log1p(-k / n)
    return x if step == 0 else math.nextafter(x, step * math.inf)


@st.composite
def ks_tie_samples(draw):
    n = draw(st.integers(1, 12))
    on_gap = st.builds(_on_gap, st.just(n), st.integers(0, n - 1), st.sampled_from((-1, 0, 1)))
    other = st.floats(-800.0, 50.0) | st.sampled_from([math.inf, -math.inf, -700.0, -710.0])
    return draw(st.lists(st.one_of(on_gap, on_gap, on_gap, other), min_size=n, max_size=n))


class TestResidualTransform:
    def test_pure_poisson(self):
        spec = UnivariateSpec(mu=0.3, a=(1.0,), b=(0.0,))
        log = util.make_log([1.0, 2.0], horizon=2.0, spec=spec)
        (series,) = residual_transform(spec, log)
        assert series.taus == pytest.approx([0.3, 0.3], abs=1e-15)

    def test_single_event(self, hawkes):
        log = util.make_log([1.0], horizon=1.0, spec=hawkes)
        (series,) = residual_transform(hawkes, log)
        assert series.taus == pytest.approx([0.3], abs=1e-12)

    def test_two_events_closed_form(self, hawkes):
        # oracle: second gap integrates mu plus one kernel tail:
        # 0.3 + (1/3)(1 - e^-3)
        log = util.make_log([1.0, 2.0], horizon=2.0, spec=hawkes)
        (series,) = residual_transform(hawkes, log)
        expected = 0.3 + (1.0 - math.exp(-3.0)) / 3.0
        assert series.taus[1] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.616738, abs=5e-7)

    def test_censored_tail_discarded(self, hawkes):
        log = util.make_log([1.0], horizon=100.0, spec=hawkes)
        (series,) = residual_transform(hawkes, log)
        assert len(series) == 1

    def test_bivariate_counts_per_component(self, biv_cross):
        log = util.make_log([0.5, 1.0, 2.0, 2.5], [1, 2, 2, 1], spec=biv_cross)
        s1, s2 = residual_transform(biv_cross, log)
        assert (s1.component, s2.component) == (1, 2)
        assert len(s1) == 2
        assert len(s2) == 2
        assert (np.concatenate((s1.taus, s2.taus)) >= 0).all()

    def test_bivariate_cross_effects_enter_compensator(self, biv_cross):
        # a component-2 event must change component 1's later residual
        with_cross = util.make_log([1.0, 2.0], [2, 1], spec=biv_cross)
        without = util.make_log([2.0], [1], spec=biv_cross)
        tau_with = residual_transform(biv_cross, with_cross)[0].taus[0]
        tau_without = residual_transform(biv_cross, without)[0].taus[0]
        assert tau_with > tau_without  # b12 is positive for this spec

    def test_spec_hash_mismatch(self, hawkes, carma21):
        log = util.make_log([1.0, 2.0], spec=carma21)
        with pytest.raises(SpecLogMismatch):
            residual_transform(hawkes, log)

    def test_no_hash_no_check(self, hawkes):
        log = util.make_log([1.0, 2.0])  # no spec hash in metadata
        (series,) = residual_transform(hawkes, log)
        assert len(series) == 2

    def test_mark_outside_spec(self, hawkes, biv_cross):
        log = util.make_log([1.0, 2.0], [1, 2])
        with pytest.raises(SpecLogMismatch):
            residual_transform(hawkes, log)
        log = util.make_log([1.0, 2.0, 3.0], [1, 2, 3])
        with pytest.raises(SpecLogMismatch, match="mark outside 1..2"):
            residual_transform(biv_cross, log)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4))
    def test_diagonal_spec_residuals_are_univariate(self, seed, d):
        # with every cross-excitation MA vector zero, component c's intensity
        # reads only block c: its residuals along any log are those of the
        # univariate part c along the log's mark-c events
        rng = np.random.default_rng(seed)
        parts = [util.random_univariate_spec(rng) for _ in range(d)]
        spec = util.diagonal_spec(parts)
        n = int(rng.integers(1, 300))
        times = np.cumsum(rng.exponential(0.4, size=n))
        marks = rng.integers(1, d + 1, size=n)
        log = util.make_log(times, marks.tolist())
        every = residual_transform(spec, log)
        for c, part in enumerate(parts, start=1):
            own = util.make_log(times[marks == c])
            got = every[c - 1].taus
            want = residual_transform(part, own)[0].taus
            _, sizes = util.residual_transform_scalar(spec, log, component=c)
            assert len(got) == len(want) == len(sizes)
            for g, w, size in zip(got, want, sizes):
                assert abs(g - w) <= 1e-12 * size


def _assert_matches_oracle(spec, log):
    """Scan and oracle agree to PARITY_RTOL relative to each residual's size.

    The size is the oracle's sum of absolute terms.  It equals |tau| when
    nothing cancels; a residual that cancels towards 0 (a negative
    intensity, or modal weights of opposite sign) is only ever known to
    rounding on that larger scale, by either implementation.
    """
    for c, series in enumerate(residual_transform(spec, log), start=1):
        got = series.taus
        want, sizes = (np.array(v) for v in util.residual_transform_scalar(spec, log, component=c))
        assert got.shape == want.shape
        worst = np.max(np.abs(got - want) / sizes, initial=0.0)
        assert worst <= PARITY_RTOL, f"component {c}: relative disagreement {worst:.3g}"


def _random_log(rng, n_comp, n, scale):
    times = np.cumsum(rng.exponential(scale, size=n)) + 1e-3
    marks = rng.integers(1, n_comp + 1, size=n)
    return util.make_log(times, marks)


def _hexes(values):
    return [float(v).hex() for v in values]


class TestSharedScan:
    """Every component's residuals from one scan per mode group, bit for bit
    those of a scan per component."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        n=st.integers(1, 3000),
        log_scale=st.floats(-2.0, 1.0),
    )
    @example(seed=0, d=3, n=2500, log_scale=-1.0)  # a real group and a complex one, two passes
    def test_every_component_matches_its_own_scan(self, seed, d, n, log_scale):
        rng = np.random.default_rng(seed)
        spec = util.random_spec(rng, d)
        log = _random_log(rng, d, n, 10.0**log_scale)
        every = residual_transform(spec, log)
        assert [series.component for series in every] == list(range(1, d + 1))
        for c, series in enumerate(every, start=1):
            assert _hexes(series.taus) == _hexes(util.residual_transform_numpy(spec, log, c))

    def test_each_spec_gets_its_own_residuals(self, biv_cross, biv_lagged):
        # a log without a hash may be transformed under any spec, in any
        # order: each call gives that spec's residuals
        log = _random_log(np.random.default_rng(3), 2, 500, 1.0)
        assert log.meta.spec_hash is None
        for spec in (biv_cross, biv_lagged, biv_cross):
            for c, series in enumerate(residual_transform(spec, log), start=1):
                assert _hexes(series.taus) == _hexes(util.residual_transform_numpy(spec, log, c))
        cross = residual_transform(biv_cross, log)[0].taus
        assert not np.array_equal(cross, residual_transform(biv_lagged, log)[0].taus)

    def test_summarize_leaves_the_log_as_built(self, biv_cross):
        # a frozen log is only read: after summarize and residual_transform
        # it holds what it was built with, whether simulate or the
        # constructor built it, and each call computes its own arrays
        simulated = simulate(biv_cross, 50.0, rng=3)
        for log in (simulated, dataclasses.replace(simulated)):
            built = dict(vars(log))
            report = summarize(biv_cross, log)
            again = residual_transform(biv_cross, log)
            assert vars(log).keys() == built.keys()
            assert all(vars(log)[key] is value for key, value in built.items())
            assert log == dataclasses.replace(log) == simulated and hash(log) == hash(simulated)
            for first, second in zip(report.residuals, again):
                assert _hexes(first.taus) == _hexes(second.taus)
                assert first.taus is not second.taus and not second.taus.flags.writeable

    def test_every_call_checks_the_log(self, biv_cross, hawkes):
        # the hash and the marks are checked on every call, the same log
        # having passed before
        log = util.make_log([1.0, 2.0, 3.0], [1, 2, 1], spec=biv_cross)
        residual_transform(biv_cross, log)
        with pytest.raises(SpecLogMismatch, match="hash mismatch"):
            residual_transform(hawkes, log)
        plain = util.make_log([1.0, 2.0, 3.0], [1, 2, 1])
        residual_transform(biv_cross, plain)
        with pytest.raises(SpecLogMismatch, match="mark outside 1..1"):
            residual_transform(hawkes, plain)


class TestResidualSeriesArray:
    def test_taus_are_one_read_only_array(self, biv_cross):
        series = residual_transform(biv_cross, simulate(biv_cross, 50.0, rng=2))[1]
        hand = ResidualSeries(taus=series.taus.tolist(), component=2)
        for s in (series, hand):
            assert s.taus.dtype == np.float64 and s.taus.shape == (len(s),)
            with pytest.raises(ValueError, match="read-only"):
                s.taus[0] = 1.0
            assert ks_exp1(s) == ks_exp1(list(s.taus))
        assert _hexes(hand.taus) == _hexes(series.taus)
        # the mean sums in order, as Python 3.11's sum of floats does
        in_order = functools.reduce(operator.add, series.taus.tolist())
        assert hand.mean == series.mean == in_order / len(series)

    def test_empty_series(self, biv_cross):
        log = util.make_log([1.0, 2.0], [1, 1], spec=biv_cross)
        series = residual_transform(biv_cross, log)[1]
        assert series.taus.shape == (0,) and math.isnan(series.mean)
        # an empty log gives one empty series per component
        empty = residual_transform(biv_cross, util.make_log([], spec=biv_cross))
        assert [(s.component, s.taus.shape) for s in empty] == [(1, (0,)), (2, (0,))]
        assert ResidualSeries(taus=(), component=1).taus.shape == (0,)


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

    def test_real_modes_and_an_exact_pair(self):
        # block 1 holds a real root and an exact conjugate pair, block 2 two
        # real roots: one float group of three modes, and one complex group
        # that carries the pair once at twice its weights
        spec = BivariateSpec(
            mu=(0.3, 0.4), a1=util.A31, a2=(3.0, 2.0),
            b11=(0.2, 0.3), b12=(0.5, 0.2), b21=(0.3,), b22=(1.0, 0.3),
        )
        dyn = dynamics(spec)
        assert model.mode_kinds(dyn) == ["real", "pair", "conj", "real", "real"]
        real, pair = model.mode_groups(dyn)
        assert real.lams.dtype == np.float64 and real.lams.shape == (3,)
        assert pair.lams.tolist() == [dyn.lams[1]]
        assert pair.weights.tolist() == [[2 * w[1]] for w in dyn.weights]
        rng = np.random.default_rng(17)
        _assert_matches_oracle(spec, _random_log(rng, 2, 400, 1.0))

    def test_inexact_conjugates_stay_complex(self, carma31, monkeypatch):
        # the pair's second weight one ulp off: both modes are scanned as
        # complex, each at its own weight
        bent = util.bent_pair(dynamics(carma31))
        assert model.mode_kinds(bent) == ["real", "complex", "complex"]
        _, other = model.mode_groups(bent)
        assert other.lams.tolist() == list(bent.lams[1:])
        assert other.weights.tolist() == [list(bent.weights[0][1:])]
        for module in (model, diagnostics, util):
            monkeypatch.setattr(module, "dynamics", lambda spec: bent)
        rng = np.random.default_rng(11)
        _assert_matches_oracle(carma31, _random_log(rng, 1, 300, 1.0))

    def test_segments_share_a_pass(self):
        # a fast real mode beside a slow exact pair: an anchor segment spans
        # 2 time units, so at unit gaps a pass of BLOCK_EVENTS events holds
        # hundreds of segments.  Long gaps around the first pass boundary make
        # its last event and the next pass's first one-event segments.
        roots = [-300.0, complex(-1.0, 2.0), complex(-1.0, -2.0)]
        spec = UnivariateSpec(mu=0.5, a=util.poly_from_roots(roots), b=(50.0, 30.0))
        span = BLOCK_EXPONENT / 300.0
        rng = np.random.default_rng(29)
        gaps = rng.exponential(1.0, size=2 * BLOCK_EVENTS + 100)
        gaps[[BLOCK_EVENTS - 1, BLOCK_EVENTS + 1]] = 3 * span
        times = np.cumsum(gaps)
        assert times[BLOCK_EVENTS - 1] > 100 * span
        marks = np.ones(len(times), dtype=int)
        for group in model.mode_groups(dynamics(spec)):
            passes = [(a, b) for a, b, _ in model.modal_scan(group.lams, group.jumps, times, marks)]
            ends = [BLOCK_EVENTS, 2 * BLOCK_EVENTS, len(times)]
            assert passes == list(zip([0] + ends, ends))
        _assert_matches_oracle(spec, util.make_log(times))

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

    @pytest.mark.parametrize("bad", (math.nan, np.float64("nan"), "1", True, None, 1j))
    def test_survival_refuses_what_is_not_a_number(self, bad):
        # NaN never meets the series' cut, so it would loop for ever
        with pytest.raises(ValueError, match=f"^kappa must be a real number, not NaN, got {re.escape(repr(bad))}$"):
            kolmogorov_survival(bad)

    def test_survival_at_infinity_is_zero(self):
        for kappa in (math.inf, np.float64("inf"), 10**400):
            assert kolmogorov_survival(kappa) == 0.0
        assert kolmogorov_survival(-math.inf) == 1.0

    def test_truncation_error_below_1e10(self):
        # compare against a much deeper partial sum
        for kappa in (0.3, 0.5, 0.8, 1.2, 2.0):
            deep = 2.0 * sum(
                (-1) ** (k - 1) * math.exp(-2.0 * k * k * kappa * kappa)
                for k in range(1, 200)
            )
            assert kolmogorov_survival(kappa) == pytest.approx(deep, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        taus=st.lists(
            st.floats(0.0, 50.0, allow_nan=False) | st.sampled_from([0.0, math.log(2.0), 1e-300]),
            min_size=1,
            max_size=300,
        )
    )
    def test_matches_scalar_loop_exactly(self, taus):
        res = ks_exp1(taus)
        assert (res.statistic, res.p_value) == util.ks_exp1_scalar(taus)
        assert res.n == len(taus)

    def test_matches_scalar_loop_on_seeded_samples(self):
        # a single point above ln 2 makes D = F(x) itself, so an F one ulp
        # off shows; the long samples cover the sort and the steps
        rng = np.random.default_rng(5)
        samples = [[x] for x in rng.uniform(0.7, 30.0, size=2000).tolist()]
        samples += [(rng.exponential(size=n) * 1.1).tolist() for n in (1000, 30000)]
        for taus in samples:
            res = ks_exp1(taus)
            assert (res.statistic, res.p_value) == util.ks_exp1_scalar(taus)

    @settings(max_examples=300, deadline=None)
    @given(taus=ks_tie_samples())
    @example(taus=[math.inf, 1.0])
    @example(taus=[-math.inf, 1.0, 2.0])
    @example(taus=[math.inf, -math.inf])
    def test_refinement_matches_scalar_loop(self, taus):
        # several points on the maximum gap, where a one-ulp error in
        # numpy's F can move the argmax, beside residuals down to -800 and
        # +-inf, where the window is relative to a large |F| or infinite
        # (below about -709.78 math.expm1 overflows and F is -inf)
        res = ks_exp1(taus)
        assert (res.statistic, res.p_value) == util.ks_exp1_scalar(taus)

    def test_refinement_on_seeded_ties(self):
        # 3,000 samples of points on the gaps k/n nudged by an ulp: numpy's F
        # picks the wrong point of a tie on about 3% of them, so a window
        # too narrow to hold the exact argmax shows here
        rng = np.random.default_rng(3)
        for _ in range(3000):
            n = int(rng.integers(1, 12))
            ks = np.sort(rng.integers(0, n, size=n)).tolist()
            taus = [_on_gap(n, k, int(step)) for k, step in zip(ks, rng.integers(-1, 2, size=n))]
            res = ks_exp1(taus)
            assert (res.statistic, res.p_value) == util.ks_exp1_scalar(taus)

    def test_numpy_expm1_within_refinement_window(self):
        # the refinement's premise: np.expm1 stays within a thousandth of
        # the window of math.expm1, relative to max(1, |F|), over the range
        # of -x that ks_exp1 can meet before math.expm1 overflows
        rng = np.random.default_rng(12)
        ys = np.concatenate((rng.uniform(-745.0, 700.0, 1_000_000), rng.uniform(-1.0, 1.0, 200_000)))
        exact = np.fromiter(map(math.expm1, ys.tolist()), dtype=float, count=len(ys))
        err = np.abs(np.expm1(ys) - exact) / np.maximum(1.0, np.abs(exact))
        assert err.max() <= diagnostics._KS_WINDOW / 1000

    def test_residual_below_expm1_range(self):
        # math.expm1(-x) overflows below about x = -709.78: F is -inf there,
        # as for a residual of -inf, so D is inf and p is 0
        for taus in ([-1000.0, 1.0], [-710.0], [-1e300, -709.0, 2.0]):
            res = ks_exp1(taus)
            assert (res.statistic, res.p_value) == (math.inf, 0.0)
            assert (res.statistic, res.p_value) == util.ks_exp1_scalar(taus)
        assert ks_exp1([-709.0, 1.0]).statistic < math.inf

    def test_nan_residual_is_refused(self):
        for taus, count in (([math.nan, 1.0, 2.0], 1), ([1.0, math.nan, math.nan], 2)):
            with pytest.raises(NanSample, match=f"{count} NaN") as info:
                ks_exp1(taus)
            assert isinstance(info.value, ValueError)
            assert isinstance(info.value, CarmaHawkesError)

    def test_values_that_are_not_numbers_are_refused(self):
        # a sequence is converted once, as a ResidualSeries, by the rule a
        # Spec keeps: a string or a bool is no residual
        for taus in (["0.5"], [0.5, True], ("0.5", "1.5")):
            for make in (ks_exp1, lambda xs: ResidualSeries(taus=xs, component=1)):
                with pytest.raises(ValueError, match="residuals must be real numbers"):
                    make(taus)

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
        (series,) = residual_transform(hawkes, log)
        assert ks_exp1(series).n == 2


class TestSummarize:
    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.floats(), min_size=17, max_size=17))
    def test_reports_are_strict_json(self, x):
        # any float, NaN and +-inf included: a non-finite one is null, and
        # every finite one comes through unchanged, its sign bit too
        def want(v):
            return v if math.isfinite(v) else None

        row = ComponentDiagnostics(
            component=1, n_events=3, empirical_rate=x[0], theoretical_rate=x[1],
            ks=KsResult(statistic=x[2], p_value=x[3], n=3), residual_mean=x[4],
        ).to_dict(acceptance_ratio=x[5])
        assert json.dumps(row, allow_nan=False) == json.dumps({
            "component": 1, "n_events": 3, "empirical_rate": want(x[0]),
            "theoretical_rate": want(x[1]), "ks_statistic": want(x[2]),
            "ks_p_value": want(x[3]), "residual_mean": want(x[4]),
            "acceptance_ratio": want(x[5]),
        })
        report = ValidationReport(
            process_type="bivariate", flags=("KernelNegative",), branching=x[6],
            branching_matrix=((x[7], x[8]), (x[9], x[10])), spectral_radius=x[11],
            decay=x[12], kernel_min=x[13], kernel_mins=(("h11", x[14]), ("h21", x[15])),
            eigenvalues=(complex(x[16], x[0]),), bound_constants=(x[1], x[2]),
        ).to_dict()
        assert json.dumps(report, allow_nan=False) == json.dumps({
            "process_type": "bivariate", "admissible": False, "flags": ["KernelNegative"],
            "branching": want(x[6]),
            "branching_matrix": [[want(x[7]), want(x[8])], [want(x[9]), want(x[10])]],
            "spectral_radius": want(x[11]), "decay": want(x[12]), "kernel_min": want(x[13]),
            "kernel_mins": {"h11": want(x[14]), "h21": want(x[15])},
            "eigenvalues": [[want(x[16]), want(x[0])]],
            "bound_constants": [want(x[1]), want(x[2])],
        })

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

    def test_residual_bytes_match_one_format_per_row(self, biv_cross, tmp_path, monkeypatch):
        # the chunked writer gives the bytes of one f-string per row, across
        # chunk boundaries and a last chunk that is not full
        monkeypatch.setattr(thinning, "CSV_CHUNK_ROWS", 7)
        series = residual_transform(biv_cross, simulate(biv_cross, 40.0, rng=1))[0]
        taus = series.taus.tolist() + [1e-300, 123456.789012345678, math.pi]
        assert len(taus) > 14 and len(taus) % 7 != 0
        path = tmp_path / "residuals.csv"
        write_residuals_csv(ResidualSeries(taus=taus, component=1), path)
        assert path.read_bytes() == ("tau\n" + "".join(f"{t:.15g}\n" for t in taus)).encode()
        write_residuals_csv(ResidualSeries(taus=(), component=2), path)
        assert path.read_bytes() == b"tau\n"

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
        log = simulate(carma21, 800.0, rng=99)
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
        log = simulate(biv_independent, 800.0, rng=17)
        report = summarize(biv_independent, log)
        assert [c.component for c in report.components] == [1, 2]
        assert sum(c.n_events for c in report.components) == len(log)

    def test_residual_mean_near_one(self, carma21):
        log = simulate(carma21, 6000.0, rng=321)
        report = summarize(carma21, log)
        comp = report.components[0]
        assert comp.n_events > 3000
        assert 0.95 <= comp.residual_mean <= 1.05
        assert comp.ks.p_value > 0.01
