import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import util
from carma_hawkes import (
    BivariateSpec,
    BoundViolation,
    EventLog,
    HorizonNonPositive,
    NonStationarySpec,
    ScriptedUniforms,
    UniformStream,
    UnivariateSpec,
    bound_after_event,
    bound_path,
    bound_value,
    dynamics,
    initial_bound,
    intensity_path,
    read_events_csv,
    simulate,
    simulate_bivariate,
    simulate_univariate,
    spec_hash,
    stationary_rates,
    validate,
    write_events_csv,
    write_meta_json,
)


class TestStreams:
    def test_seeded_stream_reproduces(self):
        a = [UniformStream(99).draw() for _ in range(50)]
        b = [UniformStream(99).draw() for _ in range(50)]
        assert a == b
        assert all(0.0 < u < 1.0 for u in a)

    def test_different_seeds_differ(self):
        assert UniformStream(1).draw() != UniformStream(2).draw()

    def test_scripted_stream(self):
        s = ScriptedUniforms([0.25, 0.75])
        assert s.draw() == 0.25
        assert s.draw() == 0.75
        with pytest.raises(RuntimeError):
            s.draw()

    def test_scripted_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ScriptedUniforms([0.0])
        with pytest.raises(ValueError):
            ScriptedUniforms([1.0])


class TestBoundTracker:
    def test_initial_values(self, hawkes, biv_independent):
        assert initial_bound(hawkes).lambda_bar == pytest.approx(0.3)
        tr = initial_bound(biv_independent)
        assert tr.base == pytest.approx(0.6)
        assert tr.decay == pytest.approx(-2.0)  # max of -3 and -2

    def test_no_events_stays_at_base(self, carma21):
        tr = initial_bound(carma21)
        for t in (0.0, 1.0, 50.0, 1e4):
            assert bound_value(tr, t) == pytest.approx(0.3)

    def test_univariate_jump_is_bound_constant(self, hawkes):
        # order 1 with unit leading MA: the envelope jump is exactly 1
        tr = bound_after_event(initial_bound(hawkes), 2.0)
        assert tr.lambda_bar == pytest.approx(0.3 + 1.0, abs=1e-15)

    def test_bivariate_jump_hand_case(self, biv_independent):
        # oracle: S = I2, row-sum weights (1, 1) with norm sqrt(2), unit
        # column norms, so each mark adds sqrt(2)
        tr = bound_after_event(initial_bound(biv_independent), 1.5, mark=1)
        assert tr.lambda_bar == pytest.approx(0.6 + math.sqrt(2.0), rel=1e-15)
        val = bound_value(tr, 2.5)
        assert val == pytest.approx(0.6 + math.sqrt(2.0) * math.exp(-2.0), rel=1e-14)

    def test_coincident_events_add(self, carma21):
        from carma_hawkes import dynamics

        k = dynamics(carma21).bound_jumps[0]
        tr = bound_after_event(initial_bound(carma21), 3.0)
        tr = bound_after_event(tr, 3.0)
        assert tr.lambda_bar == pytest.approx(0.3 + 2 * k, rel=1e-15)

    def test_queries_before_anchor_rejected(self, hawkes):
        tr = bound_after_event(initial_bound(hawkes), 2.0)
        with pytest.raises(ValueError):
            bound_value(tr, 1.0)

    def test_recursion_equals_direct_sum(self):
        # replaying the recursion over a synthetic event sequence matches the
        # explicit decayed sum over all jumps
        rng = np.random.default_rng(53)
        for _ in range(30):
            base = float(rng.uniform(0.2, 1.0))
            decay = float(-rng.uniform(0.2, 3.0))
            jumps = tuple(rng.uniform(0.3, 2.0, size=2))
            n = int(rng.integers(1, 51))
            times = np.sort(rng.uniform(0.0, 30.0, size=n))
            marks = rng.integers(1, 3, size=n)
            from carma_hawkes import BoundTracker

            tr = BoundTracker(
                base=base, decay=decay, jump_size_for_mark=jumps,
                lambda_bar=base, anchor_time=0.0,
            )
            for t, m in zip(times, marks):
                tr = bound_after_event(tr, float(t), int(m))
            t_eval = float(times[-1] + rng.uniform(0.0, 2.0))
            direct = base + sum(
                jumps[m - 1] * math.exp(decay * (t_eval - t))
                for t, m in zip(times, marks)
            )
            got = bound_value(tr, t_eval)
            assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct))


class TestHandTraces:
    def test_first_arrival_from_scripted_uniform(self, hawkes):
        # u1 = e^{-0.3} makes the first arrival land at t = 1
        u_stop = 1e-300  # forces the next candidate far past the horizon
        log = simulate_univariate(
            hawkes, 5.0, rng=ScriptedUniforms([math.exp(-0.3), u_stop])
        )
        assert len(log) == 1
        assert log.times[0] == pytest.approx(1.0, abs=1e-12)
        assert log.marks == (1,)

    def test_first_arrival_past_horizon_gives_empty_log(self, hawkes):
        # small u1 -> large first arrival
        log = simulate_univariate(hawkes, 0.5, rng=ScriptedUniforms([math.exp(-0.3)]))
        assert len(log) == 0
        assert log.meta.proposed == 1
        assert log.meta.accepted == 0

    def test_rejection_then_termination(self, carma21):
        # candidate at ~1, rejected with D close to 1, then stop
        stream = ScriptedUniforms([math.exp(-0.3), 0.9, 0.999999, 1e-300])
        log = simulate_univariate(carma21, 30.0, rng=stream)
        assert len(log) == 1  # only the first arrival survives

    def test_bivariate_first_arrival_routing(self, biv_independent):
        # u1 = e^{-0.6}, u2 = e^{-0.3}: candidates at 2 and 1, component 2 first
        stream = ScriptedUniforms([math.exp(-0.6), math.exp(-0.3), 1e-300])
        log = simulate_bivariate(biv_independent, 5.0, rng=stream)
        assert len(log) == 1
        assert log.times[0] == pytest.approx(1.0, abs=1e-12)
        assert log.marks == (2,)

    def test_bivariate_tie_goes_to_component_one(self, biv_independent):
        stream = ScriptedUniforms([0.5, 0.5, 1e-300])
        log = simulate_bivariate(biv_independent, 10.0, rng=stream)
        assert log.marks == (1,)

    def test_bivariate_empty_when_both_candidates_late(self, biv_independent):
        stream = ScriptedUniforms([math.exp(-0.6), math.exp(-0.6)])
        log = simulate_bivariate(biv_independent, 1.0, rng=stream)
        assert len(log) == 0


class TestSimulationGuards:
    def test_horizon_validation(self, hawkes):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(HorizonNonPositive):
                simulate_univariate(hawkes, bad, rng=1)

    def test_nonstationary_refused_without_override(self):
        spec = UnivariateSpec(mu=0.3, a=(2.0,), b=(3.0,))
        with pytest.raises(NonStationarySpec):
            simulate_univariate(spec, 10.0, rng=1)
        log = simulate_univariate(spec, 20.0, rng=1, override_validation=True)
        assert len(log) > 0

    def test_positive_decay_never_simulable(self):
        # a root with positive real part makes the envelope grow between
        # events; the proposal construction breaks, so no override applies
        spec = UnivariateSpec(mu=0.3, a=(-0.5,), b=(0.1,))
        with pytest.raises(NonStationarySpec):
            simulate_univariate(spec, 10.0, rng=1)
        with pytest.raises(NonStationarySpec):
            simulate_univariate(spec, 10.0, rng=1, override_validation=True)

    def test_kernel_negative_refused_without_override(self, biv_lagged):
        with pytest.raises(NonStationarySpec):
            simulate_bivariate(biv_lagged, 10.0, rng=1)
        log = simulate_bivariate(biv_lagged, 50.0, rng=1, override_validation=True)
        assert len(log) > 0

    def test_wrong_spec_type_rejected(self, hawkes, biv_independent):
        with pytest.raises(TypeError):
            simulate_univariate(biv_independent, 10.0, rng=1)
        with pytest.raises(TypeError):
            simulate_bivariate(hawkes, 10.0, rng=1)
        with pytest.raises(TypeError):
            simulate(object(), 10.0, rng=1)

    def test_dispatch(self, hawkes, biv_independent):
        assert simulate(hawkes, 20.0, rng=3).marks.count(2) == 0
        assert 2 in simulate(biv_independent, 200.0, rng=3).marks


class TestDeterminismAndMeta:
    def test_same_seed_same_log(self, carma21, biv_cross):
        a = simulate_univariate(carma21, 300.0, rng=1234)
        b = simulate_univariate(carma21, 300.0, rng=1234)
        assert a.times == b.times and a.marks == b.marks
        c = simulate_bivariate(biv_cross, 300.0, rng=1234)
        d = simulate_bivariate(biv_cross, 300.0, rng=1234)
        assert c.times == d.times and c.marks == d.marks
        assert a.times != simulate_univariate(carma21, 300.0, rng=1235).times

    def test_negative_intensity_routing_pinned(self, biv_lagged):
        # biv_lagged's intensities dip below zero, so a candidate above the
        # summed intensity can still be accepted as component 1 when lam1
        # exceeds the total; these counts pin that routing rule
        log = simulate(biv_lagged, 2000.0, rng=1, override_validation=True)
        assert (len(log), log.meta.proposed, log.marks.count(1)) == (1990, 20030, 1379)

    def test_meta_counters(self, carma21):
        log = simulate_univariate(carma21, 500.0, rng=7)
        m = log.meta
        assert m.accepted == len(log)
        assert m.proposed >= m.accepted
        assert 0.0 < m.acceptance_ratio <= 1.0
        assert m.acceptance_ratio == pytest.approx(m.accepted / m.proposed)
        assert m.seed == 7
        assert m.horizon == 500.0
        assert m.spec_hash == spec_hash(carma21)
        assert m.wall_time_seconds >= 0.0


class TestDomination:
    def test_intensity_below_envelope_along_paths(self):
        rng = np.random.default_rng(61)
        for spec in util.all_sets():
            log = simulate(
                spec, 500.0, rng=101, override_validation=util.needs_override(spec)
            )
            ts = np.sort(rng.uniform(0.0, 500.0, size=2000))
            lam = intensity_path(spec, log, ts)
            total = lam if lam.ndim == 1 else lam.sum(axis=1)
            bar = bound_path(spec, log, ts)
            assert np.all(total <= bar + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bivariate=st.booleans())
    def test_random_admissible_specs(self, seed, bivariate):
        rng = np.random.default_rng(seed)
        make = util.random_bivariate_spec if bivariate else util.random_univariate_spec
        spec = make(rng, p_max=3)
        while not validate(spec).admissible:
            spec = make(rng, p_max=3)
        log = simulate(spec, 50.0, rng=seed)
        ts = np.sort(rng.uniform(0.0, 50.0, size=400))
        lam = intensity_path(spec, log, ts)
        total = lam if lam.ndim == 1 else lam.sum(axis=1)
        assert np.all(total <= bound_path(spec, log, ts) + 1e-9)
        assert set(log.marks) <= set(range(1, spec.n_components + 1))
        again = simulate(spec, 50.0, rng=seed)
        assert (again.times, again.marks) == (log.times, log.marks)
        assert again.meta.proposed == log.meta.proposed

    def test_exponential_case_envelope_is_tight(self, hawkes):
        log = simulate_univariate(hawkes, 300.0, rng=19)
        ts = np.sort(np.random.default_rng(67).uniform(0.0, 300.0, size=500))
        gap = bound_path(hawkes, log, ts) - intensity_path(hawkes, log, ts)
        assert np.max(np.abs(gap)) < 1e-12


class TestSqueeze:
    """The squeeze pretest rejects without evaluating the intensity; it must
    never change a candidate, a decision or a proposal count."""

    # forced kernel-negative specs can explode (ROADMAP item 5); draws whose
    # reference run passes this many events are skipped
    EVENT_CAP = 2000

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bivariate=st.booleans(), forced=st.booleans())
    def test_matches_reference_loop(self, seed, bivariate, forced):
        rng = np.random.default_rng(seed)
        make = util.random_bivariate_spec if bivariate else util.random_univariate_spec
        spec = make(rng, p_max=3)
        while validate(spec).admissible == forced:
            spec = make(rng, p_max=3)
        horizon = 5.0 if forced else 50.0
        ref = util.thin_reference(spec, horizon, seed, max_events=self.EVENT_CAP)
        assume(ref is not None)
        log = simulate(spec, horizon, rng=seed, override_validation=forced)
        assert (log.times, log.marks, log.meta.proposed) == ref
        assert 0 <= log.meta.squeezed <= log.meta.proposed - len(log)

    def test_bounds_every_running_sum(self):
        # opposite-signed weights on mode 1: the running-sum row W(1) = 0.9
        # there, the total W = 0.05.  After the event at t = 1 the candidate
        # at t = 1.1 has D * lam_bar = 0.98 * (0.6 + K) ~ 1.080, above the
        # total (0.6 + 0.05 e^-0.1 ~ 0.645) and the envelope there (~1.055),
        # but below lam_1 = 0.3 + 0.9 e^-0.1 ~ 1.114, so it is accepted as
        # component 1.  A squeeze weighted by |W|, or by the envelope,
        # would reject it.  The candidate at t = 3.1 is squeezed.
        spec = BivariateSpec(
            mu=(0.3, 0.3), a1=(1.0,), a2=(2.0,),
            b11=(0.9,), b12=(0.0,), b21=(-0.85,), b22=(0.5,),
        )
        k = dynamics(spec).bound_jumps[0]
        assert k == pytest.approx(math.hypot(0.05, 0.5), rel=1e-14)
        lam_bar = 0.6 + k
        lam_bar_2 = 0.6 + k * math.exp(-0.1) + k
        uniforms = [
            math.exp(-0.3), math.exp(-3.0),    # first arrivals at 1 and 10
            math.exp(-0.1 * lam_bar), 0.98,    # t = 1.1, routed to component 1
            math.exp(-2.0 * lam_bar_2), 0.9,   # t = 3.1, squeezed
            1e-300,
        ]
        log = simulate(spec, 20.0, rng=ScriptedUniforms(uniforms), override_validation=True)
        assert log.times == pytest.approx((1.0, 1.1), abs=1e-12)
        assert log.marks == (1, 1)
        assert (log.meta.proposed, log.meta.squeezed) == (5, 1)
        assert util.thin_reference(spec, 20.0, ScriptedUniforms(uniforms)) == (
            log.times, log.marks, log.meta.proposed
        )

    def test_margin_covers_rounding(self):
        # two blocks with the same root -0.2 and weights 0.01; candidates
        # 1e-16 apart, so every exponential factor rounds to exactly 1.
        # After events of marks 1 and 2 the routing compares against
        # (0.2 + 0.01) + 0.01, which rounds one ulp above the squeeze's
        # 0.2 + (0.01 + 0.01); the last candidate's D * lam_bar equals the
        # former, so it is accepted, and only the squeeze's relative margin
        # keeps it from being squeezed
        assert (0.2 + 0.01) + 0.01 > 0.2 + (0.01 + 0.01)
        spec = BivariateSpec(
            mu=(0.1, 0.1), a1=(0.2,), a2=(0.2,),
            b11=(0.01,), b12=(0.0,), b21=(0.0,), b22=(0.01,),
        )
        u_tiny = 1.0 - 2.0**-53
        d_last = 0.9637107225907751
        k = dynamics(spec).bound_jumps[0]
        assert d_last * (0.2 + (k + k)) == (0.2 + 0.01) + 0.01
        uniforms = [
            math.exp(-0.1e-3), math.exp(-1.0),  # first arrivals at 1e-3 and 10
            u_tiny, 0.747167293974951,          # routed to component 2
            u_tiny, d_last,                     # D * lam_bar equals the total
            1e-300,
        ]
        log = simulate(spec, 5.0, rng=ScriptedUniforms(uniforms))
        assert log.marks == (1, 2, 2)
        assert (log.meta.proposed, log.meta.squeezed) == (5, 0)
        assert util.thin_reference(spec, 5.0, ScriptedUniforms(uniforms)) == (
            log.times, log.marks, log.meta.proposed
        )

    def test_short_envelope_constant_raises(self, hawkes, monkeypatch):
        # with K halved the envelope no longer dominates; the certificate
        # must refuse it although the squeeze hides the intensity from the
        # per-candidate check
        from carma_hawkes import thinning

        def halved(spec):
            dyn = dynamics(spec)
            return dataclasses.replace(dyn, bound_jumps=tuple(k / 2 for k in dyn.bound_jumps))

        monkeypatch.setattr(thinning, "dynamics", halved)
        with pytest.raises(BoundViolation):
            simulate(hawkes, 200.0, rng=1)
        # the only candidate, at t = 2, is squeezed (0.9 * 0.8 against
        # lam = 0.3 + e^-3) although lam exceeds the halved envelope there
        uniforms = [math.exp(-0.3), math.exp(-0.8), 0.9, 1e-300]
        with pytest.raises(BoundViolation):
            simulate(hawkes, 20.0, rng=ScriptedUniforms(uniforms))


class TestLongRunRates:
    def test_univariate_rate_near_theory(self, carma21):
        log = simulate_univariate(carma21, 5000.0, rng=2024)
        rate = len(log) / 5000.0
        assert rate == pytest.approx(stationary_rates(carma21)[0], rel=0.05)

    def test_bivariate_rates_near_theory(self, biv_cross):
        log = simulate_bivariate(biv_cross, 5000.0, rng=2024)
        r1, r2 = stationary_rates(biv_cross)
        assert len(log.times_of(1)) / 5000.0 == pytest.approx(r1, rel=0.07)
        assert len(log.times_of(2)) / 5000.0 == pytest.approx(r2, rel=0.07)


class TestEventLogContainer:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            util.make_log([1.0, 1.0])
        with pytest.raises(ValueError):
            util.make_log([2.0, 1.0])
        with pytest.raises(ValueError):
            util.make_log([0.0, 1.0])

    def test_rejects_bad_marks(self):
        with pytest.raises(ValueError):
            util.make_log([1.0], [3])
        with pytest.raises(ValueError):
            EventLog(times=(1.0, 2.0), marks=(1,), meta=util.make_log([1.0]).meta)

    def test_csv_roundtrip(self, tmp_path, biv_cross):
        log = simulate_bivariate(biv_cross, 200.0, rng=5)
        csv_path = tmp_path / "events.csv"
        meta_path = tmp_path / "events.meta.json"
        write_events_csv(log, csv_path)
        write_meta_json(log, meta_path)
        again = read_events_csv(csv_path, meta_path)
        # the file carries 15 significant digits; compare at that precision
        assert again.times == tuple(float(f"{t:.15g}") for t in log.times)
        assert again.marks == log.marks
        assert again.meta.seed == 5
        assert again.meta.spec_hash == log.meta.spec_hash

    def test_sidecar_carries_squeezed(self, tmp_path, carma31):
        log = simulate_univariate(carma31, 200.0, rng=5)
        csv_path = tmp_path / "events.csv"
        meta_path = tmp_path / "events.meta.json"
        write_events_csv(log, csv_path)
        write_meta_json(log, meta_path)
        assert read_events_csv(csv_path, meta_path).meta.squeezed == log.meta.squeezed > 0
        # sidecars written before the field existed read as 0
        meta_path.write_text('{"horizon": 200.0}')
        assert read_events_csv(csv_path, meta_path).meta.squeezed == 0

    def test_csv_without_meta(self, tmp_path, carma21):
        log = simulate_univariate(carma21, 50.0, rng=5)
        path = tmp_path / "events.csv"
        write_events_csv(log, path)
        again = read_events_csv(path)
        assert again.times == tuple(float(f"{t:.15g}") for t in log.times)
        assert again.meta.spec_hash is None

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_events_csv(path)
