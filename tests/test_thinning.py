import dataclasses
import itertools
import json
import math
import os
import random
import re
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import util
from util import ScriptedUniforms
from carma_hawkes import (
    BivariateSpec,
    BoundViolation,
    DegenerateEigenvalues,
    EventLog,
    HorizonNonPositive,
    NonStationarySpec,
    Spec,
    UniformStream,
    UnivariateSpec,
    bound_path,
    channel_kernel,
    dynamics,
    intensity_path,
    load_spec,
    read_events_csv,
    simulate,
    spec_hash,
    stationary_rates,
    summarize,
    validate,
    write_events_csv,
    write_meta_json,
)
from carma_hawkes import thinning
from carma_hawkes.model import mode_kinds
from oracles import bound_after_event, bound_value, initial_bound


class TestStreams:
    def test_seeded_stream_reproduces(self):
        a = [UniformStream(99).draw() for _ in range(50)]
        b = [UniformStream(99).draw() for _ in range(50)]
        assert a == b
        assert all(0.0 < u < 1.0 for u in a)

    def test_different_seeds_differ(self):
        assert UniformStream(1).draw() != UniformStream(2).draw()

    def test_seed_is_a_non_negative_int(self, hawkes, tmp_path):
        # the rule the sidecar reader keeps, so simulate writes no sidecar
        # that read_events_csv refuses
        with pytest.raises(ValueError, match="non-negative"):
            simulate(hawkes, 10.0, rng=-5)
        with pytest.raises(TypeError):
            simulate(hawkes, 10.0, rng=True)
        log = simulate(hawkes, 10.0, rng=0)
        write_events_csv(log, tmp_path / "e.csv")
        write_meta_json(log, tmp_path / "e.meta.json")
        assert read_events_csv(tmp_path / "e.csv", tmp_path / "e.meta.json").meta.seed == 0

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
        with pytest.raises(ValueError):
            ScriptedUniforms(iter([0.5, 1.0]))

    def test_scripted_takes_an_iterator_once(self):
        # the range check must not use up the values it checks
        for values in (iter([0.5, 0.25]), (v for v in (0.5, 0.25))):
            s = ScriptedUniforms(values)
            assert (s.draw(), s.draw()) == (0.5, 0.25)
            with pytest.raises(RuntimeError, match="exhausted"):
                s.draw()


# The one integer rule (spectral._is_int) at every entry point that takes an
# integer: Python's and numpy's are taken, while a bool, a float, a string
# and a value outside the entry point's range are refused.
INTEGERS = (2, np.int64(2), np.uint8(2))
NOT_INTEGERS = (True, np.True_, 2.0, "2")


class TestIntegerRule:
    @pytest.mark.parametrize("seed", INTEGERS)
    def test_seed_gives_the_stream_and_log_of_its_int(self, hawkes, seed, tmp_path):
        assert UniformStream(seed).draw() == UniformStream(2).draw()
        log, ref = simulate(hawkes, 50.0, rng=seed), simulate(hawkes, 50.0, rng=2)
        assert (log.times, log.marks) == (ref.times, ref.marks) and len(log)
        assert type(log.meta.seed) is int
        assert dataclasses.replace(log.meta, wall_time_seconds=0.0) == dataclasses.replace(
            ref.meta, wall_time_seconds=0.0
        )
        write_events_csv(log, tmp_path / "e.csv")
        write_meta_json(log, tmp_path / "e.meta.json")
        assert read_events_csv(tmp_path / "e.csv", tmp_path / "e.meta.json").meta == log.meta

    @pytest.mark.parametrize(
        "seed, error", [(v, TypeError) for v in NOT_INTEGERS] + [(-1, ValueError), (np.int64(-1), ValueError)]
    )
    def test_seed_refusals(self, hawkes, seed, error):
        with pytest.raises(error):
            UniformStream(seed)
        with pytest.raises(error):
            simulate(hawkes, 10.0, rng=seed)

    @pytest.mark.parametrize("name", ("seed", "proposed", "squeezed"))
    @pytest.mark.parametrize("value", (True, 2.0, "2", -1))
    def test_sidecar_refusals(self, tmp_path, name, value):
        # JSON gives Python values alone: the good 2 reads, the rest not
        path, meta_path = tmp_path / "e.csv", tmp_path / "e.meta.json"
        write_events_csv(util.make_log([1.0]), path)
        meta_path.write_text(json.dumps({"accepted": 1, name: 2}))
        assert getattr(read_events_csv(path, meta_path).meta, name) == 2
        meta_path.write_text(json.dumps({"accepted": 1, name: value}))
        with pytest.raises(ValueError, match=f"metadata {name} must be"):
            read_events_csv(path, meta_path)

    @pytest.mark.parametrize("mark", INTEGERS)
    def test_marks_taken(self, mark):
        meta = util.make_log([1.0]).meta
        for marks in ((mark,), [mark], np.array([mark])):
            log = EventLog(times=(1.0,), marks=marks, meta=meta)
            assert log.marks == (2,) and type(log.marks[0]) is int

    @pytest.mark.parametrize("mark", NOT_INTEGERS + (0, 2**63))
    def test_marks_refused(self, mark):
        meta = util.make_log([1.0]).meta
        for marks in ((mark,), np.array([mark])):
            with pytest.raises(ValueError, match="index 0: marks must be integers >= 1"):
                EventLog(times=(1.0,), marks=marks, meta=meta)

    @pytest.mark.parametrize("index", INTEGERS)
    def test_kernel_indices_taken(self, biv_cross, index):
        assert channel_kernel(biv_cross, index, 1, 0.5) == channel_kernel(biv_cross, 2, 1, 0.5)
        assert channel_kernel(biv_cross, 1, index, 0.5) == channel_kernel(biv_cross, 1, 2, 0.5)

    @pytest.mark.parametrize("index", NOT_INTEGERS + (0, 3))
    def test_kernel_indices_refused(self, biv_cross, index):
        for target, source in ((index, 1), (1, index)):
            with pytest.raises(ValueError, match="must be in 1..2"):
                channel_kernel(biv_cross, target, source, 0.5)


# The sidecar's rules live in SimulationMeta alone: every meta that builds
# writes a sidecar that reads back equal, and a field that breaks a rule is
# refused by the meta with the message the reader gives for it.
def _integers(values):
    """Each drawn integer as a Python, int64 or uint64 integer."""
    return values.flatmap(lambda v: st.sampled_from((v, np.int64(v), np.uint64(v))))


_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**308), 10**308),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
_VALID_META = dict(
    seed=None, horizon=2.0, proposed=3, accepted=1, acceptance_ratio=0.5, wall_time_seconds=0.0
)
_FLOAT_REFUSALS = (True, "5", math.inf, -math.inf, math.nan, 10**400, None)
_COUNT_REFUSALS = (True, -1, 2.0, "5", math.inf, math.nan)
_SIDECAR_REFUSALS = (
    [(name, v) for name in ("horizon", "acceptance_ratio", "wall_time_seconds") for v in _FLOAT_REFUSALS]
    + [(name, v) for name in ("proposed", "accepted", "squeezed") for v in _COUNT_REFUSALS + (None,)]
    + [("seed", v) for v in _COUNT_REFUSALS + (np.int64(-1),)]
    + [("spec_hash", v) for v in (5, True, 2.0, ["ab"])]
)


class TestSidecarRules:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.none() | _integers(st.integers(0, 2**63 - 1)),
        horizon=_REALS,
        counts=st.tuples(_integers(st.integers(0, 2**63 - 1)), _integers(st.integers(0, 2**63 - 1))),
        ratios=st.tuples(_REALS, _REALS),
        spec_hash=st.none() | st.text(),
        data=st.data(),
    )
    def test_every_meta_reads_back_equal(self, seed, horizon, counts, ratios, spec_hash, data):
        # an events file of `accepted` rows, the last at the horizon
        accepted = data.draw(_integers(st.integers(0, 4 if horizon > 0 else 0)))
        times, t = [], float(horizon)
        for _ in range(int(accepted)):
            times.insert(0, t)
            t = float(np.nextafter(t, 0.0))
        assume(not times or times[0] > 0.0)
        meta = thinning.SimulationMeta(
            seed=seed,
            horizon=horizon,
            proposed=counts[0],
            accepted=accepted,
            acceptance_ratio=ratios[0],
            wall_time_seconds=ratios[1],
            spec_hash=spec_hash,
            squeezed=counts[1],
        )
        for field in dataclasses.fields(meta):
            assert type(getattr(meta, field.name)) in (int, float, str, type(None)), field.name
        with tempfile.TemporaryDirectory() as tmp:
            path, meta_path = os.path.join(tmp, "e.csv"), os.path.join(tmp, "e.meta.json")
            write_events_csv(util.make_log(times), path)
            write_meta_json(meta, meta_path)
            again = read_events_csv(path, meta_path).meta
        values, again_values = dataclasses.astuple(meta), dataclasses.astuple(again)
        assert again_values == values
        assert list(map(type, again_values)) == list(map(type, values))

    @pytest.mark.parametrize("name, value", _SIDECAR_REFUSALS, ids=lambda v: repr(v)[:16])
    def test_refusals_per_field(self, tmp_path, name, value):
        with pytest.raises(ValueError, match=f"^metadata {name} must be"):
            thinning.SimulationMeta(**{**_VALID_META, name: value})
        # the reader refuses the same sidecar field with the same message
        if isinstance(value, np.integer):
            return
        path, meta_path = tmp_path / "e.csv", tmp_path / "e.meta.json"
        write_events_csv(util.make_log([1.0]), path)
        meta_path.write_text(json.dumps({**_VALID_META, name: value}))
        with pytest.raises(ValueError, match=f"^metadata {name} must be"):
            read_events_csv(path, meta_path)

    def test_a_stream_passed_in_records_no_seed(self, hawkes, tmp_path):
        # one UniformStream(4) used twice: only its first run is the run of
        # rng=4, so neither is labelled seed 4
        stream = UniformStream(4)
        first, second = simulate(hawkes, 50.0, rng=stream), simulate(hawkes, 50.0, rng=stream)
        seeded = simulate(hawkes, 50.0, rng=4)
        assert first.times == seeded.times != second.times
        assert (first.meta.seed, second.meta.seed, seeded.meta.seed) == (None, None, 4)

        class Custom:
            seed = -3

            def __init__(self):
                self._rng = random.Random(3)

            def draw(self):
                return self._rng.random() or 0.5

        log = simulate(hawkes, 50.0, rng=Custom())
        assert log.meta.seed is None
        assert not hasattr(ScriptedUniforms([0.5]), "seed")
        write_events_csv(log, tmp_path / "e.csv")
        write_meta_json(log, tmp_path / "e.meta.json")
        assert read_events_csv(tmp_path / "e.csv", tmp_path / "e.meta.json").meta == log.meta

    def test_event_log_takes_a_simulation_meta_alone(self):
        meta = util.make_log([1.0, 2.0]).meta
        for bad, kind in ((None, "NoneType"), (dataclasses.asdict(meta), "dict")):
            with pytest.raises(TypeError, match=f"^meta must be a SimulationMeta, got {kind}$"):
                EventLog(times=(1.0, 2.0), marks=(1, 1), meta=bad)


# The events file and its sidecar are one pair: EventLog checks the meta
# against the events (the accepted count, and a horizon not below the last
# time), so every log that builds writes a pair that reads back equal, and
# the reader refuses a pair with the log's own message.
_PAIR_REFUSALS = (
    ((1.0, 2.0), dict(accepted=3, horizon=2.0), "metadata accepted 3 events, the log holds 2"),
    ((1.0, 2.0), dict(accepted=2, horizon=1.5), "metadata horizon 1.5 precedes the last event time 2.0"),
    ((), dict(accepted=1, horizon=2.0), "metadata accepted 1 events, the log holds 0"),
    # a horizon and a count that are both wrong: the horizon is named
    ((1.0, 2.0), dict(accepted=0, horizon=1.0), "metadata horizon 1.0 precedes the last event time 2.0"),
    ((1.0, 2.0), dict(accepted=0, horizon=2.0), "metadata accepted 0 events, the log holds 2"),
)


class TestEventsPair:
    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(st.floats(1e-300, 1e4, allow_nan=False, allow_infinity=False), max_size=30),
        seed=st.none() | st.integers(0, 2**63 - 1),
        proposed=st.integers(0, 2**63 - 1),
        ratios=st.tuples(_REALS, _REALS),
        spec_hash=st.none() | st.text(),
        data=st.data(),
    )
    def test_every_log_writes_a_pair_that_reads_back(self, gaps, seed, proposed, ratios, spec_hash, data):
        times = sorted(set(itertools.accumulate(gaps)))
        marks = data.draw(st.lists(st.integers(1, 2**63 - 1) | st.sampled_from([1, 2]),
                                   min_size=len(times), max_size=len(times)))
        last = times[-1] if times else -math.inf
        horizon = data.draw(st.one_of(
            st.just(last) if times else _REALS,
            st.floats(min_value=last, allow_nan=False, allow_infinity=False),
            _REALS,
        ))
        accepted = data.draw(st.sampled_from([len(times), len(times), len(times) + 1, 0]))
        meta = thinning.SimulationMeta(
            seed=seed, horizon=horizon, proposed=proposed, accepted=accepted,
            acceptance_ratio=ratios[0], wall_time_seconds=ratios[1], spec_hash=spec_hash,
        )
        try:
            log = EventLog(times=times, marks=marks, meta=meta)
        except ValueError as exc:
            # only the pair rule can refuse these rows
            assert str(exc).startswith("metadata ")
            assert accepted != len(times) or horizon < last
            return
        with tempfile.TemporaryDirectory() as tmp:
            path, meta_path = os.path.join(tmp, "e.csv"), os.path.join(tmp, "e.meta.json")
            write_events_csv(log, path)
            write_meta_json(log, meta_path)
            again = read_events_csv(path, meta_path)
            assert sorted(os.listdir(tmp)) == ["e.csv", "e.meta.json"]
        assert [t.hex() for t in again.times] == [t.hex() for t in log.times]
        assert again.marks == log.marks
        assert again.meta == log.meta

    @pytest.mark.parametrize("times, fields, message", _PAIR_REFUSALS)
    def test_constructor_and_reader_refuse_a_pair_alike(self, tmp_path, times, fields, message):
        meta = thinning.SimulationMeta(**{**_VALID_META, **fields})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EventLog(times=times, marks=(1,) * len(times), meta=meta)
        path, meta_path = tmp_path / "e.csv", tmp_path / "e.meta.json"
        path.write_text("time,mark\n" + "".join(f"{t!r},1\n" for t in times))
        write_meta_json(meta, meta_path)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_events_csv(path, meta_path)

    def test_pair_bounds_are_inclusive(self):
        # a horizon at the last time builds, and an empty log takes any
        meta = thinning.SimulationMeta(**{**_VALID_META, "accepted": 2, "horizon": 2.0})
        assert len(EventLog(times=(1.0, 2.0), marks=(1, 1), meta=meta)) == 2
        for horizon in (-1.0, 0.0, 5.0):
            meta = thinning.SimulationMeta(**{**_VALID_META, "accepted": 0, "horizon": horizon})
            assert len(EventLog(times=(), marks=(), meta=meta)) == 0

    def test_a_bad_row_is_named_before_the_sidecar(self, tmp_path):
        # the log's rules on its rows come first, by file line
        path, meta_path = tmp_path / "e.csv", tmp_path / "e.meta.json"
        path.write_text("time,mark\n1.0,1\n0.5,1\n")
        meta_path.write_text(json.dumps({**_VALID_META, "accepted": 5, "horizon": 0.1}))
        with pytest.raises(ValueError, match="^line 3: event times must be strictly increasing"):
            read_events_csv(path, meta_path)

    @pytest.mark.parametrize("before", (None, b"time,mark\n0.5,2\n"))
    def test_failed_write_leaves_the_path_as_it_was(self, tmp_path, monkeypatch, before):
        # the disk fills once the header is written
        path = tmp_path / "e.csv"
        if before is not None:
            path.write_bytes(before)

        def full_disk(fh, row, columns):
            assert fh.tell() == len(thinning.EVENTS_HEADER)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(thinning, "write_csv_rows", full_disk)
        with pytest.raises(OSError, match="No space left"):
            write_events_csv(util.make_log([1.0, 2.0]), path)
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["e.csv"])
        assert before is None or path.read_bytes() == before

    def test_failed_rename_leaves_no_part(self, tmp_path):
        # a directory in the file's place: the rename fails, the file goes
        path = tmp_path / "e.csv"
        path.mkdir()
        with pytest.raises(OSError):
            write_events_csv(util.make_log([1.0]), path)
        assert [p.name for p in tmp_path.iterdir()] == ["e.csv"] and path.is_dir()


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
            from oracles import BoundTracker

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
        log = simulate(
            hawkes, 5.0, rng=ScriptedUniforms([math.exp(-0.3), u_stop])
        )
        assert len(log) == 1
        assert log.times[0] == pytest.approx(1.0, abs=1e-12)
        assert log.marks == (1,)

    def test_first_arrival_past_horizon_gives_empty_log(self, hawkes):
        # small u1 -> large first arrival
        log = simulate(hawkes, 0.5, rng=ScriptedUniforms([math.exp(-0.3)]))
        assert len(log) == 0
        assert log.meta.proposed == 1
        assert log.meta.accepted == 0

    def test_rejection_then_termination(self, carma21):
        # candidate at ~1, rejected with D close to 1, then stop
        stream = ScriptedUniforms([math.exp(-0.3), 0.9, 0.999999, 1e-300])
        log = simulate(carma21, 30.0, rng=stream)
        assert len(log) == 1  # only the first arrival survives

    def test_bivariate_first_arrival_routing(self, biv_independent):
        # u1 = e^{-0.6}, u2 = e^{-0.3}: candidates at 2 and 1, component 2 first
        stream = ScriptedUniforms([math.exp(-0.6), math.exp(-0.3), 1e-300])
        log = simulate(biv_independent, 5.0, rng=stream)
        assert len(log) == 1
        assert log.times[0] == pytest.approx(1.0, abs=1e-12)
        assert log.marks == (2,)

    def test_bivariate_tie_goes_to_component_one(self, biv_independent):
        stream = ScriptedUniforms([0.5, 0.5, 1e-300])
        log = simulate(biv_independent, 10.0, rng=stream)
        assert log.marks == (1,)

    def test_bivariate_empty_when_both_candidates_late(self, biv_independent):
        stream = ScriptedUniforms([math.exp(-0.6), math.exp(-0.6)])
        log = simulate(biv_independent, 1.0, rng=stream)
        assert len(log) == 0


class TestSimulationGuards:
    def test_horizon_validation(self, hawkes):
        for bad in (0.0, -1.0, math.inf, math.nan, 10**400):
            with pytest.raises(HorizonNonPositive, match="finite and > 0"):
                simulate(hawkes, bad, rng=1)

    def test_horizon_must_be_a_number(self, hawkes):
        # a bool or a string is no horizon, the rule seeds keep: True would
        # run to 1.0 and " 7 " to 7.0
        for bad in (True, False, np.bool_(True), " 7 ", "7", b"7", None, [7.0]):
            with pytest.raises(HorizonNonPositive, match="horizon must be a number"):
                simulate(hawkes, bad, rng=1)
        want = simulate(hawkes, 7.0, rng=1)
        for good in (7, np.float64(7.0), np.int64(7)):
            assert simulate(hawkes, good, rng=1).times == want.times

    def test_nonstationary_refused_without_override(self):
        spec = UnivariateSpec(mu=0.3, a=(2.0,), b=(3.0,))
        with pytest.raises(NonStationarySpec):
            simulate(spec, 10.0, rng=1)
        log = simulate(spec, 20.0, rng=1, override_validation=True)
        assert len(log) > 0

    def test_positive_decay_never_simulable(self):
        # a root with positive real part makes the envelope grow between
        # events; the proposal construction breaks, so no override applies
        spec = UnivariateSpec(mu=0.3, a=(-0.5,), b=(0.1,))
        with pytest.raises(NonStationarySpec):
            simulate(spec, 10.0, rng=1)
        with pytest.raises(NonStationarySpec):
            simulate(spec, 10.0, rng=1, override_validation=True)

    def test_degenerate_roots_never_simulable(self):
        # a double root at -1 has no spectral decomposition: the override
        # lifts validation's refusal, not the spectral failure
        spec = UnivariateSpec(mu=0.3, a=(2.0, 1.0), b=(1.0,))
        for override in (False, True):
            with pytest.raises(DegenerateEigenvalues):
                simulate(spec, 10.0, rng=1, override_validation=override)

    def test_kernel_negative_refused_without_override(self, biv_lagged):
        with pytest.raises(NonStationarySpec):
            simulate(biv_lagged, 10.0, rng=1)
        log = simulate(biv_lagged, 50.0, rng=1, override_validation=True)
        assert len(log) > 0

    def test_dispatch(self, hawkes, biv_independent):
        assert simulate(hawkes, 20.0, rng=3).marks.count(2) == 0
        assert 2 in simulate(biv_independent, 200.0, rng=3).marks


class TestDeterminismAndMeta:
    def test_same_seed_same_log(self, carma21, biv_cross):
        a = simulate(carma21, 300.0, rng=1234)
        b = simulate(carma21, 300.0, rng=1234)
        assert a.times == b.times and a.marks == b.marks
        c = simulate(biv_cross, 300.0, rng=1234)
        d = simulate(biv_cross, 300.0, rng=1234)
        assert c.times == d.times and c.marks == d.marks
        assert a.times != simulate(carma21, 300.0, rng=1235).times

    def test_negative_intensity_routing_pinned(self, biv_lagged):
        # biv_lagged's intensities dip below zero, so a candidate above the
        # summed intensity can still be accepted as component 1 when lam1
        # exceeds the total; these counts pin that routing rule
        log = simulate(biv_lagged, 2000.0, rng=1, override_validation=True)
        assert (len(log), log.meta.proposed, log.marks.count(1)) == (1990, 20030, 1379)

    def test_meta_counters(self, carma21):
        log = simulate(carma21, 500.0, rng=7)
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
        log = simulate(hawkes, 300.0, rng=19)
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


class TestCompiledKernel:
    """The loop compiled per Dynamics must equal the generic reference loop,
    including on paths that the random specs never reach."""

    def test_inexact_conjugates_stay_complex(self, carma31, monkeypatch):
        # one jump entry of the conjugate pair nudged by 1 ulp: the pair is
        # no longer exact, so both modes must be carried as complex
        from carma_hawkes import thinning

        dyn = dynamics(carma31)
        j1, j2 = dyn.jumps[0][1:]
        nudged = complex(math.nextafter(j2.real, math.inf), j2.imag)
        assert nudged != j1.conjugate()
        bent = dataclasses.replace(dyn, jumps=((dyn.jumps[0][0], j1, nudged),))
        assert mode_kinds(dyn) == ["real", "pair", "conj"]
        assert mode_kinds(bent) == ["real", "complex", "complex"]
        # the built loops: mode 2 has a state of its own only when unfolded
        assert "z2" not in thinning._kernel(dyn).__code__.co_varnames
        assert "z2" in thinning._kernel(bent).__code__.co_varnames
        monkeypatch.setattr(thinning, "dynamics", lambda spec: bent)
        monkeypatch.setattr(util, "dynamics", lambda spec: bent)
        for seed in range(1, 6):
            log = simulate(carma31, 300.0, rng=seed)
            ref = util.thin_reference(carma31, 300.0, seed)
            assert (log.times, log.marks, log.meta.proposed) == ref

    def test_three_components(self):
        # a cyclic 1 -> 2 -> 3 -> 1 spec with blocks of orders 1, 2 (a
        # conjugate pair) and 1, one per component
        spec = Spec(
            mu=(0.2, 0.3, 0.25),
            ar=((1.0,), (1.0, 2.0), (2.0,)),
            ma=(
                ((0.2,), (0.0, 0.0), (0.5,)),
                ((0.5,), (0.3, 0.2), (0.0,)),
                ((0.0,), (0.6, 0.4), (0.3,)),
            ),
        )
        assert mode_kinds(dynamics(spec)) == ["real", "pair", "conj", "real"]
        for seed in range(1, 6):
            log = simulate(spec, 200.0, rng=seed, override_validation=True)
            assert set(log.marks) == {1, 2, 3}
            assert (log.times, log.marks, log.meta.proposed) == util.thin_reference(
                spec, 200.0, seed
            )
            assert 0 < log.meta.squeezed <= log.meta.proposed - len(log)

    def test_exact_zero_uniform_is_redrawn(self, carma31):
        # the kernel reads a UniformStream's generator directly; a 0.0 from
        # it must be skipped as UniformStream.draw skips it
        class ZeroThird(random.Random):
            calls = 0

            def random(self):
                self.calls += 1
                return 0.0 if self.calls == 3 else super().random()

        stream = UniformStream(4)
        stream._rng = ZeroThird(4)
        log = simulate(carma31, 300.0, rng=stream)
        ref = simulate(carma31, 300.0, rng=4)
        assert stream._rng.calls > 3
        assert (log.times, log.marks, log.meta.proposed) == (ref.times, ref.marks, ref.meta.proposed)

        # any other stream is read through .draw(); a 0.0 from it inside the
        # loop (call 3 is the first candidate's acceptance draw) is redrawn
        class ZeroThirdDraw:
            calls = 0

            def __init__(self, seed):
                self._draw = UniformStream(seed).draw

            def draw(self):
                self.calls += 1
                return 0.0 if self.calls == 3 else self._draw()

        user = ZeroThirdDraw(4)
        log = simulate(carma31, 300.0, rng=user)
        assert user.calls > 3
        assert (log.times, log.marks, log.meta.proposed) == (ref.times, ref.marks, ref.meta.proposed)

    def test_draw_objects_match_plain_streams(self, carma31, biv_cross):
        # a UniformStream is read straight from its Mersenne Twister; any
        # other object goes through .draw() and must see the same run
        class Wrapped:
            def __init__(self, seed):
                self.draw = UniformStream(seed).draw

        for spec in (carma31, biv_cross):
            a = simulate(spec, 300.0, rng=3)
            b = simulate(spec, 300.0, rng=Wrapped(3))
            assert (a.times, a.marks, a.meta.proposed, a.meta.squeezed) == (
                b.times, b.marks, b.meta.proposed, b.meta.squeezed
            )


class TestLongRunRates:
    def test_univariate_rate_near_theory(self, carma21):
        log = simulate(carma21, 5000.0, rng=2024)
        rate = len(log) / 5000.0
        assert rate == pytest.approx(stationary_rates(carma21)[0], rel=0.05)

    def test_bivariate_rates_near_theory(self, biv_cross):
        log = simulate(biv_cross, 5000.0, rng=2024)
        r1, r2 = stationary_rates(biv_cross)
        assert log.marks.count(1) / 5000.0 == pytest.approx(r1, rel=0.07)
        assert log.marks.count(2) / 5000.0 == pytest.approx(r2, rel=0.07)


class TestSlices:
    """simulate_into hands a run over in slices of about CSV_CHUNK_ROWS
    events; which slices it takes must change no event and no count."""

    # as in TestSqueeze: forced draws whose reference run passes this many
    # events are skipped (some explode)
    EVENT_CAP = 2000
    BUNDLED = sorted(util.MODELS.glob("*.json"))

    @staticmethod
    def sliced(spec, horizon, seed, forced=False):
        """(times, marks, slice sizes, meta) of simulate_into."""
        times, marks, sizes = [], [], []

        def sink(t, m):
            assert type(t) is list and type(m) is list and len(t) == len(m)
            times.extend(t)
            marks.extend(m)
            sizes.append(len(t))

        meta = thinning.simulate_into(spec, horizon, sink, rng=seed, override_validation=forced)
        return tuple(times), tuple(marks), sizes, meta

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 50),
        source=st.sampled_from(["bundled", "univariate", "bivariate"]),
        forced=st.booleans(),
    )
    def test_slices_concatenate_to_simulate(self, seed, rows, source, forced):
        # bundled models at horizon 100 (forced where they need it), random
        # admissible specs at 50 and forced ones at 5, as TestSqueeze draws them
        rng = np.random.default_rng(seed)
        if source == "bundled":
            spec = load_spec(self.BUNDLED[seed % len(self.BUNDLED)])
            forced, horizon = util.needs_override(spec), 100.0
        else:
            make = util.random_bivariate_spec if source == "bivariate" else util.random_univariate_spec
            spec = make(rng, p_max=3)
            while validate(spec).admissible == forced:
                spec = make(rng, p_max=3)
            horizon = 5.0 if forced else 50.0
        # the generic loop, which shares no code with thinning._run
        reference = util.thin_reference(spec, horizon, seed,
                                         max_events=self.EVENT_CAP if forced else None)
        assume(reference is not None)
        with mock.patch.object(thinning, "CSV_CHUNK_ROWS", rows):
            times, marks, sizes, meta = self.sliced(spec, horizon, seed, forced)
        assert (times, marks, meta.proposed) == reference
        # unpatched, simulate's first slice ends at the horizon (every base
        # here is at most 2), so the two runs are sliced differently
        assert thinning.CSV_CHUNK_ROWS / dynamics(spec).base >= horizon
        log = simulate(spec, horizon, rng=seed, override_validation=forced)
        assert (times, marks) == (log.times, log.marks)
        assert sum(sizes) == meta.accepted == len(log)
        assert dataclasses.replace(meta, wall_time_seconds=0.0) == dataclasses.replace(
            log.meta, wall_time_seconds=0.0
        )

    def test_slices_hold_about_a_chunk(self, biv_cross):
        # after the first slice, taken at the baseline rate (the intensity
        # runs above it), each full slice holds about CSV_CHUNK_ROWS events
        _, _, sizes, meta = self.sliced(biv_cross, 20_000.0, 3)
        assert meta.accepted > 8 * thinning.CSV_CHUNK_ROWS
        assert all(0.75 < n / thinning.CSV_CHUNK_ROWS < 1.25 for n in sizes[1:-1])
        assert sizes[0] < 4 * thinning.CSV_CHUNK_ROWS

    def test_one_component_marks_are_ones(self, carma21):
        with mock.patch.object(thinning, "CSV_CHUNK_ROWS", 16):
            times, marks, sizes, _ = self.sliced(carma21, 300.0, 5)
        assert len(sizes) > 2
        assert marks == (1,) * len(times)
        assert times == simulate(carma21, 300.0, rng=5).times

    def test_no_event_before_the_horizon(self, hawkes):
        # the first arrival falls past the horizon: one empty slice, and the
        # n first-arrival draws counted as proposals
        _, _, sizes, meta = self.sliced(hawkes, 1e-9, 1)
        log = simulate(hawkes, 1e-9, rng=1)
        assert (sizes, meta.proposed, len(log), log.meta.proposed) == ([0], 1, 0, 1)

    def test_checks_are_simulate_s(self, carma21, biv_lagged):
        for spec, horizon, rng, error in ((carma21, True, None, HorizonNonPositive),
                                          (biv_lagged, 10.0, None, NonStationarySpec),
                                          (carma21, 10.0, -1, ValueError)):
            with pytest.raises(error):
                thinning.simulate_into(spec, horizon, print, rng=rng)


@st.composite
def _rows(draw):
    """Up to 8 (time, mark) rows: mostly rising times and valid marks, with
    NaN, +-inf, 0, equal and decreasing times and marks 0 and -1 mixed in."""
    rows, t = [], 0.0
    for _ in range(draw(st.integers(0, 8))):
        kind, value = draw(st.one_of(
            st.tuples(st.just("gap"), st.floats(1e-3, 10.0)),
            st.sampled_from([("gap", 0.0), ("gap", -1.0), ("at", 0.0), ("at", math.nan),
                             ("at", math.inf), ("at", -math.inf)]),
        ))
        time = t + value if kind == "gap" else value
        t = time if math.isfinite(time) else t
        rows.append((time, draw(st.sampled_from([1, 2, 3, 0, -1]))))
    return rows


class TestEventLogContainer:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            util.make_log([1.0, 1.0])
        with pytest.raises(ValueError):
            util.make_log([2.0, 1.0])
        with pytest.raises(ValueError):
            util.make_log([0.0, 1.0])

    def test_rejects_non_finite_times(self):
        # an infinite last time would give summarize an infinite horizon
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="index 2: event time must be finite"):
                util.make_log([1.0, 2.0, bad])
        with pytest.raises(ValueError, match="index 0: event time must be finite, got inf"):
            EventLog(times=(math.inf, 0.5), marks=(1, 0), meta=util.make_log([]).meta)

    def test_rejects_times_that_are_not_numbers(self):
        # each meta matches its rows, so only the times can be refused
        meta = util.make_meta([1.0, 2.0**70])
        for bad in ("2.0", 10**400, Fraction(10**400), None, 1j, b"2"):
            with pytest.raises(ValueError, match="index 1: event times must be finite real numbers"):
                EventLog(times=(1.0, bad), marks=(1, 1), meta=meta)
        # an integer within float range is the float it rounds to
        assert EventLog(times=(1, 2**70), marks=(1, 1), meta=meta).times == (1.0, 2.0**70)
        # a bool is no time, alone, in a bool array, or among floats (which
        # numpy would turn it into)
        for times, row in (((True,), 0), (np.array([True]), 0), ((0.5, True), 1)):
            with pytest.raises(ValueError, match=f"index {row}: event times must be finite real numbers"):
                EventLog(times=times, marks=(1,) * len(times), meta=util.make_meta([1.0] * len(times)))

    def test_rejects_bad_marks(self):
        for bad in (0, -1, 1.5, 2**70, 2**63, -(2**63) - 1, np.uint64(2**63), "1"):
            with pytest.raises(ValueError, match="index 1: marks must be integers >= 1"):
                util.make_log([1.0, 2.0], [1, bad])
        assert util.make_log([1.0], [2**63 - 1]).marks == (2**63 - 1,)
        # a bool is no mark (_is_int), even where numpy would read a list
        # or an array of them as integers
        for marks in ([True, 2], [True, False], (True,), np.array([True]), [np.True_, 2]):
            with pytest.raises(ValueError, match="index 0: marks must be integers >= 1 in int64, got"):
                util.make_log([1.0, 2.0][: len(marks)], marks)
        # any integer mark >= 1 is a log's own business; whether the spec
        # has that component is checked where the spec is known
        assert util.make_log([1.0, 2.0], [3, 12]).marks == (3, 12)
        with pytest.raises(ValueError):
            EventLog(times=(1.0, 2.0), marks=(1,), meta=util.make_log([1.0]).meta)

    def test_arrays_built_once_and_read_only(self, biv_cross):
        log = simulate(biv_cross, 50.0, rng=3)
        times, marks = log.arrays
        assert log.arrays[0] is times and log.arrays[1] is marks
        assert times.dtype == np.float64 and marks.dtype.kind == "i"
        assert times.tolist() == list(log.times) and marks.tolist() == list(log.marks)
        for array in (times, marks):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_arrays_leave_fields_equality_and_hash(self, biv_cross):
        log = simulate(biv_cross, 50.0, rng=3)
        fresh = dataclasses.replace(log)
        assert [f.name for f in dataclasses.fields(EventLog)] == ["times", "marks", "meta"]
        assert log == fresh and hash(log) == hash(fresh)

    def test_fields_are_tuples_of_python_numbers(self):
        # lists, tuples and arrays all give the same log
        times, marks = [0.5, 1.0, 2.5], [2, 1, 2]
        for given in ((times, marks), (tuple(times), tuple(marks)),
                      (np.array(times), np.array(marks, dtype=np.int32))):
            log = EventLog(times=given[0], marks=given[1], meta=util.make_meta(times))
            assert log.times == tuple(times) and log.marks == tuple(marks)
            assert all(type(t) is float for t in log.times)
            assert all(type(m) is int for m in log.marks)
            assert log.arrays[0].dtype == np.float64 and log.arrays[1].dtype == np.int64

    @pytest.mark.parametrize("name", sorted(path.stem for path in util.MODELS.glob("*.json")))
    def test_simulated_log_equals_the_constructors(self, name, monkeypatch):
        # simulate builds its log from the kernel's lists, past the
        # constructor: its fields and arrays must be the constructor's,
        # the empty log (no arrival by the horizon) included, and it checks
        # the log's rules as the constructor does
        spec = load_spec(util.MODELS / f"{name}.json")
        checked = []
        check = thinning._first_bad_row
        monkeypatch.setattr(thinning, "_first_bad_row", lambda *cols: checked.append(cols) or check(*cols))
        for horizon, seed in ((1e-6, 1), (300.0, 1), (300.0, 2), (300.0, 3)):
            del checked[:]
            log = simulate(spec, horizon, rng=seed, override_validation=True)
            assert len(checked) == 1 and checked[0][0] is log.arrays[0] and checked[0][1] is log.arrays[1]
            ref = EventLog(list(log.times), list(log.marks), log.meta)
            assert horizon > 1 or len(log) == 0
            assert type(log.times) is tuple and type(log.marks) is tuple
            assert (log.times, log.marks) == (ref.times, ref.marks)
            assert all(type(t) is float for t in log.times)
            assert all(type(m) is int for m in log.marks)
            for got, want in zip(log.arrays, ref.arrays):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
                assert got.flags.c_contiguous and want.flags.c_contiguous
                assert not got.flags.writeable and not want.flags.writeable

    def test_residuals_and_paths_share_one_copy(self, biv_cross, monkeypatch):
        # summarize runs one residual transform for every component, and
        # the paths scan the log again: all read the arrays the constructor
        # built, and none converts the log's tuples
        log = simulate(biv_cross, 50.0, rng=3)
        seen = []
        for name in ("fromiter", "array", "asarray"):
            convert = getattr(np, name)
            monkeypatch.setattr(np, name, lambda it, *a, _c=convert, **k: seen.append(it) or _c(it, *a, **k))
        summarize(biv_cross, log)
        intensity_path(biv_cross, log, [1.0, 2.0])
        bound_path(biv_cross, log, [1.0, 2.0])
        assert seen and [it for it in seen if it is log.times or it is log.marks] == []

    def test_csv_roundtrip(self, tmp_path, biv_cross):
        log = simulate(biv_cross, 200.0, rng=5)
        csv_path = tmp_path / "events.csv"
        meta_path = tmp_path / "events.meta.json"
        write_events_csv(log, csv_path)
        write_meta_json(log, meta_path)
        again = read_events_csv(csv_path, meta_path)
        assert again.times == log.times
        assert again.marks == log.marks
        assert again.meta.seed == 5
        assert again.meta.spec_hash == log.meta.spec_hash

    def test_sidecar_carries_squeezed(self, tmp_path, carma31):
        log = simulate(carma31, 200.0, rng=5)
        csv_path = tmp_path / "events.csv"
        meta_path = tmp_path / "events.meta.json"
        write_events_csv(log, csv_path)
        write_meta_json(log, meta_path)
        assert read_events_csv(csv_path, meta_path).meta.squeezed == log.meta.squeezed > 0
        # sidecars written before the field existed read as 0
        meta_path.write_text('{"horizon": 200.0}')
        assert read_events_csv(csv_path, meta_path).meta.squeezed == 0

    def test_sidecar_count_must_match_rows(self, tmp_path, carma21):
        # a file cut short beside its intact sidecar is refused
        log = simulate(carma21, 50.0, rng=5)
        csv_path = tmp_path / "events.csv"
        meta_path = tmp_path / "events.meta.json"
        write_events_csv(log, csv_path)
        write_meta_json(log, meta_path)
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match=f"metadata accepted {len(log)} events, the log holds {len(log) - 1}"):
            read_events_csv(csv_path, meta_path)
        assert len(read_events_csv(csv_path)) == len(log) - 1

    def test_refused_sidecar_leaves_no_file(self, tmp_path, carma21):
        # a sidecar is strict JSON, as read_events_csv reads it: a meta
        # with a non-finite number is refused when it is built, so no file
        # is written
        meta = simulate(carma21, 50.0, rng=5).meta
        meta_path = tmp_path / "events.meta.json"
        for name, bad in (("horizon", math.inf), ("acceptance_ratio", math.nan)):
            with pytest.raises(ValueError, match=f"metadata {name} must be a finite number"):
                write_meta_json(dataclasses.replace(meta, **{name: bad}), meta_path)
            assert not meta_path.exists()

    def test_parse_errors_name_the_file_line(self, tmp_path):
        # the header is line 1; blank and whitespace-only lines count as
        # lines but not as rows
        path = tmp_path / "events.csv"
        cases = [
            ("time,mark\n1.0,1\nabc,1\n", "line 3: cannot read 'abc' as a time"),
            ("time,mark\n1.0\n", "line 2: expected 2 comma-separated fields"),
            ("time,mark\n1.0,1\n  \n\n2.0,x\n", "line 5: cannot read 'x' as an integer mark"),
            ("time,mark\n1.0,1\n\n2.0,1\ninf,1\n", "line 5: event time must be finite"),
            ("time,mark\r\n1.0,1\r\n2.0,\r\n", "line 3: cannot read '' as an integer mark"),
            # rows that parse but break the log's own rules; the first bad
            # row is named, its time before its mark
            ("time,mark\n1.0,1\n\n2.0,0\n", "line 4: marks must be integers >= 1, got 0"),
            ("time,mark\n2.0,1\n  \n1.0,1\n",
             "line 4: event times must be strictly increasing and > 0, got 1.0 after 2.0"),
            ("time,mark\n1e-400,1\n", "line 2: event times must be strictly increasing and > 0, got 0.0"),
            ("time,mark\n1.0,1\n1.0,-3\n", "line 3: event times must be strictly increasing"),
            ("time,mark\n1.0,1\n2.0,0\n1.5,1\n", "line 3: marks must be integers >= 1, got 0"),
        ]
        for text, message in cases:
            path.write_bytes(text.encode())
            with pytest.raises(ValueError) as info:
                read_events_csv(path)
            assert str(info.value).startswith(message)
            assert "usecols" not in str(info.value) and "row 1" not in str(info.value)
        # a sidecar without a horizon gives the no-sidecar one, unchecked:
        # a last time that is not finite is named by its line
        meta_path = tmp_path / "events.meta.json"
        meta_path.write_text('{"accepted": 2}')
        for last in ("inf", "nan", "1e400"):
            path.write_bytes(f"time,mark\n1.0,1\n{last},1\n".encode())
            with pytest.raises(ValueError, match="^line 3: event time must be finite"):
                read_events_csv(path, meta_path)

    def test_bad_last_row_is_found_one_chunk_at_a_time(self, tmp_path, monkeypatch):
        # rows are checked one by one only inside the chunk numpy refuses,
        # not all the rows before the bad one
        rows = 2 * thinning.CSV_CHUNK_ROWS + 5
        path = tmp_path / "events.csv"
        path.write_text("time,mark\n" + "".join(f"{k}.5,1\n" for k in range(rows - 1)) + "x,1\n")
        calls = []
        row_problem = thinning._row_problem
        monkeypatch.setattr(thinning, "_row_problem", lambda line: calls.append(line) or row_problem(line))
        with pytest.raises(ValueError, match=f"^line {rows + 1}: cannot read 'x' as a time"):
            read_events_csv(path)
        assert 0 < len(calls) <= thinning.CSV_CHUNK_ROWS

    def test_read_fills_arrays_from_the_columns(self, tmp_path, biv_cross):
        # the parsed columns become the log's arrays, as the constructor
        # builds them from tuples
        path = tmp_path / "events.csv"
        for log in (simulate(biv_cross, 50.0, rng=3), util.make_log([])):
            write_events_csv(log, path)
            again = read_events_csv(path)
            for array, field, dtype in zip(again.arrays, (again.times, again.marks), (float, int)):
                want = np.fromiter(field, dtype=dtype, count=len(field))
                assert array.dtype == want.dtype and array.shape == want.shape
                assert array.tobytes() == want.tobytes()
                assert array.flags.c_contiguous and not array.flags.writeable
            assert again.times == log.times and again.marks == log.marks

    def test_csv_without_meta(self, tmp_path, carma21):
        log = simulate(carma21, 50.0, rng=5)
        path = tmp_path / "events.csv"
        write_events_csv(log, path)
        again = read_events_csv(path)
        assert again.times == log.times
        assert again.meta.spec_hash is None

    @settings(max_examples=100, deadline=None)
    @given(
        gaps=st.lists(
            st.floats(1e-300, 1e4, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=60,
        ),
        data=st.data(),
    )
    def test_csv_roundtrip_is_exact(self, gaps, data):
        # any strictly increasing positive doubles, tiny and huge, read back
        # bit for bit
        times = sorted(set(itertools.accumulate(gaps)))
        times += data.draw(st.sampled_from([[], [2.0**53 + 2.0], [1e300]]))
        marks = data.draw(st.lists(st.sampled_from([1, 2]), min_size=len(times), max_size=len(times)))
        log = util.make_log(times, marks)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "events.csv")
            write_events_csv(log, path)
            again = read_events_csv(path)
        assert [t.hex() for t in again.times] == [t.hex() for t in log.times]
        assert again.marks == log.marks

    @settings(max_examples=200, deadline=None)
    @given(rows=_rows())
    def test_constructor_and_reader_refuse_alike(self, rows):
        # the log's rules have one implementation: a log built from rows is
        # refused exactly when the same rows read from a file are, and both
        # name the same first bad row with the same problem
        times, marks = [t for t, _ in rows], [m for _, m in rows]
        try:
            # the meta the reader gives the file, which has no sidecar
            made = EventLog(times=times, marks=marks, meta=util.make_meta(times))
            refused = None
        except ValueError as exc:
            refused = str(exc)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "events.csv")
            with open(path, "w") as fh:
                fh.write("time,mark\n" + "".join("%.17g,%d\n" % row for row in rows))
            try:
                read = read_events_csv(path)
                read_refused = None
            except ValueError as exc:
                read_refused = str(exc)
        if refused is None:
            assert read_refused is None
            assert read.times == made.times and read.marks == made.marks
        else:
            index, problem = re.fullmatch(r"index (\d+): (.*)", refused).groups()
            # the header is line 1
            assert read_refused == f"line {int(index) + 2}: {problem}"

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_events_csv(path)

    def test_csv_bytes_match_one_format_per_row(self, tmp_path, biv_cross, monkeypatch):
        # the chunked writer gives the bytes of one f-string per row, across
        # chunk boundaries and a last chunk that is not full
        monkeypatch.setattr(thinning, "CSV_CHUNK_ROWS", 7)
        log = simulate(biv_cross, 40.0, rng=1)
        assert len(log) > 14 and len(log) % 7 != 0
        path = tmp_path / "events.csv"
        write_events_csv(log, path)
        expected = "time,mark\n" + "".join(f"{t:.17g},{m}\n" for t, m in zip(log.times, log.marks))
        assert path.read_bytes() == expected.encode()
        write_events_csv(util.make_log([]), path)
        assert path.read_bytes() == b"time,mark\n"


H = "time,mark\n"
# The events-file grammar: (file text, the rows it reads as, or the ValueError
# it raises, with a message pattern where the message is the package's own).
# Python's float()/int() would take the last four rows; numpy's parser has no
# underscores, no digits beyond ASCII and no integers beyond int64.
EVENTS_GRAMMAR = {
    "plain": (H + "1.0,1\n2.5,2\n", [(1.0, 1), (2.5, 2)]),
    "blank_lines": (H + "1.0,1\n\n\n2.0,2\n\n", [(1.0, 1), (2.0, 2)]),
    "whitespace_only_lines": (H + "1.0,1\n   \n\t\n2.0,1\n \t ", [(1.0, 1), (2.0, 1)]),
    "crlf": ("time,mark\r\n1.0,1\r\n2.0,2\r\n", [(1.0, 1), (2.0, 2)]),
    "no_final_newline": (H + "1.0,1\n2.0,1", [(1.0, 1), (2.0, 1)]),
    "spaces_around_fields": (H + " 1.0 , 1 \n\t2.0\t,\t2\t\n", [(1.0, 1), (2.0, 2)]),
    "plus_signs": (H + "+1,+1\n", [(1.0, 1)]),
    "exponents": (H + "1e5,1\n1.5E6,2\n", [(1e5, 1), (1.5e6, 2)]),
    "bare_dots_and_leading_zeros": (H + ".5,1\n01.5,01\n2.,1\n", [(0.5, 1), (1.5, 1), (2.0, 1)]),
    "seventeen_digits": (H + "0.10000000000000001,1\n1.7976931348623157e+308,2\n",
                         [(0.1, 1), (1.7976931348623157e308, 2)]),
    "mark_int64_max": (H + "1.0,9223372036854775807\n", [(1.0, 2**63 - 1)]),
    "header_only": (H, []),
    "header_without_newline": ("time,mark", []),
    "header_and_blank_lines": (H + "  \n\n", []),
    "one_field": (H + "1.0\n", ValueError),
    "three_fields": (H + "1.0,1,2\n", ValueError),
    "trailing_comma": (H + "1.0,1,\n", ValueError),
    "word": (H + "abc,1\n", ValueError),
    "empty_time": (H + ",1\n", ValueError),
    "empty_mark": (H + "1.0,\n", ValueError),
    "comment_line": (H + "# note\n1.0,1\n", ValueError),
    "comment_after_row": (H + "1.0,1 # note\n", ValueError),
    "mark_1.5": (H + "1.0,1.5\n", ValueError),
    "mark_1.0": (H + "1.0,1.0\n", ValueError),
    "mark_1e0": (H + "1.0,1e0\n", ValueError),
    "hex_float": (H + "0x1p3,1\n", ValueError),
    "semicolon_separator": (H + "1.0;1\n", ValueError),
    "tab_separator": (H + "1.0\t1\n", ValueError),
    "quoted_field": (H + '"1.0",1\n', ValueError),
    "whitespace_line_then_bad_row": (H + "1.0,1\n  \nabc,1\n", ValueError),
    "inf": (H + "1.0,1\ninf,1\n", (ValueError, "must be finite")),
    "nan": (H + "1.0,1\nnan,1\n", (ValueError, "must be finite")),
    "overflowing_time": (H + "1e400,1\n", (ValueError, "must be finite")),
    "mark_zero": (H + "1.0,0\n", (ValueError, "marks must be integers >= 1")),
    "not_increasing": (H + "2.0,1\n1.0,1\n", (ValueError, "strictly increasing")),
    "time_zero": (H + "1e-400,1\n", (ValueError, "strictly increasing and > 0")),
    "bad_header": ("t,m\n1.0,1\n", (ValueError, "unexpected events header")),
    "underscore_in_time": (H + "1_0.0,1\n", ValueError),
    "underscore_in_mark": (H + "1.0,1_0\n", ValueError),
    "mark_beyond_int64": (H + "1.0,99999999999999999999\n", ValueError),
    "non_ascii_digits": (H + "\uff11.0,\u0661\n", ValueError),
}


@pytest.mark.parametrize("text, expected", EVENTS_GRAMMAR.values(), ids=EVENTS_GRAMMAR.keys())
def test_events_grammar(tmp_path, text, expected):
    path = tmp_path / "events.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, list):
        log = read_events_csv(path)
        assert [t.hex() for t in log.times] == [float(t).hex() for t, _ in expected]
        assert log.marks == tuple(m for _, m in expected)
        assert all(type(m) is int for m in log.marks)
    else:
        error, pattern = expected if isinstance(expected, tuple) else (expected, None)
        with pytest.raises(error, match=pattern):
            read_events_csv(path)
