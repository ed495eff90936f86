"""Thinning simulation with a recursively maintained intensity envelope.

One loop serves every model: it reads the spec's Dynamics (modes, per-
component weights, per-mark jumps and envelope constants) and does not care
how many components there are.  Candidates are drawn from a homogeneous rate
equal to the current value of a dominating envelope lam_bar(t) >= lam(t),
where lam is the SUM of the component intensities.  The envelope decays
geometrically from a per-event anchor:

    lam_bar(t) = base + exp(decay * (t - anchor)) * (lam_bar_anchor - base)

and jumps by a spectrally derived constant K_m at each accepted event of
mark m.  The first arrival is the earliest of one exponential candidate per
component at its baseline rate (the lowest component wins a tie).

A later candidate with acceptance uniform D is routed by the running sums of
the component intensities in component order: it is accepted as the first
component c with D * lam_bar <= lam_1 + ... + lam_c, the last component
being tested against the total, and rejected otherwise.  A kernel that dips
negative (a validation override) can make a component's intensity negative;
the running sums are then not increasing, and a candidate above the total
may still be accepted by an earlier component whose partial sum exceeds it.
The rule is kept exactly so that seeded output never changes.

K is re-added only at accepted events; between events (including after
rejected candidates) the envelope only decays.  This keeps the bound equal to
the exponentially decayed sum over realised jumps, which dominates the
intensity pointwise, and gives a strictly tighter envelope (higher acceptance
ratio) than re-inflating it on every candidate.

Most candidates are rejected, and most rejections are decided without the
intensity (the rejection-sampling squeeze; Devroye 1986, II.5).  With z the
modal state at the last event, W^(c) = w_1 + ... + w_c the running-sum weight
rows and a_j = max_c |W^(c)_j|, every running sum and the total at t obey

    |Re(W^(c)_j z_j e^{lam_j dt})| <= a_j |z_j| e^{decay dt}
    =>  lam_1 + ... + lam_c <= base + s e^{decay dt},  s = sum_j a_j |z_j|,

as the baselines are positive.  A candidate with D * lam_bar above that (s
and base carry a 1e-12 relative margin for rounding) is rejected before any
mode is propagated.  The
routing rule would reject it too, and the test comes after the envelope's
decay, so candidates, decisions and seeded output are those of the loop
without it.  Squeezed candidates never evaluate lam, so the per-candidate
check lam <= lam_bar does not see them; they are covered instead by a
certificate checked once per run, sum_j |W_j| |J_mj| <= K_m for every mark m,
which bounds lam - base by lam_bar - base at every t.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, replace
from operator import add, lt, mul
from typing import Sequence

import numpy as np

from .errors import (
    BoundViolation,
    HorizonNonPositive,
    NonStationarySpec,
    NumericalOverflow,
)
from .model import (
    BivariateSpec,
    Spec,
    UnivariateSpec,
    dynamics,
    spec_hash,
    validate,
)

_BOUND_SLACK = 1e-9
_BOUND_RTOL = 1e-10
# relative margin on the squeeze's weights and constant: far above the few
# ulps by which a computed running sum can exceed its exact value, so rounding
# never squeezes a candidate that routing would accept
_SQUEEZE_MARGIN = 1.0 + 1e-12


# ---------------------------------------------------------------------------
# uniform streams


class UniformStream:
    """Seedable i.i.d. uniforms on the open interval (0, 1).

    Backed by the stdlib Mersenne Twister; the same seed always reproduces
    the same sequence, and exact zeros are redrawn so log(u) is always
    finite.
    """

    def __init__(self, seed: int | None = None):
        self.seed = seed
        self._rng = random.Random(seed)

    def draw(self) -> float:
        u = self._rng.random()
        while u <= 0.0:
            u = self._rng.random()
        return u


class ScriptedUniforms:
    """Fixed uniform sequence for hand-traced tests."""

    def __init__(self, values: Sequence[float]):
        for v in values:
            if not 0.0 < v < 1.0:
                raise ValueError("scripted uniforms must lie strictly in (0, 1)")
        self._values = list(values)
        self._pos = 0
        self.seed = None

    def draw(self) -> float:
        if self._pos >= len(self._values):
            raise RuntimeError("scripted uniform sequence exhausted")
        v = self._values[self._pos]
        self._pos += 1
        return v


def as_uniform_stream(rng) -> UniformStream | ScriptedUniforms:
    if rng is None or isinstance(rng, int):
        return UniformStream(rng)
    if hasattr(rng, "draw"):
        return rng
    raise TypeError("rng must be None, an int seed, or an object with .draw()")


# ---------------------------------------------------------------------------
# dominating envelope


@dataclass(frozen=True)
class BoundTracker:
    """State of the dominating envelope at its most recent anchor.

    jump_size_for_mark holds one K per event mark (a single entry for the
    univariate model).  lambda_bar is the envelope value at anchor_time,
    inclusive of the anchor event's jump.
    """

    base: float
    decay: float
    jump_size_for_mark: tuple[float, ...]
    lambda_bar: float
    anchor_time: float


def initial_bound(spec: Spec) -> BoundTracker:
    dyn = dynamics(spec)
    return BoundTracker(
        base=dyn.base,
        decay=dyn.decay,
        jump_size_for_mark=dyn.bound_jumps,
        lambda_bar=dyn.base,
        anchor_time=0.0,
    )


def _decayed_excess(tracker: BoundTracker, t: float) -> float:
    dt = t - tracker.anchor_time
    if dt < 0:
        raise ValueError("envelope queried before its anchor time")
    x = tracker.decay * dt
    if x > 700.0:
        raise NumericalOverflow(f"envelope factor exp({x:.6g}) overflows")
    return (tracker.lambda_bar - tracker.base) * math.exp(x)


def bound_value(tracker: BoundTracker, t: float) -> float:
    """Envelope value at t >= anchor_time (decay only, no new jumps)."""
    return tracker.base + _decayed_excess(tracker, t)


def bound_after_event(tracker: BoundTracker, event_time: float, mark: int = 1) -> BoundTracker:
    """Decay the envelope to the event time, then add the mark's jump."""
    if not 1 <= mark <= len(tracker.jump_size_for_mark):
        raise ValueError(f"mark must be in 1..{len(tracker.jump_size_for_mark)}")
    new_bar = (
        tracker.base
        + _decayed_excess(tracker, event_time)
        + tracker.jump_size_for_mark[mark - 1]
    )
    return replace(tracker, lambda_bar=new_bar, anchor_time=event_time)


def bound_path(spec: Spec, log, times: Sequence[float]) -> np.ndarray:
    """Envelope sampled at sorted times along an event log (events strictly
    before a sample time contribute)."""
    tracker = initial_bound(spec)
    out = np.empty(len(times), dtype=float)
    idx = 0
    n_ev = len(log.times)
    prev = -math.inf
    for row, t in enumerate(times):
        if t < prev:
            raise ValueError("sample times must be sorted")
        prev = t
        while idx < n_ev and log.times[idx] < t:
            tracker = bound_after_event(tracker, log.times[idx], log.marks[idx])
            idx += 1
        out[row] = bound_value(tracker, t)
    return out


# ---------------------------------------------------------------------------
# event logs


@dataclass(frozen=True)
class SimulationMeta:
    seed: int | None
    horizon: float
    proposed: int
    accepted: int
    acceptance_ratio: float
    wall_time_seconds: float
    spec_hash: str | None = None
    # candidates rejected by the squeeze pretest, without evaluating lam
    squeezed: int = 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "proposed": self.proposed,
            "accepted": self.accepted,
            "acceptance_ratio": self.acceptance_ratio,
            "wall_time_seconds": self.wall_time_seconds,
            "spec_hash": self.spec_hash,
            "squeezed": self.squeezed,
        }


@dataclass(frozen=True)
class EventLog:
    """Strictly increasing event times with per-event component marks."""

    times: tuple[float, ...]
    marks: tuple[int, ...]
    meta: SimulationMeta

    def __post_init__(self):
        if len(self.times) != len(self.marks):
            raise ValueError("times and marks must have equal length")
        times = self.times
        later = itertools.islice(times, 1, None)
        if times and not (times[0] > 0 and all(map(lt, times, later))):
            raise ValueError("event times must be strictly increasing and > 0")
        if not set(self.marks) <= {1, 2}:
            raise ValueError("marks must be 1 or 2")

    def __len__(self) -> int:
        return len(self.times)

    def times_of(self, mark: int) -> tuple[float, ...]:
        return tuple(t for t, m in zip(self.times, self.marks) if m == mark)


def write_events_csv(log: EventLog, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,mark\n")
        for t, m in zip(log.times, log.marks):
            fh.write(f"{t:.15g},{m}\n")


def write_meta_json(log: EventLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(log.meta.to_dict(), fh, indent=2)
        fh.write("\n")


def read_events_csv(path, meta_path=None) -> EventLog:
    times = []
    marks = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "time,mark":
            raise ValueError(f"unexpected events header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            t_str, m_str = line.split(",")
            t = float(t_str)
            if not math.isfinite(t):
                raise ValueError(f"event time must be finite, got {t_str!r}")
            times.append(t)
            marks.append(int(m_str))
    meta = SimulationMeta(
        seed=None,
        horizon=times[-1] if times else 0.0,
        proposed=0,
        accepted=len(times),
        acceptance_ratio=0.0,
        wall_time_seconds=0.0,
        spec_hash=None,
    )
    if meta_path is not None:
        with open(meta_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"metadata must be a JSON object, got {type(data).__name__}")
        try:
            meta = SimulationMeta(
                seed=data.get("seed"),
                horizon=float(data.get("horizon", meta.horizon)),
                proposed=int(data.get("proposed", 0)),
                accepted=int(data.get("accepted", len(times))),
                acceptance_ratio=float(data.get("acceptance_ratio", 0.0)),
                wall_time_seconds=float(data.get("wall_time_seconds", 0.0)),
                spec_hash=data.get("spec_hash"),
                squeezed=data.get("squeezed", 0),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"metadata field is not a number: {exc}") from None
        if type(meta.squeezed) is not int or meta.squeezed < 0:
            raise ValueError(
                f"metadata squeezed must be a non-negative integer, got {meta.squeezed!r}"
            )
        if not (math.isfinite(meta.horizon) and math.isfinite(meta.acceptance_ratio)):
            raise ValueError("metadata horizon and acceptance_ratio must be finite")
        if times and meta.horizon < times[-1]:
            raise ValueError(
                f"metadata horizon {meta.horizon!r} precedes the last event time {times[-1]!r}"
            )
    return EventLog(times=tuple(times), marks=tuple(marks), meta=meta)


# ---------------------------------------------------------------------------
# simulation


def _check_horizon(horizon) -> float:
    try:
        h = float(horizon)
    except (TypeError, ValueError):
        raise HorizonNonPositive(f"horizon must be a number, got {horizon!r}")
    if not (math.isfinite(h) and h > 0):
        raise HorizonNonPositive(f"horizon must be finite and > 0, got {h!r}")
    return h


def _require_admissible(spec: Spec, override: bool) -> None:
    report = validate(spec)
    if not report.admissible:
        hard = {"DegenerateEigenvalues", "RootFindingFailure"}
        if hard & set(report.flags):
            # not simulable at all: the spectral machinery itself is unavailable
            dynamics(spec)  # re-raises the underlying spectral error
        if not override:
            raise NonStationarySpec(
                f"spec failed validation ({', '.join(report.flags)}); "
                "pass override to simulate anyway"
            )
    # Not overridable: with a non-negative decay rate the envelope grows
    # between events, so a constant proposal rate taken at the current time
    # would no longer dominate and thinning would be biased.
    if dynamics(spec).decay >= 0:
        raise NonStationarySpec(
            "decay rate >= 0: envelope-based thinning requires every "
            "autoregressive root to have negative real part"
        )


def _finish_log(times, marks, stream, horizon, proposed, squeezed, spec, t_start) -> EventLog:
    accepted = len(times)
    meta = SimulationMeta(
        seed=getattr(stream, "seed", None),
        horizon=horizon,
        proposed=proposed,
        accepted=accepted,
        acceptance_ratio=accepted / proposed if proposed else 0.0,
        wall_time_seconds=time.perf_counter() - t_start,
        spec_hash=spec_hash(spec),
        squeezed=squeezed,
    )
    return EventLog(times=tuple(times), marks=tuple(marks), meta=meta)


def _certify_envelope(w_total, jumps, k_consts) -> None:
    """Refuse envelope jumps that do not dominate the intensity for all t.

    By the triangle inequality, sum_j |W_j| |J_mj| <= K_m for every mark m
    bounds lam(t) - base by the decayed sum of K over past events, which is
    lam_bar(t) - base, at every t: squeezed candidates, whose intensity is
    never computed, are covered by this check rather than the per-candidate
    one.
    """
    for m, (jump, k) in enumerate(zip(jumps, k_consts), start=1):
        reach = sum(abs(w) * abs(j) for w, j in zip(w_total, jump))
        if not reach <= k * (1.0 + _BOUND_RTOL):
            raise BoundViolation(
                f"envelope jump K_{m} = {k} is below the intensity's reach {reach}"
            )


def _thin(spec: Spec, horizon, rng, override_validation: bool) -> EventLog:
    """The thinning loop for any number of components, driven by Dynamics.

    The first arrival, the routing rule and the squeeze pretest are set out
    in the module docstring.
    """
    horizon = _check_horizon(horizon)
    _require_admissible(spec, override_validation)
    stream = as_uniform_stream(rng)
    dyn = dynamics(spec)
    t_start = time.perf_counter()

    draw = stream.draw
    base = dyn.base
    lams = dyn.lams
    jumps = dyn.jumps
    k_consts = dyn.bound_jumps
    decay = dyn.decay
    # the envelope bounds the summed intensity, whose modal weights are the
    # column sums of the per-component weights
    w_total = [sum(col) for col in zip(*dyn.weights)]
    _certify_envelope(w_total, jumps, k_consts)
    # the squeeze's a_j = max_c |W^(c)_j| over the running-sum rows and its
    # constant (module docstring), each with its rounding margin
    rows = itertools.accumulate(dyn.weights, lambda acc, w: list(map(add, acc, w)))
    squeeze_w = [max(map(abs, col)) * _SQUEEZE_MARGIN for col in zip(*rows)]
    squeeze_base = base * _SQUEEZE_MARGIN
    last_mark = len(dyn.mus)
    # every component but the last is routed by the running sum of the
    # intensities up to it; the last is tested against the total
    routed = list(zip(range(1, last_mark), dyn.mus, dyn.weights))
    mexp = math.exp
    cexp = cmath.exp
    mlog = math.log

    times: list[float] = []
    marks: list[int] = []
    proposed = last_mark
    squeezed = 0
    firsts = [-mlog(draw()) / mu_c for mu_c in dyn.mus]
    t = min(firsts)
    if t > horizon:
        return _finish_log(times, marks, stream, horizon, proposed, squeezed, spec, t_start)

    mark = firsts.index(t) + 1
    z = list(jumps[mark - 1])
    s = sum(map(mul, squeeze_w, map(abs, z)))
    excess = k_consts[mark - 1]
    t_last = t
    times.append(t)
    marks.append(mark)
    lam_bar = base + excess
    while True:
        proposed += 1
        t += -mlog(draw()) / lam_bar
        if t > horizon:
            break
        # D times the rate this candidate was drawn at
        threshold = draw() * lam_bar
        dt = t - t_last
        bexp = mexp(decay * dt)
        # the envelope here, and the next proposal rate if this candidate
        # is rejected
        lam_bar = base + excess * bexp
        if threshold > squeeze_base + s * bexp:
            squeezed += 1
            continue
        # one pass propagates the modes and sums the total intensity
        zz = []
        lam = base
        for zj, lj, wj in zip(z, lams, w_total):
            zj *= cexp(lj * dt)
            zz.append(zj)
            lam += (wj * zj).real
        # absolute slack plus a small relative term: overridden (explosive)
        # runs compound rounding drift at large scales, while any genuine
        # constant bug overshoots at the kernel scale itself
        if lam > lam_bar + _BOUND_SLACK + _BOUND_RTOL * lam_bar:
            raise BoundViolation(
                f"intensity {lam} exceeded envelope {lam_bar} at t={t}"
            )
        cum = 0.0
        for mark, mu_c, w in routed:
            cum += mu_c
            for x in map(mul, w, zz):
                cum += x.real
            if threshold <= cum:
                break
        else:
            if threshold > lam:
                continue
            mark = last_mark
        z = list(map(add, zz, jumps[mark - 1]))
        s = sum(map(mul, squeeze_w, map(abs, z)))
        excess = excess * bexp + k_consts[mark - 1]
        lam_bar = base + excess
        t_last = t
        times.append(t)
        marks.append(mark)
    return _finish_log(times, marks, stream, horizon, proposed, squeezed, spec, t_start)


def simulate_univariate(
    spec: UnivariateSpec,
    horizon: float,
    rng=None,
    override_validation: bool = False,
) -> EventLog:
    """Simulate the univariate model on [0, horizon] by thinning.

    The first arrival is exponential at the baseline rate (the envelope and
    the intensity coincide before any event, so it is accepted outright).
    Each later candidate advances time by an exponential waiting time at the
    current envelope value and is accepted iff D * lam_bar <= lam(t).  The
    envelope is checked against the intensity at every candidate; a breach
    raises BoundViolation.
    """
    if not isinstance(spec, UnivariateSpec):
        raise TypeError("simulate_univariate needs a UnivariateSpec")
    return _thin(spec, horizon, rng, override_validation)


def simulate_bivariate(
    spec: BivariateSpec,
    horizon: float,
    rng=None,
    override_validation: bool = False,
) -> EventLog:
    """Simulate the bivariate model on [0, horizon] by thinning.

    The first arrival is the minimum of two exponential candidates at the
    two baselines (component 1 wins a tie).  Afterwards a single candidate
    stream at the summed-intensity envelope is routed: accept as component 1
    if D * lam_bar <= lam1, as component 2 if lam1 < D * lam_bar <= lam1 +
    lam2, otherwise reject.
    """
    if not isinstance(spec, BivariateSpec):
        raise TypeError("simulate_bivariate needs a BivariateSpec")
    return _thin(spec, horizon, rng, override_validation)


def simulate(spec: Spec, horizon: float, rng=None, override_validation: bool = False) -> EventLog:
    """Simulate a univariate or bivariate model on [0, horizon] by thinning."""
    if not isinstance(spec, (UnivariateSpec, BivariateSpec)):
        raise TypeError("simulate needs a UnivariateSpec or a BivariateSpec")
    return _thin(spec, horizon, rng, override_validation)
