"""Shared fixtures' guts: reference parameter sets, random spec generators,
and small helpers used across the test modules."""

import cmath
import dataclasses
import math
from operator import add, mul
from pathlib import Path

import numpy as np

from carma_hawkes import (
    BivariateSpec,
    BoundViolation,
    EventLog,
    SimulationMeta,
    Spec,
    UniformStream,
    UnivariateSpec,
    dynamics,
    kolmogorov_survival,
    spec_hash,
)
from carma_hawkes.model import modal_scan, mode_groups, mode_sum
from oracles import (
    apply_event,
    bound_after_event,
    bound_value,
    compensator_increment,
    initial_bound,
    initial_state,
    intensity_at,
)

class ScriptedUniforms:
    """Fixed uniform sequence for hand-traced tests, from any iterable of
    values in (0, 1), taken once.  Like any stream passed to simulate as
    rng, it has no seed: the run's meta.seed is None."""

    def __init__(self, values):
        # taken once, so an iterator is not used up by the check
        self._values = list(values)
        for v in self._values:
            if not 0.0 < v < 1.0:
                raise ValueError("scripted uniforms must lie strictly in (0, 1)")
        self._pos = 0

    def draw(self) -> float:
        if self._pos >= len(self._values):
            raise RuntimeError("scripted uniform sequence exhausted")
        v = self._values[self._pos]
        self._pos += 1
        return v


# The bundled model files.
MODELS = Path(__file__).resolve().parents[1] / "models"

# The three univariate demo parameter sets (orders 1, 2, 3).
A31 = (1.3, 0.34 + math.pi**2 / 4, 0.025 + 0.025 * math.pi**2)


def hawkes_spec() -> Spec:
    return UnivariateSpec(mu=0.3, a=(3.0,), b=(1.0,))


def carma21_spec() -> Spec:
    return UnivariateSpec(mu=0.3, a=(3.0, 2.0), b=(1.0, 0.3))


def carma31_spec() -> Spec:
    return UnivariateSpec(mu=0.3, a=A31, b=(0.2, 0.3))


def biv_independent() -> Spec:
    # two exponential components, no cross-excitation
    return BivariateSpec(
        mu=(0.3, 0.3), a1=(3.0,), a2=(2.0,),
        b11=(1.0,), b12=(0.0,), b21=(0.0,), b22=(1.0,),
    )


def biv_cross() -> Spec:
    # order (2,1) with both cross-excitation channels active
    return BivariateSpec(
        mu=(0.3, 0.3), a1=(3.0, 2.0), a2=(4.0,),
        b11=(1.0, 0.7), b12=(1.0,), b21=(1.0,), b22=(0.3,),
    )


def biv_lagged() -> Spec:
    # order (1,2); the lagged channels (leading MA coefficient zero) dip
    # negative, so this one only simulates with the validation override
    return BivariateSpec(
        mu=(0.3, 0.3), a1=(1.0,), a2=(4.0, 2.0),
        b11=(0.5,), b12=(0.0, 0.8), b21=(0.0,), b22=(0.0, 1.0),
    )


def univariate_sets():
    return [hawkes_spec(), carma21_spec(), carma31_spec()]


def bivariate_sets():
    return [biv_independent(), biv_cross(), biv_lagged()]


def all_sets():
    return univariate_sets() + bivariate_sets()


def needs_override(spec) -> bool:
    from carma_hawkes import validate

    return not validate(spec).admissible


# ---------------------------------------------------------------------------
# random spec generation


def random_stable_roots(rng: np.random.Generator, p: int, min_sep: float = 0.2):
    """Distinct roots with real parts in [-3, -0.3], conjugate-closed."""
    n_pairs = int(rng.integers(0, p // 2 + 1))
    n_real = p - 2 * n_pairs
    roots: list[complex] = []
    attempts = 0
    while len(roots) < n_real:
        cand = complex(rng.uniform(-3.0, -0.3), 0.0)
        if all(abs(cand - r) >= min_sep for r in roots):
            roots.append(cand)
        attempts += 1
        if attempts > 500:
            raise RuntimeError("failed to place distinct real roots")
    pairs: list[complex] = []
    while len(pairs) < n_pairs:
        cand = complex(rng.uniform(-3.0, -0.3), rng.uniform(0.35, 2.0))
        if all(abs(cand - r) >= min_sep for r in pairs + roots):
            pairs.append(cand)
        attempts += 1
        if attempts > 1000:
            raise RuntimeError("failed to place distinct complex roots")
    for z in pairs:
        roots.extend([z, z.conjugate()])
    return roots


def poly_from_roots(roots) -> tuple[float, ...]:
    coeffs = np.poly(np.array(roots))
    return tuple(float(c) for c in coeffs.real[1:])


def random_univariate_spec(rng: np.random.Generator, p_max: int = 5) -> Spec:
    p = int(rng.integers(1, p_max + 1))
    a = poly_from_roots(random_stable_roots(rng, p))
    q = int(rng.integers(0, p))
    b = rng.uniform(-1.0, 1.0, size=q + 1)
    b[0] = rng.uniform(0.1, 1.0)
    target = rng.uniform(0.1, 0.85)
    b *= target * a[-1] / b[0]
    return UnivariateSpec(mu=float(rng.uniform(0.1, 1.0)), a=a, b=tuple(b))


def random_bivariate_spec(rng: np.random.Generator, p_max: int = 3) -> Spec:
    p1 = int(rng.integers(1, p_max + 1))
    p2 = int(rng.integers(1, p_max + 1))
    a1 = poly_from_roots(random_stable_roots(rng, p1))
    a2 = poly_from_roots(random_stable_roots(rng, p2))

    def ma(p, lead_positive):
        q = int(rng.integers(0, p))
        v = rng.uniform(-0.5, 0.5, size=q + 1)
        if lead_positive:
            v[0] = rng.uniform(0.1, 1.0)
        return v

    b11, b12, b21, b22 = ma(p1, True), ma(p2, False), ma(p1, False), ma(p2, True)
    k = np.array(
        [
            [b11[0] / a1[-1], b12[0] / a2[-1]],
            [b21[0] / a1[-1], b22[0] / a2[-1]],
        ]
    )
    rho = max(abs(np.linalg.eigvals(k)))
    if rho >= 0.85:
        scale = 0.8 / rho
        b11, b12, b21, b22 = (v * scale for v in (b11, b12, b21, b22))
    return BivariateSpec(
        mu=(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))),
        a1=a1, a2=a2,
        b11=tuple(b11), b12=tuple(b12), b21=tuple(b21), b22=tuple(b22),
    )


def random_spec(rng: np.random.Generator, d: int, p_max: int = 3) -> Spec:
    """A d-component spec of stable AR blocks and MA vectors of random
    supplied lengths, the diagonal ones with a positive lead; not
    necessarily admissible."""
    ar = [poly_from_roots(random_stable_roots(rng, int(rng.integers(1, p_max + 1)))) for _ in range(d)]

    def ma(c, m):
        v = rng.uniform(-0.5, 0.5, size=int(rng.integers(1, len(ar[m]) + 1)))
        if c == m:
            v[0] = rng.uniform(0.1, 1.0)
        return tuple(v)

    return Spec(
        mu=tuple(rng.uniform(0.1, 1.0, size=d)),
        ar=tuple(ar),
        ma=tuple(tuple(ma(c, m) for m in range(d)) for c in range(d)),
    )


def diagonal_spec(parts) -> Spec:
    """One-component specs side by side as one spec: part c's AR block and MA
    vector on the diagonal, every cross-excitation MA vector zero."""
    return Spec(
        mu=tuple(u.mu[0] for u in parts),
        ar=tuple(u.ar[0] for u in parts),
        ma=tuple(
            tuple(u.ma[0][0] if m == c else (0.0,) for m in range(len(parts)))
            for c, u in enumerate(parts)
        ),
    )


def bent_pair(dyn):
    """dyn with the weight of its first conjugate pair's second mode moved up
    by one ulp in its real part, so the pair is no longer exact."""
    j = next(j for j, lam in enumerate(dyn.lams) if lam.imag != 0)
    w = dyn.weights[0]
    bent = complex(math.nextafter(w[j + 1].real, math.inf), w[j + 1].imag)
    assert bent != w[j].conjugate()
    weights = (w[: j + 1] + (bent,) + w[j + 2:],) + dyn.weights[1:]
    return dataclasses.replace(dyn, weights=weights)


# ---------------------------------------------------------------------------
# synthetic logs


def make_meta(times, horizon=None, spec=None) -> SimulationMeta:
    """The meta of a log of these times, every one accepted: by default
    its horizon is the last time, as read_events_csv gives a file without a
    sidecar.  A meta's horizon is finite: a last time that is not is left
    for EventLog to refuse, as the reader leaves it."""
    times = [float(t) for t in times]
    if horizon is None:
        horizon = times[-1] if times and math.isfinite(times[-1]) else 0.0
    return SimulationMeta(
        seed=None,
        horizon=float(horizon),
        proposed=len(times),
        accepted=len(times),
        acceptance_ratio=1.0 if times else 0.0,
        wall_time_seconds=0.0,
        spec_hash=spec_hash(spec) if spec is not None else None,
    )


def make_log(times, marks=None, horizon=None, spec=None) -> EventLog:
    times = tuple(float(t) for t in times)
    if marks is None:
        marks = (1,) * len(times)
    return EventLog(times=times, marks=tuple(marks), meta=make_meta(times, horizon, spec))


# ---------------------------------------------------------------------------
# scalar residual oracle


def residual_transform_scalar(spec, log, component=1):
    """Per-event reference for diagnostics.residual_transform.

    Walks the log one event at a time with the model's closed-form
    compensator_increment and apply_event; the vectorised scan must agree
    with it.  Returns (taus, sizes): the residuals, and for each one the sum
    of the absolute values of the terms it adds up (mu_c dt and each mode's
    contribution over each gap).  Rounding acts on that scale, so it bounds
    what any floating-point evaluation of a residual can be trusted to.
    """
    dyn = dynamics(spec)
    mu = dyn.mus[component - 1]
    weights = dyn.weights[component - 1]
    n_comp = spec.n_components
    state = initial_state(spec)
    acc = size = 0.0
    taus = []
    sizes = []
    t_prev = 0.0
    for t, mark in zip(log.times, log.marks):
        inc = compensator_increment(spec, state, t_prev, t)
        acc += inc if n_comp == 1 else inc[component - 1]
        dt = t - t_prev
        size += mu * dt + sum(
            abs(w * z * (cmath.exp(lam * dt) - 1.0) / lam)
            for w, z, lam in zip(weights, state.modes, dyn.lams)
        )
        state = apply_event(spec, state, t, mark)
        if mark == component:
            taus.append(acc)
            sizes.append(size)
            acc = size = 0.0
        t_prev = t
    return tuple(taus), tuple(sizes)


def residual_transform_numpy(spec, log, component=1):
    """Exact reference for diagnostics.residual_transform: one component's
    residuals from a modal_scan per mode group of its own.  The scan that
    residual_transform shares between components forms the same products
    and sums in the same order, so it must agree bit for bit.  Returns the
    taus as a tuple."""
    dyn = dynamics(spec)
    times, marks = log.arrays
    gaps = np.diff(times, prepend=0.0)
    incs = dyn.mus[component - 1] * gaps
    for group in mode_groups(dyn):
        coef = group.weights[component - 1] / group.lams
        for start, stop, states in modal_scan(group.lams, group.jumps, times, marks):
            grown = np.expm1(np.outer(gaps[start:stop], group.lams))
            incs[start:stop] += mode_sum(states[:-1] * grown, coef)
    own = np.flatnonzero(marks == component)
    if not len(own):
        return ()
    starts = np.concatenate(([0], own[:-1] + 1))
    return tuple(np.add.reduceat(incs[: own[-1] + 1], starts).tolist())


# ---------------------------------------------------------------------------
# sampled-path oracles


def intensity_path_fold(spec, log, times):
    """Per-event reference for intensity_path: folds apply_event over the
    events strictly before each sorted sample time, then intensity_at.

    Returns (values, sizes), shaped as intensity_path's result.  A size is
    mu_c + sum_j |w_cj z_j(t)|, the scale that rounding acts on: when the
    modal terms cancel (an ill-conditioned modal basis) it exceeds the
    value, and neither evaluation can be trusted beyond it.
    """
    dyn = dynamics(spec)
    state = initial_state(spec)
    out = []
    sizes = []
    idx = 0
    for t in times:
        while idx < len(log.times) and log.times[idx] < t:
            state = apply_event(spec, state, log.times[idx], log.marks[idx])
            idx += 1
        val = intensity_at(spec, state, float(t))
        out.append(val if spec.n_components > 1 else (val,))
        dt = float(t) - state.last_event_time
        sizes.append([
            mu + sum(abs(w * z * cmath.exp(lam * dt)) for w, z, lam in zip(row, state.modes, dyn.lams))
            for mu, row in zip(dyn.mus, dyn.weights)
        ])
    shape = (len(times), spec.n_components)
    out, sizes = (np.array(v, dtype=float).reshape(shape) for v in (out, sizes))
    return (out[:, 0], sizes[:, 0]) if spec.n_components == 1 else (out, sizes)


def bound_path_fold(spec, log, times):
    """Per-event reference for bound_path: folds bound_after_event over the
    events strictly before each sorted sample time, then bound_value."""
    tracker = initial_bound(spec)
    out = []
    idx = 0
    for t in times:
        while idx < len(log.times) and log.times[idx] < t:
            tracker = bound_after_event(tracker, log.times[idx], log.marks[idx])
            idx += 1
        out.append(bound_value(tracker, float(t)))
    return np.array(out, dtype=float)


# ---------------------------------------------------------------------------
# KS oracle


def ks_exp1_scalar(taus):
    """Per-point reference for diagnostics.ks_exp1: (statistic, p_value).

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) with F(x) = -expm1(-x),
    one sorted point at a time; the vectorised form must agree exactly.
    Below about -709.78, where math.expm1 overflows, F is -inf, as at -inf.
    """
    xs = sorted(taus)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs, start=1):
        try:
            f = -math.expm1(-x)
        except OverflowError:
            f = -math.inf
        d = max(d, i / n - f, f - (i - 1) / n)
    return d, kolmogorov_survival(math.sqrt(n) * d)


# ---------------------------------------------------------------------------
# thinning oracle


def thin_reference(spec, horizon, rng, max_events=None):
    """Reference thinning loop: every candidate propagates the modes and is
    routed by the running sums, with no squeeze pretest.

    rng is an int seed or an object with .draw().  Returns (times, marks,
    proposed), or None once more than max_events events are accepted (some
    forced kernel-negative specs explode).  simulate must agree exactly.
    """
    dyn = dynamics(spec)
    draw = (UniformStream(rng) if isinstance(rng, int) else rng).draw
    base = dyn.base
    lams = dyn.lams
    jumps = dyn.jumps
    k_consts = dyn.bound_jumps
    decay = dyn.decay
    w_total = [sum(col) for col in zip(*dyn.weights)]
    last_mark = len(dyn.mus)
    routed = list(zip(range(1, last_mark), dyn.mus, dyn.weights))

    times = []
    marks = []
    proposed = last_mark
    firsts = [-math.log(draw()) / mu_c for mu_c in dyn.mus]
    t = min(firsts)
    if t > horizon:
        return tuple(times), tuple(marks), proposed
    mark = firsts.index(t) + 1
    z = list(jumps[mark - 1])
    excess = k_consts[mark - 1]
    t_last = t
    times.append(t)
    marks.append(mark)
    lam_bar = base + excess
    while True:
        proposed += 1
        t += -math.log(draw()) / lam_bar
        if t > horizon:
            break
        threshold = draw() * lam_bar
        dt = t - t_last
        zz = []
        lam = base
        for zj, lj, wj in zip(z, lams, w_total):
            zj *= cmath.exp(lj * dt)
            zz.append(zj)
            lam += (wj * zj).real
        bexp = math.exp(decay * dt)
        lam_bar = base + excess * bexp
        if lam > lam_bar + 1e-9 + 1e-10 * lam_bar:
            raise BoundViolation(f"intensity {lam} exceeded envelope {lam_bar} at t={t}")
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
        excess = excess * bexp + k_consts[mark - 1]
        lam_bar = base + excess
        t_last = t
        times.append(t)
        marks.append(mark)
        if max_events is not None and len(times) > max_events:
            return None
    return tuple(times), tuple(marks), proposed
