"""Shared fixtures' guts: reference parameter sets, random spec generators,
and small helpers used across the test modules."""

import cmath
import math
from operator import add, mul

import numpy as np

from carma_hawkes import (
    BivariateSpec,
    BoundViolation,
    EventLog,
    SimulationMeta,
    UniformStream,
    UnivariateSpec,
    apply_event,
    compensator_increment,
    dynamics,
    initial_state,
    spec_hash,
)

# The three univariate demo parameter sets (orders 1, 2, 3).
A31 = (1.3, 0.34 + math.pi**2 / 4, 0.025 + 0.025 * math.pi**2)


def hawkes_spec() -> UnivariateSpec:
    return UnivariateSpec(mu=0.3, a=(3.0,), b=(1.0,))


def carma21_spec() -> UnivariateSpec:
    return UnivariateSpec(mu=0.3, a=(3.0, 2.0), b=(1.0, 0.3))


def carma31_spec() -> UnivariateSpec:
    return UnivariateSpec(mu=0.3, a=A31, b=(0.2, 0.3))


def biv_independent() -> BivariateSpec:
    # two exponential components, no cross-excitation
    return BivariateSpec(
        mu=(0.3, 0.3), a1=(3.0,), a2=(2.0,),
        b11=(1.0,), b12=(0.0,), b21=(0.0,), b22=(1.0,),
    )


def biv_cross() -> BivariateSpec:
    # order (2,1) with both cross-excitation channels active
    return BivariateSpec(
        mu=(0.3, 0.3), a1=(3.0, 2.0), a2=(4.0,),
        b11=(1.0, 0.7), b12=(1.0,), b21=(1.0,), b22=(0.3,),
    )


def biv_lagged() -> BivariateSpec:
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


def random_univariate_spec(rng: np.random.Generator, p_max: int = 5) -> UnivariateSpec:
    p = int(rng.integers(1, p_max + 1))
    a = poly_from_roots(random_stable_roots(rng, p))
    q = int(rng.integers(0, p))
    b = rng.uniform(-1.0, 1.0, size=q + 1)
    b[0] = rng.uniform(0.1, 1.0)
    target = rng.uniform(0.1, 0.85)
    b *= target * a[-1] / b[0]
    return UnivariateSpec(mu=float(rng.uniform(0.1, 1.0)), a=a, b=tuple(b))


def random_bivariate_spec(rng: np.random.Generator, p_max: int = 3) -> BivariateSpec:
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


# ---------------------------------------------------------------------------
# synthetic logs


def make_log(times, marks=None, horizon=None, spec=None) -> EventLog:
    times = tuple(float(t) for t in times)
    if marks is None:
        marks = (1,) * len(times)
    meta = SimulationMeta(
        seed=None,
        horizon=float(horizon) if horizon is not None else (times[-1] if times else 0.0),
        proposed=len(times),
        accepted=len(times),
        acceptance_ratio=1.0 if times else 0.0,
        wall_time_seconds=0.0,
        spec_hash=spec_hash(spec) if spec is not None else None,
    )
    return EventLog(times=times, marks=tuple(marks), meta=meta)


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
