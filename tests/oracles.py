"""Per-event oracles: the model's state, intensity, compensator and envelope
advanced one event at a time, in plain Python over complex modes, and the
matrix exponential's action through a direct Vandermonde solve.

Nothing in the simulator or the diagnostics calls these.  The thinning
kernel (thinning._kernel) and the blocked modal scan (model.modal_scan) do
the same arithmetic over whole logs; the functions here state it once per
event, so that tests and the acceptance gate can check those fast paths
against a direct fold, and hand traces against closed forms.  They read the
same Dynamics, and the same guards, as every routine in the package.

* ProcessState, initial_state, apply_event, state_vector -- the modal state
  just after an event, and the physical state vector it stands for
* intensity_at, compensator_increment -- the conditional intensity at a
  time, and its integral over an event-free interval, in closed form
* BoundTracker, initial_bound, bound_value, bound_after_event -- the
  dominating envelope that thinning samples against, anchored at an event
* exp_action -- exp(A dt) v for one companion matrix A
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from carma_hawkes.errors import CarmaHawkesError, NumericalOverflow
from carma_hawkes.model import (
    KERNEL_NEG_TOL,
    Spec,
    _by_block,
    _guard_exponent,
    check_nonzero_roots,
    dynamics,
    validate,
)
from carma_hawkes.spectral import _EXP_OVERFLOW, SpectralData, vandermonde

_INTENSITY_SLACK = 1e-9


class NegativeIntensity(CarmaHawkesError):
    """Intensity fell below the baseline for a spec whose kernels validated as
    non-negative.  Indicates an internal consistency failure."""


# ---------------------------------------------------------------------------
# matrix-exponential action


def exp_action(s: SpectralData, v: Sequence[complex], dt: float):
    """exp(A dt) v through the eigendecomposition; exact in dt.

    The coefficients of v in the eigenbasis come from a direct solve of the
    Vandermonde system (the explicit inverse is never formed).  For real
    input the imaginary residue of the result is discarded.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    vec = np.asarray(v)
    if vec.shape != (s.p,):
        raise ValueError(f"expected vector of length {s.p}, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("input vector must be finite")
    real_input = not np.iscomplexobj(vec)
    if dt == 0.0:
        return vec.astype(float).copy() if real_input else vec.astype(complex).copy()
    if s.decay * dt > _EXP_OVERFLOW:
        raise NumericalOverflow(
            f"exp({s.decay:.6g} * {dt:.6g}) overflows a double"
        )
    mat = vandermonde(s)
    y = np.linalg.solve(mat, vec.astype(complex))
    lams = np.array(s.eigenvalues)
    out = mat @ (np.exp(lams * dt) * y)
    return out.real if real_input else out


# ---------------------------------------------------------------------------
# state evolution


@dataclass(frozen=True)
class ProcessState:
    """Excitation state at (and including the jump of) the last event.

    `modes` are the complex coordinates of the state vector in the
    eigenbasis; the physical vector is recovered with state_vector().
    """

    modes: tuple[complex, ...]
    t: float
    last_event_time: float


def initial_state(spec: Spec) -> ProcessState:
    n = sum(dynamics(spec).block_sizes)
    return ProcessState(modes=(0j,) * n, t=0.0, last_event_time=0.0)


def state_vector(spec: Spec, state: ProcessState) -> np.ndarray:
    """Physical state vector x (length p1 + ... + pd) from modal coordinates."""
    dyn = dynamics(spec)
    out = []
    for lams, z in zip(_by_block(dyn, dyn.lams), _by_block(dyn, state.modes)):
        mat = np.vander(np.array(lams), N=len(lams), increasing=True).T
        out.append((mat @ np.array(z)).real)
    return np.concatenate(out)


def apply_event(spec: Spec, state: ProcessState, t: float, mark: int = 1) -> ProcessState:
    """Propagate the state to time t and add the jump of the given mark."""
    dyn = dynamics(spec)
    if not 1 <= mark <= len(dyn.jumps):
        raise ValueError(f"mark must be in 1..{len(dyn.jumps)}")
    dt = t - state.last_event_time
    if dt < 0:
        raise ValueError("event time precedes the state's last event")
    _guard_exponent(dyn.decay, dt)
    jump = dyn.jumps[mark - 1]
    modes = tuple(
        z * cmath.exp(lam * dt) + dz
        for z, lam, dz in zip(state.modes, dyn.lams, jump)
    )
    return ProcessState(modes=modes, t=t, last_event_time=t)


def intensity_at(spec: Spec, state: ProcessState, t: float):
    """Conditional intensity at time t >= the state's last event time.

    Returns a float for a one-component spec, a tuple (lam1, ..., lamd) for
    a d-component one.  For specs whose kernels validated as non-negative, a
    result below baseline - 1e-9 raises NegativeIntensity (internal
    consistency check).
    """
    dyn = dynamics(spec)
    dt = t - state.last_event_time
    if dt < 0:
        raise ValueError("intensity requested before the state's last event")
    _guard_exponent(dyn.decay, dt)
    ez = [z * cmath.exp(lam * dt) for z, lam in zip(state.modes, dyn.lams)]
    vals = []
    for mu_c, w in zip(dyn.mus, dyn.weights):
        lam_c = mu_c + sum((wj * zj).real for wj, zj in zip(w, ez))
        if lam_c < mu_c - _INTENSITY_SLACK and _kernels_nonnegative(spec):
            raise NegativeIntensity(
                f"intensity {lam_c} below baseline {mu_c} for a validated spec"
            )
        vals.append(lam_c)
    return vals[0] if len(vals) == 1 else tuple(vals)


def compensator_increment(spec: Spec, state: ProcessState, t0: float, t1: float):
    """Integral of the intensity over (t0, t1), closed form, no events inside.

    Returns a float for a one-component spec, a d-tuple for a d-component one.
    """
    dyn = dynamics(spec)
    te = state.last_event_time
    if t0 < te - 1e-12:
        raise ValueError("interval starts before the state's last event")
    if t1 < t0:
        raise ValueError("interval must satisfy t1 >= t0")
    check_nonzero_roots(dyn)
    d0 = max(t0 - te, 0.0)
    d1 = max(t1 - te, 0.0)
    _guard_exponent(dyn.decay, d1)
    diff = [
        z * cmath.exp(lam * d0) * _cexpm1(lam * (d1 - d0)) / lam
        for z, lam in zip(state.modes, dyn.lams)
    ]
    vals = []
    for mu_c, w in zip(dyn.mus, dyn.weights):
        inc = mu_c * (t1 - t0) + sum((wj * dj).real for wj, dj in zip(w, diff))
        vals.append(inc)
    return vals[0] if len(vals) == 1 else tuple(vals)


def _cexpm1(w: complex) -> complex:
    """exp(w) - 1 without the cancellation of the direct form at small |w|."""
    half_sin = math.sin(0.5 * w.imag)
    return complex(
        math.expm1(w.real) * math.cos(w.imag) - 2.0 * half_sin * half_sin,
        math.exp(w.real) * math.sin(w.imag),
    )


def _kernels_nonnegative(spec: Spec) -> bool:
    report = validate(spec)
    return report.kernel_min is not None and report.kernel_min >= KERNEL_NEG_TOL


# ---------------------------------------------------------------------------
# dominating envelope


@dataclass(frozen=True)
class BoundTracker:
    """State of the dominating envelope at its most recent anchor.

    jump_size_for_mark holds one K per event mark (a single entry for a
    one-component model).  lambda_bar is the envelope value at anchor_time,
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
    _guard_exponent(tracker.decay, dt)
    return (tracker.lambda_bar - tracker.base) * math.exp(tracker.decay * dt)


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
