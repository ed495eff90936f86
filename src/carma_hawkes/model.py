"""Model specifications, admissibility checks, and exact state evolution.

A univariate model has intensity lam_t = mu + b^T X_t where X solves
dX = A X dt + e dN with X_0 = 0; its excitation kernel is
h(t) = b^T exp(A t) e.  The bivariate model stacks two such state blocks,
driven separately by the two counting components, with a 2 x (p1+p2)
coefficient matrix mapping the joint state to the two intensities.

All evolution here happens in the eigenbasis of the (block) companion
matrix: the state is carried as complex modal coordinates z with
z_j(t) = exp(lam_j dt) z_j(t0) between events and z_j += 1/a'(lam_j) at an
event of the block's driving component.  Intensities, kernels and
compensators are then closed-form sums over modes, with no quadrature and
no time discretisation anywhere.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import spectral
from .errors import (
    DegenerateEigenvalues,
    NegativeIntensity,
    NumericalOverflow,
    RootFindingFailure,
)

# Kernel values above this (negative) threshold count as non-negative.
KERNEL_NEG_TOL = -1e-12
# Kernel non-negativity grid: log-spaced points on [0, span/|decay|].
KERNEL_GRID_POINTS = 4000
KERNEL_GRID_SPAN = 20.0

_INTENSITY_SLACK = 1e-9

# Entries kept by each of the spec caches behind dynamics, _spectral_of and
# validate.  Unbounded, they grow by a few kB per distinct spec for the life
# of the process; a run touches a handful of specs, a sweep many thousands.
CACHE_MAXSIZE = 512


def _finite_tuple(vals, name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in vals)
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{name} must contain only finite values")
    return out


def _checked_ma(b, p: int, name: str, positive_lead: bool) -> tuple[tuple[float, ...], int]:
    """Validate a supplied MA coefficient vector and zero-pad it to length p."""
    supplied = _finite_tuple(b, name)
    if not 1 <= len(supplied) <= p:
        raise ValueError(f"{name} must have between 1 and {p} entries")
    q = len(supplied) - 1
    if positive_lead and any(v != 0.0 for v in supplied) and supplied[0] <= 0.0:
        raise ValueError(
            f"{name}[0] must be > 0 unless the whole vector is zero"
        )
    return supplied + (0.0,) * (p - len(supplied)), q


@dataclass(frozen=True)
class UnivariateSpec:
    """Self-exciting model of order (p, q): baseline mu, AR coefficients
    a = (a1, ..., ap), MA coefficients supplied as (b0, ..., bq) and
    zero-padded to length p.  Requires mu > 0, q < p, and b0 > 0 (an
    all-zero b is allowed as the degenerate Poisson case)."""

    mu: float
    a: tuple[float, ...]
    b: tuple[float, ...]
    q: int = field(init=False)

    def __post_init__(self):
        mu = float(self.mu)
        if not (math.isfinite(mu) and mu > 0):
            raise ValueError("baseline mu must be finite and > 0")
        a = _finite_tuple(self.a, "a")
        if len(a) < 1:
            raise ValueError("need at least one AR coefficient")
        b, q = _checked_ma(self.b, len(a), "b", positive_lead=True)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def n_components(self) -> int:
        return 1


@dataclass(frozen=True)
class BivariateSpec:
    """Two mutually exciting components with per-block orders p = (p1, p2).

    b11/b21 act on the first state block (length p1, driven by component 1),
    b12/b22 on the second (length p2, driven by component 2); each is
    supplied as its leading coefficients and zero-padded.  The derived q
    records the supplied MA orders as (q1, q12, q21, q2).
    """

    mu: tuple[float, float]
    a1: tuple[float, ...]
    a2: tuple[float, ...]
    b11: tuple[float, ...]
    b12: tuple[float, ...]
    b21: tuple[float, ...]
    b22: tuple[float, ...]
    q: tuple[int, int, int, int] = field(init=False)

    def __post_init__(self):
        mu = _finite_tuple(self.mu, "mu")
        if len(mu) != 2 or any(v <= 0 for v in mu):
            raise ValueError("mu must be two finite positive baselines")
        a1 = _finite_tuple(self.a1, "a1")
        a2 = _finite_tuple(self.a2, "a2")
        if len(a1) < 1 or len(a2) < 1:
            raise ValueError("each block needs at least one AR coefficient")
        p1, p2 = len(a1), len(a2)
        b11, q1 = _checked_ma(self.b11, p1, "b11", positive_lead=False)
        b12, q12 = _checked_ma(self.b12, p2, "b12", positive_lead=False)
        b21, q21 = _checked_ma(self.b21, p1, "b21", positive_lead=False)
        b22, q2 = _checked_ma(self.b22, p2, "b22", positive_lead=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "b11", b11)
        object.__setattr__(self, "b12", b12)
        object.__setattr__(self, "b21", b21)
        object.__setattr__(self, "b22", b22)
        object.__setattr__(self, "q", (q1, q12, q21, q2))

    @property
    def p(self) -> tuple[int, int]:
        return (len(self.a1), len(self.a2))

    @property
    def n_components(self) -> int:
        return 2


Spec = Union[UnivariateSpec, BivariateSpec]


@dataclass(frozen=True)
class ProcessState:
    """Excitation state at (and including the jump of) the last event.

    `modes` are the complex coordinates of the state vector in the
    eigenbasis; the physical vector is recovered with state_vector().
    """

    modes: tuple[complex, ...]
    t: float
    last_event_time: float


@dataclass(frozen=True)
class Dynamics:
    """Spec-derived constants used by every evolution routine.

    weights[c][j] is the coefficient of mode j in component c's intensity;
    jumps[m][j] is the increment of mode j at an event of mark m;
    bound_jumps[m] is the per-event jump of the dominating envelope.
    """

    lams: tuple[complex, ...]
    weights: tuple[tuple[complex, ...], ...]
    jumps: tuple[tuple[complex, ...], ...]
    mus: tuple[float, ...]
    base: float
    decay: float
    bound_jumps: tuple[float, ...]
    block_sizes: tuple[int, ...]


@lru_cache(maxsize=CACHE_MAXSIZE)
def dynamics(spec: Spec) -> Dynamics:
    if isinstance(spec, UnivariateSpec):
        sd = _spectral_of(spec.a)
        w = tuple(spectral.ma_value(spec.b, lam) for lam in sd.eigenvalues)
        k = spectral.bound_constant(sd, spec.b)
        return Dynamics(
            lams=sd.eigenvalues,
            weights=(w,),
            jumps=(sd.sinv_e,),
            mus=(spec.mu,),
            base=spec.mu,
            decay=sd.decay,
            bound_jumps=(k,),
            block_sizes=(spec.p,),
        )
    sd1 = _spectral_of(spec.a1)
    sd2 = _spectral_of(spec.a2)
    lams = sd1.eigenvalues + sd2.eigenvalues
    w1 = tuple(spectral.ma_value(spec.b11, lam) for lam in sd1.eigenvalues) + tuple(
        spectral.ma_value(spec.b12, lam) for lam in sd2.eigenvalues
    )
    w2 = tuple(spectral.ma_value(spec.b21, lam) for lam in sd1.eigenvalues) + tuple(
        spectral.ma_value(spec.b22, lam) for lam in sd2.eigenvalues
    )
    p1, p2 = spec.p
    jump1 = sd1.sinv_e + (0j,) * p2
    jump2 = (0j,) * p1 + sd2.sinv_e
    # The envelope bounds the SUM of the intensities: its row weights are the
    # column sums of the coefficient matrix evaluated at the modes.
    wsum_norm = spectral._l2(wa + wb for wa, wb in zip(w1, w2))
    k1 = wsum_norm * spectral._l2(sd1.sinv_e)
    k2 = wsum_norm * spectral._l2(sd2.sinv_e)
    return Dynamics(
        lams=lams,
        weights=(w1, w2),
        jumps=(jump1, jump2),
        mus=spec.mu,
        base=spec.mu[0] + spec.mu[1],
        decay=max(sd1.decay, sd2.decay),
        bound_jumps=(k1, k2),
        block_sizes=(p1, p2),
    )


@lru_cache(maxsize=CACHE_MAXSIZE)
def _spectral_of(a: tuple[float, ...]) -> spectral.SpectralData:
    return spectral.spectral_decompose(a)


# ---------------------------------------------------------------------------
# state evolution


def initial_state(spec: Spec) -> ProcessState:
    n = sum(dynamics(spec).block_sizes)
    return ProcessState(modes=(0j,) * n, t=0.0, last_event_time=0.0)


def state_vector(spec: Spec, state: ProcessState) -> np.ndarray:
    """Physical state vector x (length p, or p1+p2) from modal coordinates."""
    dyn = dynamics(spec)
    out = []
    off = 0
    for size in dyn.block_sizes:
        lams = np.array(dyn.lams[off : off + size])
        z = np.array(state.modes[off : off + size])
        mat = np.vander(lams, N=size, increasing=True).T
        out.append((mat @ z).real)
        off += size
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

    Returns a float for univariate specs, a (lam1, lam2) pair for bivariate
    ones.  For specs whose kernels validated as non-negative, a result below
    baseline - 1e-9 raises NegativeIntensity (internal consistency check).
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

    Returns a float (univariate) or a pair (bivariate).
    """
    dyn = dynamics(spec)
    te = state.last_event_time
    if t0 < te - 1e-12:
        raise ValueError("interval starts before the state's last event")
    if t1 < t0:
        raise ValueError("interval must satisfy t1 >= t0")
    if any(lam == 0 for lam in dyn.lams):
        raise ValueError("zero eigenvalue: compensator closed form undefined")
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


def _guard_exponent(decay: float, dt: float) -> None:
    if decay > 0 and decay * dt > spectral._EXP_OVERFLOW:
        raise NumericalOverflow(
            f"exp({decay:.6g} * {dt:.6g}) overflows a double"
        )


# ---------------------------------------------------------------------------
# kernels


def kernel_value(spec: UnivariateSpec, t: float) -> float:
    """Excitation kernel h(t) = sum_j (b(lam_j)/a'(lam_j)) exp(lam_j t)."""
    if t < 0:
        raise ValueError("kernel defined for t >= 0")
    dyn = dynamics(spec)
    return _mode_kernel(dyn, 0, 0, t)


def channel_kernel(spec: BivariateSpec, target: int, source: int, t: float) -> float:
    """Kernel h_{target,source}(t): effect on the target component's
    intensity of a source-component event t time units ago."""
    if t < 0:
        raise ValueError("kernel defined for t >= 0")
    dyn = dynamics(spec)
    return _mode_kernel(dyn, target - 1, source - 1, t)


def _mode_kernel(dyn: Dynamics, comp: int, mark: int, t: float) -> float:
    w = dyn.weights[comp]
    jump = dyn.jumps[mark]
    return sum(
        (wj * dz * cmath.exp(lam * t)).real
        for wj, dz, lam in zip(w, jump, dyn.lams)
        if dz != 0
    )


def _kernel_grid(decay: float) -> np.ndarray:
    span = KERNEL_GRID_SPAN / abs(decay) if decay < 0 else KERNEL_GRID_SPAN
    return np.concatenate(
        [[0.0], np.geomspace(span * 1e-6, span, KERNEL_GRID_POINTS - 1)]
    )


def _kernel_min_on_grid(dyn: Dynamics, comp: int, mark: int, decay: float) -> float:
    ts = _kernel_grid(decay)
    coeffs = np.array(
        [wj * dz for wj, dz in zip(dyn.weights[comp], dyn.jumps[mark])]
    )
    lams = np.array(dyn.lams)
    # unstable specs can overflow here; they get flagged NonStationary anyway
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (np.exp(np.outer(ts, lams)) @ coeffs).real
    return float(np.nanmin(vals)) if np.isnan(vals).any() else float(vals.min())


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Admissibility report.  flags is empty iff the spec is admissible.

    Possible flags: NonStationary, KernelNegative, DegenerateEigenvalues,
    RootFindingFailure.
    """

    process_type: str
    flags: tuple[str, ...]
    branching: float | None = None
    branching_matrix: tuple[tuple[float, float], ...] | None = None
    spectral_radius: float | None = None
    decay: float | None = None
    kernel_min: float | None = None
    kernel_mins: tuple[tuple[str, float], ...] | None = None
    eigenvalues: tuple[complex, ...] | None = None
    bound_constants: tuple[float, ...] | None = None
    detail: str | None = None

    @property
    def admissible(self) -> bool:
        return not self.flags

    def to_dict(self) -> dict:
        d = {
            "process_type": self.process_type,
            "admissible": self.admissible,
            "flags": list(self.flags),
            "branching": self.branching,
            "branching_matrix": [list(r) for r in self.branching_matrix]
            if self.branching_matrix is not None
            else None,
            "spectral_radius": self.spectral_radius,
            "decay": self.decay,
            "kernel_min": self.kernel_min,
            "kernel_mins": dict(self.kernel_mins) if self.kernel_mins else None,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues]
            if self.eigenvalues is not None
            else None,
            "bound_constants": list(self.bound_constants)
            if self.bound_constants is not None
            else None,
        }
        if self.detail:
            d["detail"] = self.detail
        return d


def _branching_entry(b: Sequence[float], a: Sequence[float]) -> float:
    # integral of b^T exp(A t) e over [0, inf) = b0 / ap, from
    # A^{-1} e = (-1/ap, 0, ..., 0)
    if a[-1] == 0:
        return math.inf
    return b[0] / a[-1]


@lru_cache(maxsize=CACHE_MAXSIZE)
def validate(spec: Spec) -> ValidationReport:
    """Stationarity, decay, and kernel non-negativity checks.

    Failures come back as report flags, not exceptions; simulation entry
    points refuse flagged specs unless explicitly overridden.
    """
    kind = "univariate" if isinstance(spec, UnivariateSpec) else "bivariate"
    try:
        dyn = dynamics(spec)
    except DegenerateEigenvalues as exc:
        return ValidationReport(kind, ("DegenerateEigenvalues",), detail=str(exc))
    except RootFindingFailure as exc:
        return ValidationReport(kind, ("RootFindingFailure",), detail=str(exc))

    flags = []
    if isinstance(spec, UnivariateSpec):
        branching = _branching_entry(spec.b, spec.a)
        radius = abs(branching)
        kmin = _kernel_min_on_grid(dyn, 0, 0, dyn.decay)
        kernel_mins = None
        bmatrix = None
    else:
        sd1 = _spectral_of(spec.a1)
        sd2 = _spectral_of(spec.a2)
        bmatrix = (
            (_branching_entry(spec.b11, spec.a1), _branching_entry(spec.b12, spec.a2)),
            (_branching_entry(spec.b21, spec.a1), _branching_entry(spec.b22, spec.a2)),
        )
        branching = None
        if all(math.isfinite(v) for row in bmatrix for v in row):
            radius = float(max(abs(np.linalg.eigvals(np.array(bmatrix)))))
        else:
            radius = math.inf
        decays = (sd1.decay, sd1.decay, sd2.decay, sd2.decay)
        names = ("h11", "h21", "h12", "h22")
        pairs = ((0, 0), (1, 0), (0, 1), (1, 1))
        mins = tuple(
            (name, _kernel_min_on_grid(dyn, comp, mark, dec))
            for name, (comp, mark), dec in zip(names, pairs, decays)
        )
        kernel_mins = tuple(sorted(mins))
        kmin = min(v for _, v in mins)

    if dyn.decay >= 0 or radius >= 1:
        flags.append("NonStationary")
    if kmin < KERNEL_NEG_TOL:
        flags.append("KernelNegative")
    return ValidationReport(
        process_type=kind,
        flags=tuple(flags),
        branching=branching,
        branching_matrix=bmatrix,
        spectral_radius=radius,
        decay=dyn.decay,
        kernel_min=kmin,
        kernel_mins=kernel_mins,
        eigenvalues=dyn.lams,
        bound_constants=dyn.bound_jumps,
    )


def _kernels_nonnegative(spec: Spec) -> bool:
    report = validate(spec)
    return report.kernel_min is not None and report.kernel_min >= KERNEL_NEG_TOL


def stationary_rates(spec: Spec) -> tuple[float, ...]:
    """Long-run event rate per component; inf when non-stationary."""
    report = validate(spec)
    if report.spectral_radius is None or report.spectral_radius >= 1:
        return (math.inf,) * spec.n_components
    if isinstance(spec, UnivariateSpec):
        return (spec.mu / (1.0 - report.branching),)
    k = np.array(report.branching_matrix)
    rates = np.linalg.solve(np.eye(2) - k, np.array(spec.mu))
    return (float(rates[0]), float(rates[1]))


# ---------------------------------------------------------------------------
# intensity along a recorded path


def intensity_path(spec: Spec, log, times: Sequence[float]) -> np.ndarray:
    """Intensity sampled at the given (sorted) times along an event log.

    Uses the left-continuous convention: events strictly before a sample
    time contribute to it.  Returns shape (n,) univariate, (n, 2) bivariate.
    """
    state = initial_state(spec)
    n_comp = spec.n_components
    out = np.empty((len(times), n_comp), dtype=float)
    idx = 0
    n_ev = len(log.times)
    prev = -math.inf
    for row, t in enumerate(times):
        if t < prev:
            raise ValueError("sample times must be sorted")
        prev = t
        while idx < n_ev and log.times[idx] < t:
            state = apply_event(spec, state, log.times[idx], log.marks[idx])
            idx += 1
        val = intensity_at(spec, state, t)
        out[row, :] = val if n_comp > 1 else (val,)
    return out[:, 0] if n_comp == 1 else out


# ---------------------------------------------------------------------------
# spec (de)serialisation


def spec_to_dict(spec: Spec) -> dict:
    """JSON-ready form; MA vectors are trimmed back to their supplied length."""
    if isinstance(spec, UnivariateSpec):
        return {
            "type": "univariate",
            "mu": spec.mu,
            "a": list(spec.a),
            "b": list(spec.b[: spec.q + 1]),
        }
    q1, q12, q21, q2 = spec.q
    return {
        "type": "bivariate",
        "mu": list(spec.mu),
        "a1": list(spec.a1),
        "a2": list(spec.a2),
        "b11": list(spec.b11[: q1 + 1]),
        "b12": list(spec.b12[: q12 + 1]),
        "b21": list(spec.b21[: q21 + 1]),
        "b22": list(spec.b22[: q2 + 1]),
    }


def spec_from_dict(data: dict) -> Spec:
    kind = data.get("type")
    if kind == "univariate":
        return UnivariateSpec(mu=data["mu"], a=tuple(data["a"]), b=tuple(data["b"]))
    if kind == "bivariate":
        return BivariateSpec(
            mu=tuple(data["mu"]),
            a1=tuple(data["a1"]),
            a2=tuple(data["a2"]),
            b11=tuple(data["b11"]),
            b12=tuple(data["b12"]),
            b21=tuple(data["b21"]),
            b22=tuple(data["b22"]),
        )
    raise ValueError(f"unknown spec type: {kind!r}")


def load_spec(path) -> Spec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def save_spec(spec: Spec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def spec_hash(spec: Spec) -> str:
    payload = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
