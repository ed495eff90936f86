"""Model specifications, admissibility checks, and exact modal states.

A one-component model has intensity lam_t = mu + b^T X_t where X solves
dX = A X dt + e dN with X_0 = 0; its excitation kernel is
h(t) = b^T exp(A t) e.  A d-component model (one Spec class for every d)
stacks d such state blocks, block m driven by component m's events, with a
d x (p1 + ... + pd) coefficient matrix mapping the joint state to the d
intensities.

All evolution here happens in the eigenbasis of the (block) companion
matrix: the state is carried as complex modal coordinates z with
z_j(t) = exp(lam_j dt) z_j(t0) between events and z_j += 1/a'(lam_j) at an
event of the block's driving component.  Intensities, kernels and
compensators are then closed-form sums over modes, with no quadrature and
no time discretisation anywhere.  Along a recorded log one blocked prefix
scan (modal_scan), run once per mode group (mode_groups: the real modes in
float, the rest in complex with exact conjugate pairs folded), gives the
states to the residuals and both sampled paths.  The tests state the same
evolution one event at a time (tests/oracles.py) to check that scan.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import spectral
from .errors import (
    DegenerateEigenvalues,
    NumericalOverflow,
    RootFindingFailure,
    SpecLogMismatch,
    ZeroEigenvalue,
)
from .spectral import _as_float, _finite_tuple, _is_int, _is_real, _real_array

if TYPE_CHECKING:
    import numpy as np

# CPython's built-in SHA-256 (_sha2 from 3.12, _sha256 before), as the
# random module takes its sha512: hashlib would load OpenSSL's libcrypto
# into every process for one digest of a few hundred bytes.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

# Kernel values above this (negative) threshold count as non-negative.
KERNEL_NEG_TOL = -1e-12
# Kernel non-negativity grid: log-spaced points on [0, span/|decay|].
KERNEL_GRID_POINTS = 4000
KERNEL_GRID_SPAN = 20.0

# Entries kept by each of the spec caches behind dynamics and validate.
# Unbounded, they grow by a few kB per distinct spec for the life of the
# process; a run touches a handful of specs, a sweep many thousands.
CACHE_MAXSIZE = 512
# The (Dynamics, ValidationReport) of a spec that seed_constants is putting
# into the caches of dynamics and validate, by spec; empty between its calls.
_SEEDS: dict = {}

# modal_scan: a numpy pass takes this many events, and an anchor segment a
# span short enough that max|Re lam| * span stays below this exponent
# (exp(600) ~ 4e260).
BLOCK_EVENTS = 2048
BLOCK_EXPONENT = 600.0
# Veltkamp's splitting constant, 2**27 + 1.
_SPLITTER = 134217729.0


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
class Spec:
    """Self-exciting model of d = len(mu) mutually exciting components,
    1 <= d <= 9 (the report's kernel names h{c}{m} give each index one digit).

    mu[c] is component c's baseline; ar[m] holds the AR coefficients
    (a1, ..., ap) of state block m, which component m's events drive;
    ma[c][m] is the MA vector of block m on component c, supplied as its
    leading coefficients (b0, ..., bq) and zero-padded to the block's order,
    so ma[c][m] gives the kernel h_{c,m} of a component-m event on component
    c.  The derived q[c][m] records the supplied MA orders.  Requires every
    mu > 0 and q < p; a one-component spec also needs b0 > 0 (an all-zero b
    is allowed as the degenerate Poisson case).
    """

    mu: tuple[float, ...]
    ar: tuple[tuple[float, ...], ...]
    ma: tuple[tuple[tuple[float, ...], ...], ...]
    q: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        mu = _finite_tuple(self.mu, "mu")
        d = len(mu)
        if not 1 <= d <= 9:
            raise ValueError(f"a spec has 1 to 9 components, got {d}")
        if any(v <= 0 for v in mu):
            raise ValueError("each baseline mu must be finite and > 0")
        ar = tuple(_finite_tuple(a, f"ar[{m}]") for m, a in enumerate(self.ar))
        if len(ar) != d or not all(ar):
            raise ValueError(f"need {d} AR blocks of at least one coefficient each")
        rows = tuple(map(tuple, self.ma))
        if len(rows) != d or any(len(row) != d for row in rows):
            raise ValueError(f"ma must hold {d} rows of {d} MA vectors")
        checked = [
            [_checked_ma(b, len(a), f"ma[{c}][{m}]", d == 1) for m, (b, a) in enumerate(zip(row, ar))]
            for c, row in enumerate(rows)
        ]
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "ar", ar)
        object.__setattr__(self, "ma", tuple(tuple(b for b, _ in row) for row in checked))
        object.__setattr__(self, "q", tuple(tuple(q for _, q in row) for row in checked))

    @property
    def n_components(self) -> int:
        return len(self.mu)


def UnivariateSpec(mu: float, a: Sequence[float], b: Sequence[float]) -> Spec:
    """The one-component Spec of order (p, q): baseline mu, AR coefficients
    a = (a1, ..., ap), MA coefficients b = (b0, ..., bq)."""
    return Spec(mu=(mu,), ar=(a,), ma=((b,),))


def BivariateSpec(mu, a1, a2, b11, b12, b21, b22) -> Spec:
    """The two-component Spec: b11/b21 act on the first state block (a1,
    driven by component 1), b12/b22 on the second (a2)."""
    return Spec(mu=mu, ar=(a1, a2), ma=((b11, b12), (b21, b22)))


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
    """The spec's modes, weights, jumps and envelope constants, cached per
    spec.  Raises DegenerateEigenvalues or RootFindingFailure for a block
    whose spectrum fails its checks, and NumericalOverflow, naming the
    value, where the summed baseline, an envelope weight or a K_m is not a
    finite double.  The eigen-solves load numpy; a spec whose constants
    seed_constants put in the cache is never solved, and loads none."""
    if spec in _SEEDS:
        return _SEEDS[spec][0]
    sds = tuple(spectral.spectral_decompose(a) for a in spec.ar)
    weights = tuple(
        tuple(spectral.ma_value(b, lam) for b, sd in zip(row, sds) for lam in sd.eigenvalues)
        for row in spec.ma
    )
    jumps = tuple(
        sum((sd.sinv_e if k == m else (0j,) * sd.p for k, sd in enumerate(sds)), ())
        for m in range(len(sds))
    )
    # The envelope bounds the SUM of the intensities: its row weights are the
    # column sums W of the coefficient matrix evaluated at the modes, and the
    # jump at a mark-m event is K_m = ||W|| * ||S_m^{-1} e||.  bound_constant
    # cross-checks each block's share of that product, ||W_m|| * ||S_m^{-1} e||,
    # against its dense Vandermonde form; with one block it is K itself.
    # Finite inputs can still sum past a double: an infinite base would stop
    # thinning's clock, and an infinite weight or K breaks the envelope, so
    # each is refused here, before any of them is used.
    base = sum(spec.mu)
    if not math.isfinite(base):
        raise NumericalOverflow(f"the summed baseline sum(mu) = {base} overflows a double")
    w_total = [sum(col) for col in zip(*weights)]
    for j, w in enumerate(w_total):
        if not cmath.isfinite(w):
            raise NumericalOverflow(f"the envelope weight of mode {j + 1}, {w}, overflows a double")
    for m, sd in enumerate(sds):
        column_ma = tuple(map(sum, zip(*(row[m] for row in spec.ma))))
        if not all(map(math.isfinite, column_ma)):
            raise NumericalOverflow(
                f"the MA coefficients of block {m + 1} sum past a double: {column_ma}"
            )
        spectral.bound_constant(sd, column_ma)
    wsum_norm = spectral._l2(w_total)
    bound_jumps = tuple(wsum_norm * spectral._l2(sd.sinv_e) for sd in sds)
    for m, k in enumerate(bound_jumps, start=1):
        if not math.isfinite(k):
            raise NumericalOverflow(f"the envelope jump K_{m} = {k} overflows a double")
    return Dynamics(
        lams=sum((sd.eigenvalues for sd in sds), ()),
        weights=weights,
        jumps=jumps,
        mus=spec.mu,
        base=base,
        decay=max(sd.decay for sd in sds),
        bound_jumps=bound_jumps,
        block_sizes=tuple(sd.p for sd in sds),
    )


# ---------------------------------------------------------------------------
# block slicing and the guards of the closed forms


def _by_block(dyn: Dynamics, per_mode: Sequence) -> list:
    """A per-mode sequence cut into the runs of modes of each AR block."""
    ends = (0,) + tuple(itertools.accumulate(dyn.block_sizes))
    return [per_mode[start:end] for start, end in zip(ends, ends[1:])]


def check_log_marks(log, n: int) -> None:
    """Refuse a log holding a mark outside 1..n, the components of the spec
    it is read against, with SpecLogMismatch (a ValueError)."""
    marks = log.arrays[1]
    if len(marks) and not 1 <= marks.min() <= marks.max() <= n:
        raise SpecLogMismatch(f"event log holds a mark outside 1..{n}")


def check_nonzero_roots(dyn: Dynamics) -> None:
    """Refuse dyn for a compensator, whose closed form divides by every root."""
    if 0 in dyn.lams:
        raise ZeroEigenvalue("zero eigenvalue: compensator closed form undefined")


def _guard_exponent(decay: float, dt: float) -> None:
    if decay > 0 and decay * dt > spectral._EXP_OVERFLOW:
        raise NumericalOverflow(
            f"exp({decay:.6g} * {dt:.6g}) overflows a double"
        )


# ---------------------------------------------------------------------------
# kernels


def channel_kernel(spec: Spec, target: int, source: int, t: float) -> float:
    """Kernel h_{target,source}(t): effect on the target component's
    intensity of a source-component event t time units ago, the sum over
    the source block's modes of (b(lam_j)/a'(lam_j)) exp(lam_j t).  A
    one-component spec's kernel h is channel_kernel(spec, 1, 1, t).  The
    indices must be integers (_is_int: numpy's included, not a bool or
    1.0) in 1..d, and t a real number (_is_real) that is finite and >= 0,
    by the horizon's rule (_as_float: 10**400 is not); each refusal is a
    ValueError."""
    n = spec.n_components
    for index in (target, source):
        if not (_is_int(index) and 1 <= index <= n):
            raise ValueError(f"target and source must be in 1..{n}, got {index!r}")
    if not _is_real(t):
        raise ValueError(f"kernel time must be a real number, got {t!r}")
    t = _as_float(t)
    if not 0 <= t < math.inf:  # NaN too
        raise ValueError(f"kernel defined for finite t >= 0, got {t!r}")
    return _mode_kernel(dynamics(spec), target - 1, source - 1, t)


def _mode_kernel(dyn: Dynamics, comp: int, mark: int, t: float) -> float:
    w = dyn.weights[comp]
    jump = dyn.jumps[mark]
    return sum(
        (wj * dz * cmath.exp(lam * t)).real
        for wj, dz, lam in zip(w, jump, dyn.lams)
        if dz != 0
    )


def _kernel_grid(decay: float) -> np.ndarray:
    import numpy as np

    span = KERNEL_GRID_SPAN / abs(decay) if decay < 0 else KERNEL_GRID_SPAN
    return np.concatenate(
        [[0.0], np.geomspace(span * 1e-6, span, KERNEL_GRID_POINTS - 1)]
    )


def _kernel_mins_on_grid(dyn: Dynamics, mark: int, decay: float) -> list[float]:
    """Grid minimum of h_{c,mark} for every target component c.  The kernels
    of one source have terms on its block's modes only, the modes a mark
    event jumps, and share their exponentials on the grid."""
    import numpy as np

    ts = _kernel_grid(decay)
    # unstable specs can overflow here; they get flagged NonStationary anyway
    with np.errstate(over="ignore", invalid="ignore"):
        grown = []
        for g in mode_groups(dyn):
            own = g.jumps[mark] != 0
            if own.any():
                grown.append((g, own, np.exp(np.outer(ts, g.lams[own]))))
        mins = []
        for comp in range(len(dyn.weights)):
            vals = 0
            for g, own, terms in grown:
                vals = vals + mode_sum(terms, (g.weights[comp] * g.jumps[mark])[own])
            mins.append(float(np.nanmin(vals)) if np.isnan(vals).any() else float(vals.min()))
    return mins


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
    branching_matrix: tuple[tuple[float, ...], ...] | None = None
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
        """The report as strict JSON values (strict_json_values)."""
        d = {
            "process_type": self.process_type,
            "admissible": self.admissible,
            "flags": self.flags,
            "branching": self.branching,
            "branching_matrix": self.branching_matrix,
            "spectral_radius": self.spectral_radius,
            "decay": self.decay,
            "kernel_min": self.kernel_min,
            "kernel_mins": None if self.kernel_mins is None else dict(self.kernel_mins),
            "eigenvalues": self.eigenvalues,
            "bound_constants": self.bound_constants,
        }
        if self.detail:
            d["detail"] = self.detail
        return strict_json_values(d)


def strict_json_values(value):
    """A report tree as the values strict JSON can hold: through dicts,
    lists and tuples, a non-finite float becomes None, a tuple a list and a
    complex number [real, imag]; every other value is kept as it is."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, complex):
        return [strict_json_values(value.real), strict_json_values(value.imag)]
    if isinstance(value, dict):
        return {k: strict_json_values(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_json_values(v) for v in value]
    return value


def _branching_entry(b: Sequence[float], a: Sequence[float]) -> float:
    # integral of b^T exp(A t) e over [0, inf) = b0 / ap, from
    # A^{-1} e = (-1/ap, 0, ..., 0)
    if a[-1] == 0:
        return math.inf
    return b[0] / a[-1]


def _branching_matrix(spec: Spec) -> tuple[tuple[float, ...], ...]:
    """Entry (c, m): integral of the kernel of a component-m event on component c."""
    return tuple(tuple(_branching_entry(b, a) for b, a in zip(row, spec.ar)) for row in spec.ma)


@lru_cache(maxsize=CACHE_MAXSIZE)
def validate(spec: Spec) -> ValidationReport:
    """Stationarity, decay, and kernel non-negativity checks.

    Failures come back as report flags, not exceptions; simulation entry
    points refuse flagged specs unless explicitly overridden.  A
    one-component spec reports its scalar `branching`; a multi-component
    spec reports `branching_matrix` and the per-kernel minima `kernel_mins`.
    process_type is "univariate", "bivariate" or, from three components on,
    "multivariate".  Cached per spec, as dynamics is; the kernel grid and
    the spectral radius load numpy, unless seed_constants put the report in
    the cache.
    """
    if spec in _SEEDS:
        return _SEEDS[spec][1]
    one_block = spec.n_components == 1
    kind = {1: "univariate", 2: "bivariate"}.get(spec.n_components, "multivariate")
    try:
        dyn = dynamics(spec)
    except DegenerateEigenvalues as exc:
        return ValidationReport(kind, ("DegenerateEigenvalues",), detail=str(exc))
    except RootFindingFailure as exc:
        return ValidationReport(kind, ("RootFindingFailure",), detail=str(exc))

    bmatrix = _branching_matrix(spec)
    if all(math.isfinite(v) for row in bmatrix for v in row):
        import numpy as np

        radius = float(max(abs(np.linalg.eigvals(np.array(bmatrix)))))
    else:
        radius = math.inf
    # kernel h_{c,m} decays at the rate of block m, the source's block
    mins = tuple(
        (f"h{c + 1}{m + 1}", kmin)
        for m, lams in enumerate(_by_block(dyn, dyn.lams))
        for c, kmin in enumerate(_kernel_mins_on_grid(dyn, m, max(lam.real for lam in lams)))
    )
    kmin = min(v for _, v in mins)

    flags = []
    if dyn.decay >= 0 or radius >= 1:
        flags.append("NonStationary")
    if kmin < KERNEL_NEG_TOL:
        flags.append("KernelNegative")
    return ValidationReport(
        process_type=kind,
        flags=tuple(flags),
        branching=bmatrix[0][0] if one_block else None,
        branching_matrix=None if one_block else bmatrix,
        spectral_radius=radius,
        decay=dyn.decay,
        kernel_min=kmin,
        kernel_mins=None if one_block else tuple(sorted(mins)),
        eigenvalues=dyn.lams,
        bound_constants=dyn.bound_jumps,
    )


def seed_constants(spec: Spec, dyn: Dynamics, report: ValidationReport) -> None:
    """Make dyn and report what dynamics(spec) and validate(spec) return in
    this process, from the caches they keep, without computing them.  They
    must be exactly what the two compute for spec (the CLI's constants
    cache checks that its entries are).  A spec already cached keeps its
    cached values, which are the same."""
    _SEEDS[spec] = dyn, report
    try:
        dynamics(spec)
        validate(spec)
    finally:
        del _SEEDS[spec]


def stationary_rates(spec: Spec) -> tuple[float, ...]:
    """Long-run event rate per component, (I - K)^{-1} mu; inf when non-stationary."""
    report = validate(spec)
    if report.spectral_radius is None or report.spectral_radius >= 1:
        return (math.inf,) * spec.n_components
    import numpy as np

    k = np.array(_branching_matrix(spec))
    rates = np.linalg.solve(np.eye(len(k)) - k, np.array(spec.mu))
    return tuple(float(r) for r in rates)


# ---------------------------------------------------------------------------
# modal states along a recorded log


def mode_kinds(dyn: Dynamics) -> list[str]:
    """How each mode of dyn is carried, from its root and its weight and jump
    entries; the thinning kernel and the modal scan both read it.

    "real": lam_j and every weight and jump entry have imaginary part exactly
    0, so the mode runs in float.  "pair"/"conj": modes j and j + 1 are exact
    conjugates in lam and in every weight and jump row, so mode j is
    propagated once and stands for both.  "complex": anything else.
    """
    rows = (*dyn.weights, *dyn.jumps)
    kinds: list[str] = []
    j = 0
    while j < len(dyn.lams):
        lam = dyn.lams[j]
        if lam.imag == 0 and all(row[j].imag == 0 for row in rows):
            kinds.append("real")
        elif (
            j + 1 < len(dyn.lams)
            and dyn.lams[j + 1] == lam.conjugate()
            and all(row[j + 1] == row[j].conjugate() for row in rows)
        ):
            kinds += ["pair", "conj"]
            j += 1
        else:
            kinds.append("complex")
        j += 1
    return kinds


class ModeGroup(NamedTuple):
    """Modes scanned together: lams (p,), weights (components, p) and jumps
    (marks, p), read-only; float64 for the real modes, complex128 for the
    rest, where an exact conjugate pair is one mode with its weights doubled,
    so a group's contribution to an intensity is the real part of its sum."""

    lams: np.ndarray
    weights: np.ndarray
    jumps: np.ndarray


@lru_cache(maxsize=CACHE_MAXSIZE)
def mode_groups(dyn: Dynamics) -> tuple[ModeGroup, ...]:
    """dyn's modes by mode_kinds: the real ones, then the others with each
    exact pair carried once; a group with no mode is left out."""
    kinds = mode_kinds(dyn)
    groups = []
    for real, scales in (
        (True, {j: 1.0 for j, kind in enumerate(kinds) if kind == "real"}),
        (False, {j: 2.0 if kind == "pair" else 1.0
                 for j, kind in enumerate(kinds) if kind in ("pair", "complex")}),
    ):
        if scales:
            groups.append(ModeGroup(
                _frozen([dyn.lams[j] for j in scales], real),
                _frozen([[row[j] * s for j, s in scales.items()] for row in dyn.weights], real),
                _frozen([[row[j] for j in scales] for row in dyn.jumps], real),
            ))
    return tuple(groups)


def _frozen(values, real: bool) -> np.ndarray:
    import numpy as np

    arr = np.array(values, dtype=complex)
    if real:
        arr = np.ascontiguousarray(arr.real)
    arr.flags.writeable = False
    return arr


def mode_sum(terms: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Re sum_j terms[:, j] coef[j], written out over the few modes: numpy's
    matrix-vector product hands rows x modes >= ~4096 to a threaded BLAS,
    which can stall for milliseconds while its threads wake."""
    total = terms[:, 0] * coef[0]
    for j in range(1, len(coef)):
        total += terms[:, j] * coef[j]
    return total.real


def modal_scan(lams: np.ndarray, jumps: np.ndarray, times: np.ndarray, marks: np.ndarray):
    """The modal states of a log for one mode group (float or complex lams),
    pass by pass: from z = 0 at time 0, z_k = exp(lam (t_k - t_{k-1})) z_{k-1}
    + J_{m_k} just after event k.

    Anchored at the first time A of a segment, a prefix scan gives
    z_k = exp(lam (t_k - A)) (z_A + sum_{l<=k} J_{m_l} exp(-lam (t_l - A))),
    z_A being the carried state decayed to A.  A segment keeps
    max|Re lam| (t - A) below BLOCK_EXPONENT, so no factor overflows or
    underflows; the exponents are exact products (_outer_exact), so their size
    costs no accuracy.  A pass takes BLOCK_EVENTS events (fewer at the end),
    cut into segments: its exponents, factors and states are each one numpy
    operation over the pass, and only each segment's prefix sum and the
    state it carries to the next (three length-p operations) are a Python
    loop.

    The working arrays are modes x events, p x BLOCK_EVENTS at most, so
    every numpy operation runs along the events of one mode.  numpy's
    complex product is not commutative bit for bit, so the operand order of
    each product is part of the pinned residuals
    (tests/test_compatibility.py).  Yields (start, stop, states) per pass,
    states[i] = z_{start+i-1}: states is the transposed view of a
    C-contiguous p x (stop - start + 1) array, so states.T is the
    mode-major array itself.
    """
    import numpy as np

    gaps = np.diff(times, prepend=0.0)
    _guard_exponent(float(lams.real.max()), float(gaps.max(initial=0.0)))
    max_rate = float(np.abs(lams.real).max())
    span = BLOCK_EXPONENT / max_rate if max_rate > 0 else math.inf
    jumps_by_mode = np.ascontiguousarray(jumps.T)
    z = np.zeros(len(lams), dtype=lams.dtype)
    for start in range(0, len(times), BLOCK_EVENTS):
        stop = min(start + BLOCK_EVENTS, len(times))
        window = times[start:stop]
        heads = [0]  # each segment's first event, counted from start
        while True:
            head = max(heads[-1] + 1, int(window.searchsorted(window[heads[-1]] + span)))
            if head >= len(window):
                break
            heads.append(head)
        ends = heads[1:] + [len(window)]
        anchors = np.repeat(window[heads], np.subtract(ends, heads))
        hi, lo = _outer_exact(window - anchors, lams)
        terms = jumps_by_mode.take(marks[start:stop] - 1, axis=1) * (np.exp(-hi) * (1.0 - lo))
        grow = np.exp(hi) * (1.0 + lo)
        # each segment's carried state decays over the gap before its head
        fades = np.exp(np.multiply.outer(gaps[start + np.array(heads)], lams))
        states = np.empty((len(lams), len(window) + 1), dtype=lams.dtype)
        states[:, 0] = z
        for a, b, fade in zip(heads, ends, fades):
            seg = terms[:, a:b]
            seg[:, 0] += z * fade
            np.add.accumulate(seg, axis=1, out=seg)
            z = grow[:, b - 1] * seg[:, -1]
        np.multiply(grow, terms, out=states[:, 1:])
        yield start, stop, states.T


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a == hi + lo with each half on 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _outer_exact(rel: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The products rel[k] * lams[j] as hi + lo, lo holding the rounding
    error of hi, laid out modes x events: hi[j, k] and lo[j, k].

    Dekker's exact product; complex lams are split into their real and
    imaginary parts, stacked as 2p rows of float products done at once, and
    each half put back as the real and imaginary parts of p complex rows.
    The scan's exponents reach BLOCK_EXPONENT in size, where the rounding of
    a plain product alone would cost ~1e-13 relative in every exp factor;
    exp(hi) * (1 + lo) keeps them to a few ulp.
    """
    import numpy as np

    parts = np.concatenate((lams.real, lams.imag)) if lams.dtype.kind == "c" else lams
    prod = np.multiply.outer(parts, rel)
    parts_hi, parts_lo = _split(parts)
    rel_hi, rel_lo = _split(rel)
    err = (
        (np.multiply.outer(parts_hi, rel_hi) - prod)
        + np.multiply.outer(parts_lo, rel_hi)
        + np.multiply.outer(parts_hi, rel_lo)
    ) + np.multiply.outer(parts_lo, rel_lo)
    if lams.dtype.kind != "c":
        return prod, err
    return _complex_rows(prod), _complex_rows(err)


def _complex_rows(stacked: np.ndarray) -> np.ndarray:
    """p complex rows from 2p float rows, the real parts above the imaginary."""
    import numpy as np

    half = len(stacked) // 2
    out = np.empty((half, stacked.shape[1]), dtype=complex)
    out.real = stacked[:half]
    out.imag = stacked[half:]
    return out


def modal_path(dyn: Dynamics, log, times: Sequence[float]) -> np.ndarray:
    """dyn.mus + Re(weights @ z(t)) at sorted sample times t >= 0 along a log,
    one row per sample, z(t) being modal_scan's state after the last event
    before t decayed to t (0 before the first event), summed over dyn's mode
    groups, BLOCK_EVENTS samples at a time.  Raises ValueError for sample
    times that are not real numbers (a bool or a string), unsorted,
    negative or not finite, and SpecLogMismatch (a ValueError) for a log
    mark outside 1..len(dyn.jumps) (check_log_marks)."""
    import numpy as np

    samples = _real_array(times, "sample times must be finite real numbers")
    if not np.isfinite(samples).all():
        raise ValueError("sample times must be finite")
    if (np.diff(samples) < 0).any():
        raise ValueError("sample times must be sorted")
    if len(samples) and samples[0] < 0:
        raise ValueError("sample times must be >= 0")
    check_log_marks(log, len(dyn.jumps))
    ev_times, marks = log.arrays
    owner = np.searchsorted(ev_times, samples) - 1  # last event strictly before
    rel = samples - np.concatenate(([0.0], ev_times))[owner + 1]
    _guard_exponent(dyn.decay, float(rel.max(initial=0.0)))
    out = np.tile(np.asarray(dyn.mus, dtype=float), (len(samples), 1))
    for group in mode_groups(dyn):
        for start, stop, states in modal_scan(group.lams, group.jumps, ev_times, marks):
            first, last = np.searchsorted(owner, (start, stop))
            for lo in range(first, last, BLOCK_EVENTS):
                rows = slice(lo, min(lo + BLOCK_EVENTS, last))
                decayed = states[owner[rows] - start + 1] * np.exp(np.outer(rel[rows], group.lams))
                for c, weights in enumerate(group.weights):
                    out[rows, c] += mode_sum(decayed, weights)
    return out


def intensity_path(spec: Spec, log, times: Sequence[float]) -> np.ndarray:
    """Intensity sampled at the given (sorted, >= 0) times along an event log.

    Uses the left-continuous convention: events strictly before a sample
    time contribute to it.  Returns shape (n,) for one component, (n, d) for
    d components.
    """
    out = modal_path(dynamics(spec), log, times)
    return out[:, 0] if spec.n_components == 1 else out


# ---------------------------------------------------------------------------
# spec (de)serialisation


def spec_to_dict(spec: Spec) -> dict:
    """JSON-ready form; MA vectors are trimmed back to their supplied length.
    One and two components keep their univariate and bivariate forms (and so
    their spec_hash); three or more take the multivariate form."""
    ma = [[list(b[: q + 1]) for b, q in zip(row, qs)] for row, qs in zip(spec.ma, spec.q)]
    if spec.n_components == 1:
        return {"type": "univariate", "mu": spec.mu[0], "a": list(spec.ar[0]), "b": ma[0][0]}
    if spec.n_components == 2:
        (b11, b12), (b21, b22) = ma
        a1, a2 = map(list, spec.ar)
        return {"type": "bivariate", "mu": list(spec.mu), "a1": a1, "a2": a2,
                "b11": b11, "b12": b12, "b21": b21, "b22": b22}
    return {"type": "multivariate", "mu": list(spec.mu), "a": list(map(list, spec.ar)), "b": ma}


# The keys of each spec type's JSON form, in the order its builder takes them.
_SPEC_KEYS = {
    "univariate": ("mu", "a", "b"),
    "bivariate": ("mu", "a1", "a2", "b11", "b12", "b21", "b22"),
    "multivariate": ("mu", "a", "b"),
}
_SPEC_BUILDERS = {"univariate": UnivariateSpec, "bivariate": BivariateSpec, "multivariate": Spec}


def spec_from_dict(data: dict) -> Spec:
    """The Spec of a JSON form (spec_to_dict's).  A form that is not a dict,
    has no known type, or lacks a key of its type raises ValueError, the
    last naming the type and the first key missing."""
    if not isinstance(data, dict):
        raise ValueError(f"a model spec must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    keys = _SPEC_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ValueError(f"unknown spec type: {kind!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{kind} spec lacks key {key!r}")
    return _SPEC_BUILDERS[kind](*(data[key] for key in keys))


def load_spec(path) -> Spec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def save_spec(spec: Spec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


@lru_cache(maxsize=CACHE_MAXSIZE)
def spec_hash(spec: Spec) -> str:
    """The hex SHA-256 of the spec's canonical JSON (canonical_json), the
    digest hashlib.sha256 gives, taken by CPython's built-in implementation
    and kept per spec, so a run hashes its spec once."""
    return _sha256(canonical_json(spec_to_dict(spec)).encode("utf-8")).hexdigest()


def canonical_json(value) -> str:
    """value as JSON with sorted keys and no spaces: equal values give equal
    text, so a digest of it names the value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
