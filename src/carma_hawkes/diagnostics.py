"""Residual analysis and goodness-of-fit for simulated event logs.

The random time change maps event times through the compensator
Lam(t) = integral of the intensity: for a correctly specified model and
simulator the transformed inter-event gaps tau_i = Lam(T_i) - Lam(T_{i-1})
are i.i.d. unit exponentials.  A one-sample Kolmogorov-Smirnov test against
Exp(1) turns that into a single statistic and p-value per component.

The compensator increments come from one vectorised pass over the log.  The
modal state after event k solves the linear recurrence
z_k = exp(lam * (t_k - t_{k-1})) z_{k-1} + J_{m_k}, which a prefix scan
evaluates in closed form: anchored at the first event time A of a block,
z_k = exp(lam (t_k - A)) (z_A + sum_{l<=k} J_{m_l} exp(-lam (t_l - A))),
where z_A is the carried state decayed to A.  The log is cut into blocks of
at most BLOCK_EVENTS events whose span keeps max|Re lam| * (t - A) below
BLOCK_EXPONENT, so neither exponential factor can overflow or underflow and
the working arrays stay a fixed size; the state carries from one block to
the next.  The exponents are formed as exact products (_outer_exact), so
their size costs no accuracy.  Each event's increment is then
mu_c dt + Re sum_j (w_cj / lam_j) z_{k-1,j} expm1(lam_j dt), and each
residual is the sum of its own segment of increments (np.add.reduceat),
never a difference of one running total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, SpecLogMismatch
from .model import (
    Spec,
    _guard_exponent,
    dynamics,
    spec_hash,
    stationary_rates,
    validate,
)
from .thinning import EventLog

# Terms of the asymptotic p-value series are dropped below this size, so the
# alternating-series truncation error stays under 1e-10.
_SERIES_TOL = 1e-12
# Below this argument the survival function is 1 within 1e-12; short-circuit
# to keep the series loop bounded.
_KAPPA_FLOOR = 0.18
# Residual scan blocks: at most this many events, and a span short enough
# that max|Re lam| * span stays below this exponent (exp(600) ~ 4e260).
BLOCK_EVENTS = 2048
BLOCK_EXPONENT = 600.0
# Veltkamp's splitting constant, 2**27 + 1.
_SPLITTER = 134217729.0


@dataclass(frozen=True)
class ResidualSeries:
    """Compensator-transformed inter-event gaps for one component."""

    taus: tuple[float, ...]
    component: int

    def __len__(self) -> int:
        return len(self.taus)

    @property
    def mean(self) -> float:
        return sum(self.taus) / len(self.taus) if self.taus else math.nan


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n: int


def residual_transform(spec: Spec, log: EventLog, component: int = 1) -> ResidualSeries:
    """Transformed inter-event gaps of one component along a full log.

    The compensator of the chosen component is accumulated in closed form
    across every global event (events of the other components change the
    state and therefore the integrand), by the blocked scan described in
    the module docstring.  The trailing censored gap after the last event
    is discarded.  Raises SpecLogMismatch when the log carries a spec hash
    that differs from the given spec's, or a mark the spec does not have.
    """
    n_comp = spec.n_components
    if not 1 <= component <= n_comp:
        raise ValueError(f"component must be in 1..{n_comp}")
    if log.meta.spec_hash is not None and log.meta.spec_hash != spec_hash(spec):
        raise SpecLogMismatch(
            "event log was produced under a different spec (hash mismatch)"
        )
    if not log.times:
        return ResidualSeries(taus=(), component=component)
    times = np.array(log.times)
    marks = np.array(log.marks)
    if marks.max() > n_comp:
        raise SpecLogMismatch(f"event log holds a mark outside 1..{n_comp}")
    dyn = dynamics(spec)
    lams = np.array(dyn.lams)
    if not lams.all():
        raise ValueError("zero eigenvalue: compensator closed form undefined")
    gaps = np.diff(times, prepend=0.0)
    _guard_exponent(dyn.decay, float(gaps.max()))

    jumps = np.array(dyn.jumps)
    coef = np.array(dyn.weights[component - 1]) / lams
    mu = dyn.mus[component - 1]
    max_rate = float(np.abs(lams.real).max())
    span = BLOCK_EXPONENT / max_rate if max_rate > 0 else math.inf
    incs = np.empty(len(times))
    z = np.zeros(len(lams), dtype=complex)  # state after the previous event
    start = 0
    while start < len(times):
        stop = min(
            start + BLOCK_EVENTS,
            max(start + 1, int(np.searchsorted(times, times[start] + span))),
        )
        hi, lo = _outer_exact(times[start:stop] - times[start], lams)
        dts = gaps[start:stop]
        scaled = np.cumsum(jumps[marks[start:stop] - 1] * (np.exp(-hi) * (1.0 - lo)), axis=0)
        scaled += z * np.exp(lams * dts[0])
        after = np.exp(hi) * (1.0 + lo) * scaled
        before = np.vstack((z, after[:-1]))
        incs[start:stop] = mu * dts + ((before * np.expm1(np.outer(dts, lams))) @ coef).real
        z = after[-1]
        start = stop

    own = np.flatnonzero(marks == component)
    if not len(own):
        return ResidualSeries(taus=(), component=component)
    starts = np.concatenate(([0], own[:-1] + 1))
    taus = np.add.reduceat(incs[: own[-1] + 1], starts)
    return ResidualSeries(taus=tuple(taus.tolist()), component=component)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a == hi + lo with each half on 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _outer_exact(rel: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """outer(rel, lams) as hi + lo, lo holding the rounding error of hi.

    Dekker's exact product, on the real and imaginary parts at once.  The
    scan's exponents reach BLOCK_EXPONENT in size, where the rounding of a
    plain product alone would cost ~1e-13 relative in every exp factor;
    exp(hi) * (1 + lo) keeps them to a few ulp.
    """
    parts = lams.view(np.float64)  # real and imaginary parts, interleaved
    prod = np.multiply.outer(rel, parts)
    rel_hi, rel_lo = _split(rel)
    parts_hi, parts_lo = _split(parts)
    err = (
        (np.multiply.outer(rel_hi, parts_hi) - prod)
        + np.multiply.outer(rel_hi, parts_lo)
        + np.multiply.outer(rel_lo, parts_hi)
    ) + np.multiply.outer(rel_lo, parts_lo)
    return prod.view(np.complex128), err.view(np.complex128)


def kolmogorov_survival(kappa: float) -> float:
    """P(sup-norm statistic > kappa) in the large-sample limit.

    Alternating series 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 kappa^2),
    truncated when terms fall below 1e-12, clamped to [0, 1].
    """
    if kappa <= _KAPPA_FLOOR:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * kappa * kappa)
        if term < _SERIES_TOL:
            break
        total += sign * term
        sign = -sign
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


def ks_exp1(residuals) -> KsResult:
    """One-sample Kolmogorov-Smirnov test of the residuals against Exp(1).

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) with F(x) = 1 - e^-x;
    the p-value uses the asymptotic survival series at sqrt(n) * D (treat it
    as approximate below n of a few dozen).
    """
    taus = residuals.taus if isinstance(residuals, ResidualSeries) else tuple(residuals)
    n = len(taus)
    if n == 0:
        raise EmptySample("cannot run a KS test on an empty sample")
    xs = sorted(taus)
    d = 0.0
    for i, x in enumerate(xs, start=1):
        f = -math.expm1(-x)
        d = max(d, i / n - f, f - (i - 1) / n)
    p = kolmogorov_survival(math.sqrt(n) * d)
    return KsResult(statistic=d, p_value=p, n=n)


# ---------------------------------------------------------------------------
# summary reports


@dataclass(frozen=True)
class ComponentDiagnostics:
    component: int
    n_events: int
    empirical_rate: float
    theoretical_rate: float
    ks: KsResult | None
    residual_mean: float

    def to_dict(self, acceptance_ratio: float) -> dict:
        return {
            "component": self.component,
            "n_events": self.n_events,
            "empirical_rate": self.empirical_rate,
            "theoretical_rate": self.theoretical_rate
            if math.isfinite(self.theoretical_rate)
            else None,
            "ks_statistic": self.ks.statistic if self.ks else None,
            "ks_p_value": self.ks.p_value if self.ks else None,
            "residual_mean": self.residual_mean
            if math.isfinite(self.residual_mean)
            else None,
            "acceptance_ratio": acceptance_ratio,
        }


@dataclass(frozen=True)
class DiagnosticsReport:
    components: tuple[ComponentDiagnostics, ...]
    horizon: float
    acceptance_ratio: float
    residuals: tuple[ResidualSeries, ...]

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "acceptance_ratio": self.acceptance_ratio,
            "components": [
                c.to_dict(self.acceptance_ratio) for c in self.components
            ],
        }


def summarize(spec: Spec, log: EventLog) -> DiagnosticsReport:
    """Per-component event counts, rates, and residual KS results."""
    validate(spec)  # populate caches; admissibility is the caller's concern
    rates = stationary_rates(spec)
    horizon = log.meta.horizon if log.meta.horizon > 0 else (log.times[-1] if log.times else 0.0)
    comps = []
    residuals = []
    for c in range(1, spec.n_components + 1):
        series = residual_transform(spec, log, component=c)
        residuals.append(series)
        n = len(series)
        ks = ks_exp1(series) if n > 0 else None
        comps.append(
            ComponentDiagnostics(
                component=c,
                n_events=n,
                empirical_rate=n / horizon if horizon > 0 else 0.0,
                theoretical_rate=rates[c - 1],
                ks=ks,
                residual_mean=series.mean,
            )
        )
    return DiagnosticsReport(
        components=tuple(comps),
        horizon=horizon,
        acceptance_ratio=log.meta.acceptance_ratio,
        residuals=tuple(residuals),
    )


def write_report_json(report: DiagnosticsReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_residuals_csv(series: ResidualSeries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau\n")
        for tau in series.taus:
            fh.write(f"{tau:.15g}\n")
