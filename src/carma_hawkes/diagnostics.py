"""Residual analysis and goodness-of-fit for simulated event logs.

The random time change maps event times through the compensator
Lam(t) = integral of the intensity: for a correctly specified model and
simulator the transformed inter-event gaps tau_i = Lam(T_i) - Lam(T_{i-1})
are i.i.d. unit exponentials.  A one-sample Kolmogorov-Smirnov test against
Exp(1) turns that into a single statistic and p-value per component.

The increment over the gap before event k is
mu_c dt + Re sum_j (w_cj / lam_j) z_{k-1,j} expm1(lam_j dt), with the modal
states z from the blocked scan model.modal_scan, and each residual is the sum
of its own segment of increments (np.add.reduceat), never a difference of
one running total.  The sum over modes is taken per mode group
(model.mode_groups): the exactly real modes in float64, the others in
complex128 with each exact conjugate pair carried once at twice its weight.
Each group's scan takes BLOCK_EVENTS events per numpy pass, however many
anchor segments they span.  One scan per group serves every component:
residual_transform returns every component's residuals from it at once, one
read-only array per component, and leaves the log as it was built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import EmptySample, NanSample, SpecLogMismatch
from .model import (  # the scan's block limits are re-exported
    BLOCK_EVENTS,
    BLOCK_EXPONENT,
    Spec,
    check_log_marks,
    check_nonzero_roots,
    dynamics,
    modal_scan,
    mode_groups,
    mode_sum,
    spec_hash,
    stationary_rates,
    strict_json_values,
)
from .spectral import _as_float, _is_real, _real_array
from .thinning import EventLog, write_csv_rows

if TYPE_CHECKING:
    import numpy as np

# Terms of the asymptotic p-value series are dropped below this size, so the
# alternating-series truncation error stays under 1e-10.
_SERIES_TOL = 1e-12
# Below this argument the survival function is 1 within 1e-12; short-circuit
# to keep the series loop bounded.
_KAPPA_FLOOR = 0.18
# ks_exp1's refinement window, relative to max(1, max|F|): np.expm1 is within
# an ulp (about 2.2e-16) of math.expm1, and a tier-1 test guards that it stays
# within _KS_WINDOW / 1000, so every point's error, with the rounding of its
# gap, stays far inside the window.
_KS_WINDOW = 1e-12


@dataclass(frozen=True, eq=False)
class ResidualSeries:
    """One component's compensator-transformed inter-event gaps as a
    read-only float64 array: such an array (residual_transform's) is taken
    as it is, any other sequence converted once (_real_array: a bool or a
    string raises ValueError; inf and NaN pass).  Compares by identity."""

    taus: np.ndarray
    component: int

    def __post_init__(self):
        import numpy as np

        taus = self.taus
        if not (isinstance(taus, np.ndarray) and taus.dtype == float and not taus.flags.writeable):
            taus = _real_array(taus, "residuals must be real numbers")
            taus.flags.writeable = False
            object.__setattr__(self, "taus", taus)

    def __len__(self) -> int:
        return len(self.taus)

    @property
    def mean(self) -> float:
        """The taus summed in order, as Python's sum of floats (not numpy's
        pairwise sum), over their count."""
        import numpy as np

        n = len(self.taus)
        return float(np.add.accumulate(self.taus)[-1]) / n if n else math.nan


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n: int


def residual_transform(spec: Spec, log: EventLog) -> tuple[ResidualSeries, ...]:
    """Transformed inter-event gaps along a full log, one ResidualSeries per
    component, in component order.

    Each component's compensator is accumulated in closed form across every
    global event (events of the other components change the state and
    therefore the integrand), by the blocked scan of model.modal_scan over
    the log's arrays, one scan per mode group.  Each pass's grown states are
    formed once, modes x events as the scan's own arrays are, and reduced
    with each component's coefficients: the same products and sums, in the
    same order, as a scan for one component alone.  The trailing censored
    gap is discarded.  Raises SpecLogMismatch when the log carries a spec
    hash that differs from the given spec's, or a mark the spec does not
    have (check_log_marks).  A spec with a root at 0 raises ZeroEigenvalue
    on a non-empty log.  The log is only read.
    """
    import numpy as np

    n_comp = spec.n_components
    if log.meta.spec_hash is not None and log.meta.spec_hash != spec_hash(spec):
        raise SpecLogMismatch(
            "event log was produced under a different spec (hash mismatch)"
        )
    if not log.times:
        return tuple(ResidualSeries(taus=(), component=c) for c in range(1, n_comp + 1))
    check_log_marks(log, n_comp)
    times, marks = log.arrays
    dyn = dynamics(spec)
    check_nonzero_roots(dyn)
    gaps = np.diff(times, prepend=0.0)
    incs = [mu * gaps for mu in dyn.mus]
    for group in mode_groups(dyn):
        coefs = [weights / group.lams for weights in group.weights]
        lams = group.lams[:, np.newaxis]
        for start, stop, states in modal_scan(group.lams, group.jumps, times, marks):
            grown = states.T[:, :-1] * np.expm1(np.multiply(gaps[start:stop], lams))
            for inc, coef in zip(incs, coefs):
                inc[start:stop] += mode_sum(grown.T, coef)
    series = []
    for component, inc in enumerate(incs, start=1):
        own = np.flatnonzero(marks == component)
        taus = ()
        if len(own):
            taus = np.add.reduceat(inc[: own[-1] + 1], np.concatenate(([0], own[:-1] + 1)))
            taus.flags.writeable = False
        series.append(ResidualSeries(taus=taus, component=component))
    return tuple(series)


def kolmogorov_survival(kappa: float) -> float:
    """P(sup-norm statistic > kappa) in the large-sample limit.

    Alternating series 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 kappa^2),
    truncated when terms fall below 1e-12, clamped to [0, 1]; inf gives 0.
    kappa must be a real number (_is_real, taken as a float by _as_float)
    that is not NaN, whose terms would never fall below the cut: anything
    else raises ValueError.
    """
    if not _is_real(kappa) or math.isnan(_as_float(kappa)):
        raise ValueError(f"kappa must be a real number, not NaN, got {kappa!r}")
    kappa = _as_float(kappa)
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

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) with F(x) = -expm1(-x);
    the p-value uses the asymptotic survival series at sqrt(n) * D (treat it
    as approximate below n of a few dozen).

    D is exactly the value of the per-point loop with math.expm1.  A first
    pass takes F from np.expm1 on every sorted point; numpy's expm1 can
    differ from math's in the last bit, so each point's gap is then off by
    at most a window w = _KS_WINDOW * max(1, max|F|), relative because a
    negative residual makes |F| = e^-x - 1 large.  The point of the exact
    maximum gap is within 2w of the first pass's maximum, so F is taken
    again with math.expm1 at those points only, and D is their largest gap.
    An infinite F (a residual of -inf, or one below about -709.78, where
    math.expm1 overflows) makes the window infinite, so every point is
    refined.  There F is taken as -inf, as for a residual of -inf, so D is
    inf and the p-value 0.  A NaN residual raises NanSample, naming how many
    there are.

    A ResidualSeries' taus are sorted as they are; any other sequence is
    converted once, as a ResidualSeries, which raises ValueError for a value
    that is not a real number (a bool or a string).
    """
    import numpy as np

    if not isinstance(residuals, ResidualSeries):
        residuals = ResidualSeries(taus=residuals, component=0)
    xs = residuals.taus
    n = len(xs)
    if n == 0:
        raise EmptySample("cannot run a KS test on an empty sample")
    xs = np.sort(xs)
    nans = int(np.count_nonzero(np.isnan(xs)))
    if nans:
        raise NanSample(f"cannot run a KS test on a sample with {nans} NaN value(s)")
    steps = np.arange(n + 1, dtype=float) / n  # i / n for i = 0..n
    with np.errstate(over="ignore"):
        f = -np.expm1(-xs)
    gaps = np.maximum(steps[1:] - f, f - steps[:-1])
    cut = float(gaps.max()) - 2.0 * _KS_WINDOW * max(1.0, float(np.abs(f).max()))
    near = np.flatnonzero(gaps >= cut) if math.isfinite(cut) else np.arange(n)
    f = -np.fromiter(map(_expm1, (-xs[near]).tolist()), dtype=float, count=len(near))
    d = max(0.0, float((steps[near + 1] - f).max()), float((f - steps[near]).max()))
    p = kolmogorov_survival(math.sqrt(n) * d)
    return KsResult(statistic=d, p_value=p, n=n)


def _expm1(x: float) -> float:
    """math.expm1, inf where it overflows (x above about 709.78)."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


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
        """The row as strict JSON values (model.strict_json_values)."""
        return strict_json_values({
            "component": self.component,
            "n_events": self.n_events,
            "empirical_rate": self.empirical_rate,
            "theoretical_rate": self.theoretical_rate,
            "ks_statistic": self.ks.statistic if self.ks else None,
            "ks_p_value": self.ks.p_value if self.ks else None,
            "residual_mean": self.residual_mean,
            "acceptance_ratio": acceptance_ratio,
        })


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
    """Per-component event counts, rates, and residual KS results, from one
    residual_transform of the log.  The rates are over meta.horizon, which
    EventLog keeps at or past the last event; a horizon of 0 or below (an
    empty log's alone) reads as 0.0, and its rates as 0.0."""
    rates = stationary_rates(spec)
    horizon = log.meta.horizon if log.meta.horizon > 0 else 0.0
    residuals = residual_transform(spec, log)
    comps = tuple(
        ComponentDiagnostics(
            component=series.component,
            n_events=len(series),
            empirical_rate=len(series) / horizon if horizon > 0 else 0.0,
            theoretical_rate=rates[series.component - 1],
            ks=ks_exp1(series) if len(series) else None,
            residual_mean=series.mean,
        )
        for series in residuals
    )
    return DiagnosticsReport(
        components=comps,
        horizon=horizon,
        acceptance_ratio=log.meta.acceptance_ratio,
        residuals=residuals,
    )


def write_report_json(report: DiagnosticsReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_residuals_csv(series: ResidualSeries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau\n")
        write_csv_rows(fh, "%.15g\n", (series.taus,))
