"""Simulation and diagnostics for self-exciting point processes whose
excitation kernel is the impulse response of a continuous-time state-space
(CARMA) system, with any number of components.

Core pieces:

* spectral  -- companion-matrix spectra, exact matrix-exponential action,
               and the constants behind the dominating intensity envelope
* model     -- model specs, admissibility validation, exact intensity /
               state / compensator evolution
* thinning  -- rejection sampling against the recursive envelope
* diagnostics -- residual analysis and a KS test against Exp(1)
* cli       -- the `carma-hawkes` command-line front end
"""

from .diagnostics import (
    ComponentDiagnostics,
    DiagnosticsReport,
    KsResult,
    ResidualSeries,
    kolmogorov_survival,
    ks_exp1,
    residual_transform,
    summarize,
    write_report_json,
    write_residuals_csv,
)
from .errors import (
    BoundViolation,
    CarmaHawkesError,
    DegenerateEigenvalues,
    EmptySample,
    HorizonNonPositive,
    NegativeIntensity,
    NonStationarySpec,
    NumericalOverflow,
    RootFindingFailure,
    SpecLogMismatch,
)
from .model import (
    BivariateSpec,
    Dynamics,
    ProcessState,
    Spec,
    UnivariateSpec,
    ValidationReport,
    apply_event,
    channel_kernel,
    compensator_increment,
    dynamics,
    initial_state,
    intensity_at,
    intensity_path,
    load_spec,
    save_spec,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
    state_vector,
    stationary_rates,
    validate,
)
from .spectral import (
    SpectralData,
    bound_constant,
    build_companion,
    exp_action,
    spectral_decompose,
)
from .thinning import (
    BoundTracker,
    EventLog,
    ScriptedUniforms,
    SimulationMeta,
    UniformStream,
    bound_after_event,
    bound_path,
    bound_value,
    initial_bound,
    read_events_csv,
    simulate,
    write_events_csv,
    write_meta_json,
)

__version__ = "0.1.0"

__all__ = [
    "BivariateSpec",
    "BoundTracker",
    "BoundViolation",
    "CarmaHawkesError",
    "ComponentDiagnostics",
    "DegenerateEigenvalues",
    "DiagnosticsReport",
    "Dynamics",
    "EmptySample",
    "EventLog",
    "HorizonNonPositive",
    "KsResult",
    "NegativeIntensity",
    "NonStationarySpec",
    "NumericalOverflow",
    "ProcessState",
    "ResidualSeries",
    "RootFindingFailure",
    "ScriptedUniforms",
    "SimulationMeta",
    "Spec",
    "SpecLogMismatch",
    "SpectralData",
    "UniformStream",
    "UnivariateSpec",
    "ValidationReport",
    "apply_event",
    "bound_after_event",
    "bound_constant",
    "bound_path",
    "bound_value",
    "build_companion",
    "channel_kernel",
    "compensator_increment",
    "dynamics",
    "exp_action",
    "initial_bound",
    "initial_state",
    "intensity_at",
    "intensity_path",
    "kolmogorov_survival",
    "ks_exp1",
    "load_spec",
    "read_events_csv",
    "residual_transform",
    "save_spec",
    "simulate",
    "spec_from_dict",
    "spec_hash",
    "spec_to_dict",
    "spectral_decompose",
    "state_vector",
    "stationary_rates",
    "summarize",
    "validate",
    "write_events_csv",
    "write_meta_json",
    "write_report_json",
    "write_residuals_csv",
]
