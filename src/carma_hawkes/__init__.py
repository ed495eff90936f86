"""Simulation and diagnostics for self-exciting point processes whose
excitation kernel is the impulse response of a continuous-time state-space
(CARMA) system, with any number of components.

Core pieces:

* spectral  -- companion-matrix spectra and the constants behind the
               dominating intensity envelope
* model     -- model specs, admissibility validation, modal states along a
               recorded log
* thinning  -- rejection sampling against the recursive envelope
* diagnostics -- residual analysis and a KS test against Exp(1)
* cli       -- the `carma-hawkes` command-line front end

Imports are lazy (PEP 562): `import carma_hawkes` loads no submodule, and
a public name imports its submodule on first use and is then kept here, so
a call loads only the modules it runs: load_spec, dynamics and validate load
errors, spectral and model alone.  The submodules resolve as attributes too
(carma_hawkes.model, ...).  No submodule imports numpy when it loads: the
functions that make or read arrays import it, so a run that makes none,
such as a CLI simulate whose spec constants are cached, never loads it.
The per-event references that the fast paths are tested against are not
part of the package: they live with the tests.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "diagnostics": (
        "ComponentDiagnostics",
        "DiagnosticsReport",
        "KsResult",
        "ResidualSeries",
        "kolmogorov_survival",
        "ks_exp1",
        "residual_transform",
        "summarize",
        "write_report_json",
        "write_residuals_csv",
    ),
    "errors": (
        "BoundViolation",
        "CarmaHawkesError",
        "DegenerateEigenvalues",
        "EmptySample",
        "HorizonNonPositive",
        "NanSample",
        "NonStationarySpec",
        "NumericalOverflow",
        "RootFindingFailure",
        "SpecLogMismatch",
        "ZeroEigenvalue",
    ),
    "model": (
        "BivariateSpec",
        "Dynamics",
        "Spec",
        "UnivariateSpec",
        "ValidationReport",
        "channel_kernel",
        "dynamics",
        "intensity_path",
        "load_spec",
        "save_spec",
        "spec_from_dict",
        "spec_hash",
        "spec_to_dict",
        "stationary_rates",
        "validate",
    ),
    "spectral": (
        "SpectralData",
        "bound_constant",
        "build_companion",
        "spectral_decompose",
    ),
    "thinning": (
        "EventLog",
        "SimulationMeta",
        "UniformStream",
        "bound_path",
        "read_events_csv",
        "simulate",
        "simulate_into",
        "write_events_csv",
        "write_meta_json",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
