"""Exception types shared across the package."""


class CarmaHawkesError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateEigenvalues(CarmaHawkesError):
    """Characteristic roots are closer than the distinctness tolerance."""


class RootFindingFailure(CarmaHawkesError):
    """Polynomial root residuals exceeded tolerance."""


class NumericalOverflow(CarmaHawkesError):
    """A matrix-exponential factor would overflow (positive decay and large dt)."""


class NonStationarySpec(CarmaHawkesError):
    """Simulation refused: the spec failed validation and no override was given."""


class ZeroEigenvalue(CarmaHawkesError, ValueError):
    """An AR root is exactly 0: the compensator's closed form divides by
    every root, so it is undefined."""


class HorizonNonPositive(CarmaHawkesError, ValueError):
    """Simulation horizon must be a finite positive number."""


class BoundViolation(CarmaHawkesError):
    """Intensity exceeded its dominating envelope; indicates a bug in the
    envelope constants, never expected on a correct build."""


class EmptySample(CarmaHawkesError, ValueError):
    """A statistic was requested on an empty sample."""


class NanSample(CarmaHawkesError, ValueError):
    """A statistic was requested on a sample that holds NaN values."""


class SpecLogMismatch(CarmaHawkesError, ValueError):
    """Event-log metadata, or a mark, does not match the model spec it was
    paired with."""
