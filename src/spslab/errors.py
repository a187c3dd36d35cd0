"""Exception and warning types shared across the package."""


class SpsLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SpsLabError):
    """Invalid parameters, grid sizes, or run configuration."""


class NumericalInputError(SpsLabError):
    """An input array contains NaN or Inf."""


class DegenerateFieldError(SpsLabError):
    """An operation that requires a nonzero field received the zero field."""


class UnboundedEnergyError(SpsLabError):
    """The energy fell below the configured floor during minimization.

    This is the expected signature of a mass/coupling regime where the
    constrained infimum is -infinity, not a solver bug.  ``trace`` lists
    the flow's [iteration, energy, gradient norm] points; the last one
    crossed the floor, and its gradient norm, never computed, is None.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class NumericalFailureError(SpsLabError):
    """A computation produced non-finite values it could not recover from."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class SnapshotFormatError(SpsLabError):
    """A field snapshot file is malformed or truncated."""


class ResolutionWarning(UserWarning):
    """A rescaled field no longer fits the grid resolution or the box."""
