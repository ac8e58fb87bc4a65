"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all package-specific errors."""


class LayoutError(SimulationError):
    """Tensor-factor layouts are incompatible or a factor label is unknown."""


class StateError(SimulationError):
    """State data violates a state invariant (norm, trace, hermiticity)."""


class TruncationError(SimulationError):
    """A requested construction does not fit inside the Fock cutoff."""


class ConfigError(SimulationError):
    """A scenario configuration document is malformed."""


class DimensionError(ConfigError):
    """A dimension argument is invalid (e.g. Fock cutoff below 2)."""


class IntegrationError(SimulationError):
    """Master-equation integration failed; carries the time reached."""

    def __init__(self, message: str, time_reached: float):
        super().__init__(f"{message} (time reached: {time_reached:.6g})")
        self.time_reached = time_reached


class ShellRemovalError(SimulationError):
    """Gaussian-shell removal could not reach its targets.

    Carries the partially transformed state and the achieved residuals so
    callers can decide whether the partial result is usable.
    """

    def __init__(self, message: str, state=None, residuals=None):
        super().__init__(message)
        self.state = state
        self.residuals = residuals or {}
