"""Exception types raised by the numerical core."""


class NumericalFailure(Exception):
    """A computation that ran on valid input did not produce a trusted result."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class StepFailure(NumericalFailure, RuntimeError):
    """The adaptive ODE integrator could not meet its tolerance."""


class BracketingFailure(NumericalFailure, RuntimeError):
    """No sign change of the shooting classification was found."""


class MonotonicityViolation(NumericalFailure, RuntimeError):
    """A computed ground-state profile is not strictly decreasing."""


class PoorFit(NumericalFailure, RuntimeError):
    """The samples near r_max depart from the tail model by more than its tolerance."""


class QuadratureNonConvergent(NumericalFailure, RuntimeError):
    """Adaptive quadrature refinement stalled above tolerance."""


class TailDivergent(NumericalFailure, RuntimeError):
    """Exponent bookkeeping says a tail integral diverges; bad profile."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""
