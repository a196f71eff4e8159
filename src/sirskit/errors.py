"""Exception types shared across the toolkit."""


class SirsKitError(Exception):
    """Base class for all toolkit errors."""


class EvaluationError(SirsKitError):
    """An incidence or field evaluation produced a non-finite value."""


class LimitConvergenceError(SirsKitError):
    """The small-I limit extrapolation did not converge."""


class HypothesisViolationError(SirsKitError):
    """A structural hypothesis required by an operation does not hold."""


class BracketFailureError(SirsKitError):
    """R0 > 1, yet the equilibrium function does not change sign across
    its bracket; the message gives its values at both ends."""


class VerificationError(SirsKitError):
    """A candidate equilibrium failed the vector-field residual check."""


class SingularPointError(SirsKitError):
    """A secant slope was requested at the equilibrium abscissa."""


class DegenerateParameterError(SirsKitError):
    """A parameter degeneracy (gamma2 = 0) leaves a default undefined."""


class InvarianceViolationError(SirsKitError):
    """A trajectory left the feasible region by more than the allowed slack."""


class BlowUpError(SirsKitError):
    """A trajectory became non-finite or the step size underflowed."""


class ConfigError(SirsKitError):
    """Malformed or invalid model configuration."""
