"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: usage errors -> 2, numerical failures
(fitting, statistics) -> 3, invariant violations -> 4.
"""


class EprSimError(Exception):
    """Base class for all package errors."""


class InvariantViolationError(EprSimError):
    """A declared data invariant does not hold (bad covariance, populations...)."""


class DegeneratePolarizationError(EprSimError):
    """Macroscopic spin vanished; canonical variables are undefined."""


class ModelViolationError(EprSimError):
    """Rate-model state left its physical domain beyond tolerance."""


class NoInformationError(EprSimError):
    """Zero coupling or degenerate statistic; nothing can be inferred."""


class StatisticsError(EprSimError):
    """Insufficient samples for the requested estimate."""


class FitFailureError(EprSimError):
    """Optimizer did not converge; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class IdentifiabilityError(EprSimError):
    """Singular information matrix; names the degenerate direction."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction
