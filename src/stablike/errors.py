"""Shared exception types for the stablike package."""


class StablikeError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(StablikeError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class TableOverflowError(DomainError):
    """A density table's values overflow a double: f(0) = Gamma(1 + 1/alpha)/pi."""


class ConvergenceError(StablikeError, RuntimeError):
    """A series or iteration failed to reach the requested tolerance.

    Carries the partial value and the estimated absolute error so callers
    can decide whether the partial result is still usable.
    """

    def __init__(self, message, partial=None, est_abs_error=None):
        super().__init__(message)
        self.partial = partial
        self.est_abs_error = est_abs_error


class QuadratureError(StablikeError, RuntimeError):
    """A quadrature rule did not converge. Carries the partial estimate."""

    def __init__(self, message, partial=None, est_abs_error=None):
        super().__init__(message)
        self.partial = partial
        self.est_abs_error = est_abs_error


class ConfigError(StablikeError, ValueError):
    """Configuration failed validation. Carries the full list of problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
