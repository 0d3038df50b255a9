"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "CondensationError",
    "SingularityError",
    "ConvergenceError",
    "ResourceLimitError",
    "ConfigError",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CondensationError(DomainError):
    """Bose-Einstein constraint violated: the requested state needs z > 1."""


class SingularityError(DomainError):
    """Bose-Einstein occupation evaluated at or past its pole."""


class ConvergenceError(RuntimeError):
    """An iterative solver or quadrature failed to reach its tolerance."""

    def __init__(self, message, bracket=None, error_estimate=None):
        super().__init__(message)
        self.bracket = bracket
        self.error_estimate = error_estimate


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured size budget."""


class ConfigError(ValueError):
    """Invalid CLI or scan configuration."""
