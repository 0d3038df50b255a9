"""Exception types shared across the package, its three range rules (_positive for inputs,
exact even when subnormal, _finite for any real input, and _normal for computed numbers,
lossy when subnormal) and _Checked, the base whose records run their checks on every
construction."""

import math
import sys

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

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured size budget."""


class ConfigError(ValueError):
    """Invalid CLI or scan configuration."""


def _positive(name, value):
    """value if it is an int or float with 0 < value < inf; DomainError naming name otherwise."""
    if isinstance(value, (int, float)) and 0.0 < value < math.inf:
        return value
    raise DomainError("%s must be a positive finite number, got %r" % (name, value))


def _finite(name, value):
    """float(value) if value is a real number that converts to a finite float (numpy scalars,
    Fraction and Decimal included, text not); DomainError naming name otherwise."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if -math.inf < x < math.inf:
                return x
    raise DomainError("%s must be finite, got %r" % (name, value))


def _normal(name, value, *args):
    """value if a positive normal double, else DomainError on name % args, formatted only then."""
    if sys.float_info.min <= value < math.inf:
        return value
    raise DomainError("%s must be a positive normal double, got %r" % (name % args, value))


class _Checked:
    """Base listed before the namedtuple of a record with checks: every construction,
    _make and so _replace included, builds the tuple and then runs the record's _check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
