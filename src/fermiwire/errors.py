"""Exception types shared across the package, its number rules (_real, the one conversion
of an input to a number, under _positive and _finite, which are exact even when subnormal;
_normal for computed numbers, lossy when subnormal, and its bound _NORMAL_MIN) and
_Checked, the base whose records run their checks on every construction."""

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


def _real(value):
    """value itself if an int or float, float(value) for any other real (numpy scalars,
    Fraction, Decimal); None for text and for what float() refuses (None, complex, an int
    past double range)."""
    if isinstance(value, (str, bytes, bytearray)):
        return None
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return value if isinstance(value, (int, float)) else x


def _positive(name, value):
    """_real(value) if it is a number with 0 < value < inf; DomainError naming name otherwise."""
    x = _real(value)
    if x is not None and 0.0 < x < math.inf:
        return x
    raise DomainError("%s must be a positive finite number, got %r" % (name, value))


def _finite(name, value):
    """float(value) if value is a number whose float is finite; DomainError naming name
    otherwise.  An int comes back as a float too: the kernel squares ln z, and an int
    square past double range would raise OverflowError where a float one reads inf."""
    x = _real(value)
    if x is not None and -math.inf < x < math.inf:
        return float(x)
    raise DomainError("%s must be finite, got %r" % (name, value))


# The least positive normal double: a computed number below it has kept fewer than 53 bits.
_NORMAL_MIN = sys.float_info.min


def _normal(name, value, *args):
    """value if a positive normal double, else DomainError on name % args, formatted only then."""
    if _NORMAL_MIN <= value < math.inf:
        return value
    raise DomainError("%s must be a positive normal double, got %r" % (name % args, value))


class _Checked:
    """Base listed before the namedtuple of a record with checks: every construction,
    _make and so _replace included, builds the tuple, runs the record's _check on it and
    stores the fields _check returns, each number as its rule returned it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        fields = super().__new__(cls, *args, **kwargs)._check()
        return super().__new__(cls, *fields)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
