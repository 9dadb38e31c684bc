"""Exception types shared across the package."""


class QtError(Exception):
    """Base class for all package-specific errors."""


class DegenerateParameters(QtError):
    """A required denominator factor (1 - q^a t^b, or one involving an
    auxiliary scalar) vanishes at the chosen parameter point."""


class PoleAtOne(QtError):
    """A rational function of q has no finite limit at q = 1."""


class NotAPartition(QtError, ValueError):
    """An integer vector is not weakly decreasing (or has a negative part
    where none is allowed)."""


class InvalidArgument(QtError, ValueError):
    """An unknown W kind, a missing auxiliary scalar, or a size too small."""


def check_sizes(least: int, **sizes: int) -> None:
    """Raise InvalidArgument unless every keyword size is at least ``least``."""
    for name, value in sizes.items():
        if value < least:
            raise InvalidArgument(f"{name} must be at least {least}, got {value}")


class LengthMismatch(QtError, ValueError):
    """Two partitions that must share the same fixed length do not."""


class NotARational(QtError, TypeError):
    """A value that cannot be read as an exact rational (a float, say)."""


class InvalidLiteral(QtError, ValueError):
    """A string that is not a "p" or "p/q" rational literal."""


class DivisionByZero(QtError, ZeroDivisionError):
    """An exact division by zero: a zero denominator in a rational literal or
    a rational function, or 0 to a negative power."""


class NotAStrip(QtError):
    """A skew pair lambda/mu is not a horizontal strip where one is required."""


class ConvergenceViolated(QtError):
    """Parameters fall outside the convergence region of an infinite sum
    or product."""


class UnsupportedRegime(QtError):
    """The operation is only defined for a restricted parameter regime
    (e.g. sampling requires the positivity regime, a limit mode is not
    available for this input)."""
