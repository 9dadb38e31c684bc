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


def check_sizes(least: int | None, **sizes: int) -> None:
    """Raise InvalidArgument unless every keyword size is an int, at least ``least`` if given."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise InvalidArgument(f"{name} must be an int, got {value!r}")
        if least is not None and value < least:
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


def check_alpha(alpha) -> None:
    """Raise UnsupportedRegime unless alpha is a positive integer, the only
    alpha for which t = q^alpha keeps every scalar a rational function of q."""
    if not (isinstance(alpha, int) and alpha >= 1):
        raise UnsupportedRegime(f"alpha must be a positive integer, got {alpha!r}")
