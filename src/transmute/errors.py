"""Exception types shared across the package, and the four rules by which it reads
every number a caller hands it: finite_number, real_numbers, count and positive_number."""

import math

import numpy as np


class TransmuteError(Exception):
    """Base class for every error raised by this library."""


class ExpressionError(TransmuteError):
    """Problem with the coefficient DSL (parsing or evaluation)."""


class ParseError(ExpressionError):
    """Syntax error in an expression string.

    Carries the byte offset into the source text and, when known, a hint
    about what the parser expected at that position.
    """

    def __init__(self, message, offset, expected=None):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class UnboundSymbolError(ExpressionError):
    """An identifier had no entry in the binding map."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"unbound symbol {name!r}")


class DomainError(TransmuteError):
    """Evaluation left the mathematical domain (log of a non-positive
    number, fractional power of a negative base, |x|' at 0, ...).

    Raised instead of letting NaN or inf propagate.
    """


class SpecFunError(TransmuteError):
    """Base class for special-function failures."""


class PoleError(SpecFunError):
    """Argument sits on a pole of the function."""


class RangeError(SpecFunError):
    """Argument outside the supported accuracy box."""


class ConvergenceError(SpecFunError):
    """An iteration or series failed to converge within its cap."""


class AdmissibilityError(TransmuteError):
    """Case parameters violate a stated admissibility constraint."""

    def __init__(self, constraint, detail=""):
        self.constraint = constraint
        msg = f"{constraint} violated"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UsageError(TransmuteError):
    """Bad configuration or command-line usage."""


class NumericalError(TransmuteError):
    """A numerical pipeline produced a non-finite value or failed wholesale."""


def finite_number(value, what, kind=UsageError):
    """``float(value)``, refused with ``kind`` where that fails or is not finite,
    and for a numpy complex scalar, which float() cuts to its real part."""
    try:
        number = math.nan if isinstance(value, np.complexfloating) else float(value)
    except OverflowError:  # an int past the float range, whose digits may be too many to print
        raise kind(f"{what} must be a finite number, got a number beyond the float range") from None
    except (TypeError, ValueError):
        number = math.nan
    if number - number != 0.0:
        raise kind(f"{what} must be a finite number, got {value!r}")
    return number


def positive_number(value, what, kind=UsageError):
    """``finite_number(value)``, refused with ``kind`` unless above zero."""
    if not (number := finite_number(value, what, kind)) > 0.0:
        raise kind(f"{what} must be a positive finite number, got {value!r}")
    return number


def count(value, what, kind=UsageError):
    """``int(value)``, refused with ``kind`` unless an integer: numpy's integers are, bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise kind(f"{what} must be an integer, got {value!r}")
    return int(value)


def real_numbers(values, what, kind=UsageError):
    """``values`` as a C-contiguous array of doubles of their shape (the array
    itself if it is one), refused with ``kind`` unless bool, integer or float."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError):  # a ragged nesting, say
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise kind(f"{what} must be real numbers, got {values!r}")
    return np.asarray(array, dtype=float, order="C")
