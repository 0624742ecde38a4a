"""Exception types, and the number check of the JSON readers, shared across the package."""

from sys import float_info


class ValidationError(ValueError):
    """Raised when input data violates a documented invariant."""


class SolverError(RuntimeError):
    """Raised when an iterative solver fails to converge.

    Carries the best residual seen so that callers can report diagnostics.
    """

    def __init__(self, message, residual=None, iterate=None):
        super().__init__(message)
        self.residual = residual
        self.iterate = iterate


def json_number(value):
    """value itself, unless it is a string or a bool: float() would read "0.3"
    as a number and True passes an index or sign test as 1; or a NaN or an
    infinity, which json.load reads from NaN and Infinity, or an integer above
    the largest float, which float() raises OverflowError on.  Raises TypeError
    or ValueError, which each JSON reader turns into ValidationError."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"expected a number, got {value!r}")
    if isinstance(value, (int, float)) and not abs(value) <= float_info.max:
        raise ValueError("expected a finite number within the float range")
    return value
