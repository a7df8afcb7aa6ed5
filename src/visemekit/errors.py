"""Exception types shared across the package, and the integer rule.

The CLI maps these onto exit codes: ConstraintError -> 1, FormatError -> 2.
"""

import math


class VisemekitError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintError(VisemekitError, ValueError):
    """A domain precondition or invariant was violated (bad shapes, infeasible
    window, non-finite values, diverging optimization, ...)."""


class FormatError(VisemekitError, ValueError):
    """A file could not be parsed or failed its format-level validation."""


class DivergenceError(ConstraintError):
    """Optimization produced a non-finite loss."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"loss became non-finite at step {step}")


def require_integer(value, name: str, minimum: int = 0) -> int:
    """Return `value` as an int, or raise ConstraintError unless it is a
    finite integral number >= minimum (so 3.0 passes and 2.5 or nan fail).
    Window radii, step and basis counts, seeds and CLI counts share it."""
    if not math.isfinite(value) or int(value) != value or value < minimum:
        bound = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ConstraintError(f"{name} must be {bound}, got {value}")
    return int(value)
