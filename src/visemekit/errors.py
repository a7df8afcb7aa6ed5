"""Exception types shared across the package, the integer rule and the
float32 rule.

The CLI maps these onto exit codes: ConstraintError -> 1, FormatError -> 2.
"""

import math

import numpy as np

__all__ = ["VisemekitError", "ConstraintError", "FormatError", "DivergenceError"]


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
    Window radii, step and basis counts, seeds and CLI counts share it.
    A Python int is taken as it is, however large."""
    integral = isinstance(value, int) or (math.isfinite(value) and int(value) == value)
    if not integral or value < minimum:
        bound = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ConstraintError(f"{name} must be {bound}, got {value}")
    return int(value)


def require_float32(value: float, name: str) -> None:
    """Raise ConstraintError if the positive `value` rounds to 0 or infinity
    in float32, the precision the MSQ header stores fps in."""
    with np.errstate(over="ignore"):  # the overflow is the error raised below
        stored = np.float32(value)
    if stored == 0 or np.isinf(stored):
        raise ConstraintError(f"{name} {value} rounds to {stored} in the MSQ header's float32")
