"""Shared tolerance, error type, parameter checks and number formatting."""

from __future__ import annotations

import math
import numbers
from functools import cache

# Absolute tolerance for real comparisons and point identity. All inputs are
# small decimal literals, so a single absolute tolerance is adequate.
TOL = 1e-9


class InputError(ValueError):
    """Invalid input to a library operation. The CLI maps this to exit code 2."""


def check_positive(name: str, x: float) -> None:
    """Reject a radius or tolerance parameter unless it is finite and > 0.

    NaN fails every comparison, so a NaN eps would silently cover nothing and
    a NaN tol would never pass or fail; both are input errors instead.
    """
    if not (x > 0 and math.isfinite(x)):
        raise InputError(f"{name} must be finite and positive, got {x}")


@cache
def is_real(kind: type) -> bool:
    """Whether values of this type are real numbers; bool is not, and
    neither is a string, so neither is ever coerced to a number."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def real(name: str, x) -> float:
    """x as a float if it is a real number within float range, else an
    InputError naming the field; NaN and infinities are left to the caller."""
    if is_real(type(x)):
        try:
            return float(x)
        except OverflowError:
            pass
    raise InputError(f"{name} must be a real number within float range, got {x!r}")


def check_integer(name: str, x, least: int, most: float = math.inf) -> int:
    """x if it is an integer in least..most, else an InputError naming the
    field; a bool or a non-integral number is not an integer."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or not least <= x <= most:
        bound = f">= {least}" if most == math.inf else f"in {least}..{most}"
        raise InputError(f"{name} must be an integer {bound}, got {x!r}")
    return x


def fmt(x: float) -> str:
    """Format a number with 9 significant digits, '.' decimal, no locale."""
    return f"{float(x):.9g}"
