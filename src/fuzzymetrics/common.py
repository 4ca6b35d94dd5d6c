"""Shared tolerance, error type, parameter checks and number formatting."""

from __future__ import annotations

import math
import numbers
from functools import cache

import numpy as np

# Absolute tolerance for real comparisons and point identity. All inputs are
# small decimal literals, so a single absolute tolerance is adequate.
TOL = 1e-9


class InputError(ValueError):
    """Invalid input to a library operation. The CLI maps this to exit code 2."""


def check_positive(name: str, x: float) -> None:
    """Reject a radius or tolerance unless it is a real number, finite and > 0.

    NaN fails every comparison, so a NaN eps would silently cover nothing and
    a NaN tol would never pass or fail; both are input errors instead.
    """
    if not (real(name, x) > 0 and math.isfinite(x)):
        raise InputError(f"{name} must be finite and positive, got {x}")


@cache
def is_real(kind: type) -> bool:
    """Whether values of this type are real numbers; bool is not, nor is a
    string, nor a numpy timedelta64, a duration that numpy registers as an
    integer, so none is ever coerced to a number."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, (bool, np.timedelta64))


@cache
def is_index(kind: type) -> bool:
    """Whether values of this type are integers: the real numbers (is_real)
    that are integral."""
    return issubclass(kind, numbers.Integral) and is_real(kind)


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
    """x if it is an integer (is_index) in least..most, else an InputError
    naming the field; a bool or a non-integral number is not an integer."""
    if not (is_index(type(x)) and least <= x <= most):
        bound = f">= {least}" if most == math.inf else f"in {least}..{most}"
        raise InputError(f"{name} must be an integer {bound}, got {x!r}")
    return x


# Most levels a grid built from a size may hold: a larger size is an input
# error rather than a list of that many levels.
MAX_GRID_LEVELS = 10_000


def check_grid_size(n: int) -> int:
    """n if it is a grid size in 1..MAX_GRID_LEVELS, else an InputError.
    Every alpha grid built from a size passes here before it is built."""
    return check_integer("alpha grid size", n, 1, MAX_GRID_LEVELS)


def check_alpha_grid(alphas, closed: bool) -> tuple[float, ...]:
    """An explicit alpha grid as floats: nonempty, each level real and in
    (0,1), or (0,1] when `closed`, and no two alike under fmt, which keys a
    report's parts and series by level; else an InputError."""
    grid = tuple(real("alpha", a) for a in alphas)
    if not grid:
        raise InputError("empty alpha grid")
    seen: set[str] = set()
    for a in grid:
        if not (0.0 < a < 1.0 or closed and a == 1.0):
            raise InputError(f"alpha {a} outside (0,1{']' if closed else ')'}")
        if fmt(a) in seen:
            raise InputError(f"alpha {fmt(a)} appears twice in the alpha grid")
        seen.add(fmt(a))
    return grid


def fmt(x: float) -> str:
    """Format a number with 9 significant digits, '.' decimal, no locale."""
    return f"{float(x):.9g}"
