"""Shared tolerance, error type, parameter check and number formatting."""

from __future__ import annotations

import math

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


def fmt(x: float) -> str:
    """Format a number with 9 significant digits, '.' decimal, no locale."""
    return f"{float(x):.9g}"
