"""Verdicts, certificates and the shared tail/trend decision rules.

A finite prefix can never decide a limit claim, so every convergence verdict
is a windowed decision with hysteresis: PASS if the tail stays strictly below
tol, FAIL once it reaches 2*tol, INCONCLUSIVE in the band between.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .common import InputError, check_positive


class Verdict(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Certificate:
    """Structured verdict with numeric evidence series and an optional witness.

    A FAIL verdict always carries a witness describing what failed.
    """

    kind: str
    verdict: Verdict
    evidence: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    witness: str | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        if self.verdict is Verdict.FAIL and not self.witness:
            raise ValueError(f"FAIL certificate of kind {self.kind} requires a witness")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict.value,
            "witness": self.witness,
            "note": self.note,
            "evidence": {k: [float(x) for x in v] for k, v in self.evidence.items()},
        }


def default_window(n: int) -> int:
    """Tail window for a prefix of length n: 10% of n, at least 5, at most n."""
    return max(1, min(n, max(5, n // 10)))


def check_window(n: int, window: int | None) -> int:
    """The tail window for a prefix of length n: the default when None, else
    an integer in 1..n; a bool or a non-integral number is an input error."""
    if window is None:
        return default_window(n)
    if isinstance(window, bool) or not isinstance(window, numbers.Integral):
        raise InputError(f"window must be an integer, got {window!r}")
    if not 1 <= window <= n:
        raise InputError(f"window {window} outside 1..{n}")
    return int(window)


def tail_verdict(series: Sequence[float], window: int, tol: float) -> tuple[Verdict, float]:
    """Decide a 'tends to zero' claim from the last `window` entries.

    Returns (verdict, tail_max). PASS below tol, FAIL at or above 2*tol,
    INCONCLUSIVE in between.
    """
    check_positive("tol", tol)
    tail = series[len(series) - window:]
    m = max(tail)
    if m < tol:
        return Verdict.PASS, m
    if m >= 2 * tol:
        return Verdict.FAIL, m
    return Verdict.INCONCLUSIVE, m


def trend_verdict(series: Sequence[float], window: int, failing: str = "increasing") -> Verdict:
    """Decide a stabilization claim from the last `window` entries.

    PASS when the tail is constant, FAIL when it is strictly monotone in the
    `failing` direction ("increasing" or "decreasing"), INCONCLUSIVE otherwise.
    """
    tail = list(series[len(series) - window:])
    if all(x == tail[0] for x in tail):
        return Verdict.PASS
    pairs = list(zip(tail, tail[1:]))
    if failing == "increasing" and all(b > a for a, b in pairs):
        return Verdict.FAIL
    if failing == "decreasing" and all(b < a for a, b in pairs):
        return Verdict.FAIL
    return Verdict.INCONCLUSIVE


def combine_verdicts(verdicts: Iterable[Verdict]) -> Verdict:
    """Aggregate: any FAIL fails, else any INCONCLUSIVE is inconclusive."""
    out = Verdict.PASS
    for v in verdicts:
        if v is Verdict.FAIL:
            return Verdict.FAIL
        if v is Verdict.INCONCLUSIVE:
            out = Verdict.INCONCLUSIVE
    return out
