"""Verdicts, certificates and the shared tail/trend decision rules.

A finite prefix can never decide a limit claim, so every convergence verdict
is a windowed decision with hysteresis: PASS if the tail stays strictly below
tol, FAIL once it reaches 2*tol, INCONCLUSIVE in the band between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .common import check_integer, check_positive, fmt


class Verdict(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class TailPart:
    """One windowed decision of a certificate: the tail maximum of each of
    its evidence series, by evidence key, and the verdict on the largest."""

    key: str
    verdict: Verdict
    tail_max: Mapping[str, float]


@dataclass(frozen=True)
class Certificate:
    """Structured verdict with numeric evidence series and an optional witness.

    A FAIL verdict always carries a witness describing what failed. A
    certificate decided on series tails lists its decisions in `parts`, in
    order.
    """

    kind: str
    verdict: Verdict
    evidence: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    witness: str | None = None
    note: str | None = None
    parts: tuple[TailPart, ...] = ()

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
            "parts": [{"key": p.key, "verdict": p.verdict.value, "tail_max": dict(p.tail_max)}
                      for p in self.parts],
        }


def default_window(n: int) -> int:
    """Tail window for a prefix of length n: 10% of n, at least 5, at most n."""
    return max(1, min(n, max(5, n // 10)))


def check_window(n: int, window: int | None) -> int:
    """The tail window for a prefix of length n: the default when None, else
    an integer in 1..n; a bool or a non-integral number is an input error."""
    return default_window(n) if window is None else int(check_integer("window", window, 1, n))


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


def tail_certificate(
    kind: str,
    parts: Sequence[tuple[str, Mapping[str, tuple[float, ...]]]],
    window: int | None,
    tol: float,
    **evidence: tuple[float, ...],
) -> Certificate:
    """Certificate of windowed tail decisions, one per part.

    Each part is a key and its named series, all of one length n. Each
    series' tail maximum is taken over its last `window` entries (resolved
    by check_window), and each part is decided, as tail_verdict decides,
    on the largest of its series' maxima. The verdict combines the parts';
    a FAIL names the first failing part. The evidence holds every series by
    name, then the resolved window and tol, then the given extra evidence.
    """
    series = {name: s for _, named in parts for name, s in named.items()}
    window = check_window(len(next(iter(series.values()))), window)
    decided = []
    for key, named in parts:
        maxima = {name: max(s[len(s) - window:]) for name, s in named.items()}
        decided.append(TailPart(key, tail_verdict((max(maxima.values()),), 1, tol)[0], maxima))
    verdict = combine_verdicts(p.verdict for p in decided)
    failed = next((p for p in decided if p.verdict is Verdict.FAIL), None)
    return Certificate(
        kind=kind,
        verdict=verdict,
        evidence={**series, "window": (window,), "tol": (tol,), **evidence},
        witness=failed and f"{failed.key}: tail max {fmt(max(failed.tail_max.values()))} at or above 2*tol",
        parts=tuple(decided),
    )


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
