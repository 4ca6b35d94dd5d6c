"""Shared spaces, the row-block caps, seeded corpus builders, and the
point-level lifted metric and family union cut that the tests check the
library against."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from fuzzymetrics import (
    FiniteSet,
    FuzzyFamily,
    InputError,
    MetricSpace,
    StepFuzzySet,
    alpha_cut,
    crisp,
    finite_set,
    make_fuzzy,
    union_family,
)
from fuzzymetrics import space as space_module
from fuzzymetrics.generators import random_fuzzy

SP1 = MetricSpace.euclidean(1)
SP2 = MetricSpace.euclidean(2)

# the default BLOCK_BYTES, and a cap that forces one row per block
CAPS = (space_module.BLOCK_BYTES, 8)


def singleton(x: float, space: MetricSpace = SP1) -> StepFuzzySet:
    """Crisp singleton at x on the first axis."""
    return crisp(space, [(float(x),) + (0.0,) * (space.dim - 1)])


def two_level() -> StepFuzzySet:
    """The running two-level example: membership 1 at 0 and 0.5 at 1."""
    return make_fuzzy(
        [(1.0, finite_set(SP1, [0.0])), (0.5, finite_set(SP1, [0.0, 1.0]))]
    )


def fuzzy_corpus(
    count: int,
    seed: int,
    space: MetricSpace = SP1,
    box: tuple[float, float] = (0.0, 2.0),
    max_levels: int = 4,
    max_points: int = 5,
) -> list[StepFuzzySet]:
    rng = np.random.default_rng(seed)
    return [
        random_fuzzy(space, rng, box=box, max_levels=max_levels, max_points=max_points)
        for _ in range(count)
    ]


def part_series(cert, side: int = 0) -> tuple[tuple[float, ...], ...]:
    """The evidence series of each part of a tail certificate, in part order:
    its first named series, or with side=1 its second."""
    return tuple(cert.evidence[list(p.tail_max)[side]] for p in cert.parts)


def part_maxima(cert, side: int = 0) -> tuple[float, ...]:
    """The tail maxima that part_series(cert, side) reads the series of."""
    return tuple(list(p.tail_max.values())[side] for p in cert.parts)


def distance(space: MetricSpace, p, q) -> float:
    """Metric distance d(p, q) in the given space, each point a coordinate
    sequence (a bare number in dimension 1) or an index."""
    return space.distance(p, q)


@dataclass(frozen=True)
class LiftedPoint:
    """A point of space x [0,1]: a base point (a coordinate tuple or an int
    index) together with a level."""

    point: tuple[float, ...] | int
    level: float

    def __post_init__(self) -> None:
        real = isinstance(self.level, numbers.Real) and not isinstance(self.level, bool)
        if not real or not 0.0 <= self.level <= 1.0:
            raise InputError(f"level {self.level!r} is not a real number in [0,1]")


def lifted_distance(space: MetricSpace, a: LiftedPoint, b: LiftedPoint) -> float:
    """Distance on space x [0,1]: d(x, y) + |level(a) - level(b)|."""
    return space.distance(a.point, b.point) + abs(a.level - b.level)


def family_union_cut(family: FuzzyFamily, alpha: float) -> FiniteSet:
    """Union of the member cuts at a level in (0,1]."""
    return union_family([alpha_cut(u, alpha) for u in family.members])
