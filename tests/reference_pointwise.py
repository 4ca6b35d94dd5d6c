"""Plain-Python reference for the point-set layer.

These are the per-Point routines that preceded the array kernel: one Python
distance call per pair of points, keep-first greedy scans in input order.
Sets are tuples of Point values. test_differential.py compares the library
against them.
"""

from __future__ import annotations

import math
import operator

from fuzzymetrics import TOL, InputError, Point
from fuzzymetrics.space import EUCLIDEAN


def distance(space, p: Point, q: Point) -> float:
    if space.mode == EUCLIDEAN:
        return math.dist(p.coords, q.coords)
    return space.matrix[p.index][q.index]


def as_point(space, raw) -> Point:
    if isinstance(raw, Point):
        return raw
    if space.mode == EUCLIDEAN:
        if isinstance(raw, (int, float)):
            raw = (raw,)
        return Point(coords=tuple(float(c) for c in raw))
    return Point(index=operator.index(raw))


def finite_set(space, points) -> tuple[Point, ...]:
    kept: list[Point] = []
    for raw in points:
        p = as_point(space, raw)
        if not any(distance(space, p, q) <= TOL for q in kept):
            kept.append(p)
    if not kept:
        raise InputError("finite set must be nonempty")
    return tuple(kept)


def union_family(space, family) -> tuple[Point, ...]:
    kept: list[Point] = []
    for s in family:
        for p in s:
            if not any(distance(space, p, q) <= TOL for q in kept):
                kept.append(p)
    return tuple(kept)


def eps_net(space, a, eps: float) -> tuple[Point, ...]:
    centers: list[Point] = []
    for p in a:
        if all(distance(space, p, c) > eps for c in centers):
            centers.append(p)
    return tuple(centers)


def directed_hausdorff(space, a, b) -> float:
    return max(min(distance(space, pa, pb) for pb in b) for pa in a)


def membership(space, levels, x: Point) -> float:
    """levels: (alpha, cut) pairs from 1.0 down, cuts as tuples of Points."""
    for a, cut in levels:
        if any(distance(space, x, p) <= TOL for p in cut):
            return a
    return 0.0
