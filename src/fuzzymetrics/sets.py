"""Finite compact-set surrogates and the Hausdorff machinery on them.

FiniteSet is a nonempty deduplicated point array standing in for a nonempty
compact subset of the space. On such sets the Hausdorff metric, greedy
eps-nets, set-sequence tail diagnostics and the constructive Cauchy limit are
all exactly computable. Every distance comes from `space.dist_matrix`, or
for identity at TOL from the near-pair search `space._near`, which shares
its arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .certificates import Certificate, tail_certificate
from .common import TOL, InputError, check_positive
from .space import MetricSpace, _near, dist_matrix


@dataclass(frozen=True, eq=False)
class FiniteSet:
    """Nonempty finite point set over one space, duplicates removed.

    `array` holds the points read-only: (n, dim) floats in Euclidean mode,
    an index vector in finite mode. Sets compare and hash by identity, so a
    cut can key a cache of distances.
    """

    space: MetricSpace
    array: np.ndarray

    def __post_init__(self) -> None:
        self.array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.array)


def _keep_first(space: MetricSpace, pts: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the keep-first greedy scan in input order: each point farther than
    radius from every point kept before it, measuring d(new, kept), is kept."""
    kept = np.zeros(len(pts), dtype=bool)
    step = space.block_rows(len(pts))
    for begin in range(0, len(pts), step):
        stop = begin + step
        near = dist_matrix(space, pts[begin:stop], pts[:stop]) <= radius
        for i, row in enumerate(near):
            # later rows are still False, so only earlier kept points count
            kept[begin + i] = not row.dot(kept[:stop])
    return kept


def _dedup(space: MetricSpace, pts: np.ndarray) -> np.ndarray:
    """Mask of the keep-first scan at TOL from the near pairs of the points
    with themselves. A point with no earlier point within TOL, measuring
    d(new, earlier), is kept outright; the others are kept, in input order,
    iff none of those is kept (a row split over chunks, by every part)."""
    kept = np.ones(len(pts), dtype=bool)
    for i, j in _near(space, pts, pts, TOL):
        earlier = j < i
        if not earlier.any():
            continue
        rows, starts = np.unique(i[earlier], return_index=True)
        for r, js in zip(rows.tolist(), np.split(j[earlier], starts[1:])):
            kept[r] &= not kept[js].any()
    return kept


def _held(space: MetricSpace, points: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Mask of the points of a point array within TOL of some point of
    `cut`, measuring d(point, cut point)."""
    held = np.zeros(len(points), dtype=bool)
    for i, _ in _near(space, points, cut, TOL):
        held[i] = True
    return held


def _greedy(space: MetricSpace, pts: np.ndarray, radius: float, start: np.ndarray | None = None) -> np.ndarray:
    """The points the keep-first scan keeps; those of `start` count as kept."""
    if start is not None and len(start):
        # a point covered by `start` is never kept, so it affects no later point
        pts = pts[dist_matrix(space, pts, start).min(axis=1) > radius]
    return pts[_keep_first(space, pts, radius)]


def finite_set(space: MetricSpace, points: Iterable) -> FiniteSet:
    """Build a FiniteSet, validating points and deduplicating at tolerance.

    Points are coordinate tuples (or bare numbers in dimension 1) for
    Euclidean spaces, or integer indices for finite spaces.
    Input order is preserved for the points that survive deduplication.
    """
    pts = space.point_array(points)
    if not len(pts):
        raise InputError("finite set must be nonempty")
    return FiniteSet(space=space, array=pts[_dedup(space, pts)])


def _check_pair(a: FiniteSet, b: FiniteSet) -> None:
    if a.space != b.space:
        raise InputError("sets live in different spaces")
    if not len(a) or not len(b):
        raise InputError("sets must be nonempty")


def directed_hausdorff(a: FiniteSet, b: FiniteSet) -> float:
    """One-sided Hausdorff distance: max over a of the distance to b."""
    _check_pair(a, b)
    return float(dist_matrix(a.space, a.array, b.array).min(axis=1).max())


def hausdorff(a: FiniteSet, b: FiniteSet) -> float:
    """Hausdorff distance: max of the two directed distances."""
    _check_pair(a, b)
    d = dist_matrix(a.space, a.array, b.array)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def eps_net(a: FiniteSet, eps: float) -> FiniteSet:
    """Greedy eps-net: scan in input order, keep each first uncovered point.

    The result is a subset of `a` and every point of `a` lies within eps of
    it. Greedy order is fixed by the input order, never by scheduling, so the
    net is deterministic.
    """
    check_positive("eps", eps)
    return FiniteSet(space=a.space, array=_greedy(a.space, a.array, eps))


def _family_space(family: Sequence[FiniteSet]) -> MetricSpace:
    if not family:
        raise InputError("union of an empty family")
    space = family[0].space
    if any(s.space != space for s in family):
        raise InputError("family members live in different spaces")
    return space


def union_family(family: Sequence[FiniteSet]) -> FiniteSet:
    """Deduplicated union of a nonempty family, first-occurrence order."""
    space = _family_space(family)
    pts = np.concatenate([s.array for s in family])
    return FiniteSet(space=space, array=pts[_dedup(space, pts)])


def _prefix_unions(family: Sequence[FiniteSet]) -> Iterator[tuple[FiniteSet, np.ndarray]]:
    """The union of each prefix of a nonempty family, with the points its
    last member added.

    The keep-first scan of a prefix of the points keeps a prefix of what the
    scan of all of them keeps, so one scan of the whole family gives every
    prefix union: prefix k is the kept points up to member k's end, and it
    equals union_family(family[:k+1]).
    """
    space = _family_space(family)
    pts = np.concatenate([s.array for s in family])
    kept = _dedup(space, pts)
    union = pts[kept]
    sizes = np.cumsum(kept)[np.cumsum([len(s) for s in family]) - 1].tolist()
    for before, size in zip([0] + sizes, sizes):
        yield FiniteSet(space=space, array=union[:size]), union[before:size]


def prefix_net_sizes(family: Sequence[FiniteSet], eps: float) -> tuple[int, ...]:
    """Greedy eps-net size of each prefix union of a nonempty family.

    The greedy net of a prefix union only gains centers at its end, so only
    the points each member adds to the union are tested against the centers
    so far; entry k equals len(eps_net(union_family(family[:k+1]), eps)).
    """
    check_positive("eps", eps)
    space = _family_space(family)
    centers = family[0].array[:0]
    sizes = []
    for _, fresh in _prefix_unions(family):
        centers = np.concatenate([centers, _greedy(space, fresh, eps, centers)])
        sizes.append(len(centers))
    return tuple(sizes)


def kuratowski_tail_diagnostic(
    prefix: Sequence[FiniteSet],
    target: FiniteSet,
    window: int | None = None,
    tol: float = 1e-3,
) -> Certificate:
    """Tail evidence for set convergence of a sequence prefix toward C.

    Evidence "liminf_deficit" holds the directed distance from C into each
    C_n (how far C is from being reached by the sequence), "limsup_excess"
    the directed distance from C_n into C (how far the sequence sticks out
    of C). Both tails small certifies the two-sided sandwich on any common
    compact superset; the one part, "sandwich", is decided on the larger of
    the two tail maxima.
    """
    if not prefix:
        raise InputError("empty sequence prefix")
    deficit = tuple(directed_hausdorff(target, c) for c in prefix)
    excess = tuple(directed_hausdorff(c, target) for c in prefix)
    return tail_certificate(
        "KURATOWSKI_TAIL", [("sandwich", {"liminf_deficit": deficit, "limsup_excess": excess})], window, tol
    )


def cauchy_limit_construct(
    prefix: Sequence[FiniteSet],
) -> tuple[list[FiniteSet], FiniteSet, list[float]]:
    """Constructive limit of a set sequence via growing partial unions.

    Returns (partial_unions, limit, residuals) where partial_unions[n] is the
    union of the first n+1 sets, limit is the union of the whole prefix, and
    residuals[n] = H(partial_unions[n], limit). Residuals are nonincreasing
    and the last one is exactly zero.
    """
    if not prefix:
        raise InputError("empty sequence prefix")
    partial = [u for u, _ in _prefix_unions(prefix)]
    limit = partial[-1]
    residuals = [hausdorff(p, limit) for p in partial]
    return partial, limit, residuals
