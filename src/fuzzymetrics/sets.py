"""Finite compact-set surrogates and the Hausdorff machinery on them.

FiniteSet is a nonempty deduplicated point array standing in for a nonempty
compact subset of the space. On such sets the Hausdorff metric, greedy
eps-nets, set-sequence tail diagnostics and the constructive Cauchy limit are
all exactly computable. Every Hausdorff value is one max-of-min reduction
of kernel keys: `_segment_extrema` over `space.key_block`, lifted for the
graph closed forms and the sampling oracles, or `_pair_extrema` over the
cells of `space._window` for pairs each with its own target; `_keep_first`
decides identity at TOL and greedy eps-nets in that arithmetic via `_near`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .certificates import Certificate, tail_certificate
from .common import TOL, InputError, check_positive
from .space import FINITE, MetricSpace, _distances, _near, _one_space, _sorted_windows, _window, _workspace, key_block


@dataclass(frozen=True, eq=False)
class FiniteSet:
    """Finite point set over one space, nonempty by construction, duplicates removed.

    `array` holds the points read-only: (n, dim) floats in Euclidean mode,
    an index vector in finite mode. Sets compare and hash by identity, so a
    cut can key a cache of distances.
    """

    space: MetricSpace
    array: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.array):
            raise InputError("finite set must be nonempty")
        if self.array.flags.writeable:  # a view of a read-only support skips the write
            self.array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.array)


def _scan(kept: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """The keep-first rule, row r kept iff no earlier row near it is kept, read from
    one chunk of near pairs (i, j), those with j >= i ignored. Chunks come in order,
    so rows i never decrease, and `kept` only goes from True to False. At once: each
    row below the chunk's first row i[0] is final, its earlier pairs read before or
    none, so every row near a kept one of them is cleared. In pair order: each pair
    (r, q) left with both kept clears r if kept[q], which is final as every pair of
    row q < r was read first, a row split over chunks ending before the next starts."""
    i, j = i[j < i], j[j < i]
    below = j < i[:1]
    kept[i[below & kept[j]]] = False
    rest = ~below & kept[i] & kept[j]
    for r, q in zip(i[rest].tolist(), j[rest].tolist()):
        if kept[q]:
            kept[r] = False


def _keep_first(space: MetricSpace, pts: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the keep-first scan at `radius` in input order: row r kept iff no
    earlier kept row lies within radius of it. A Euclidean row alone in its
    space._sorted_windows window is near no row, so it is kept with no kernel
    call. The other rows go in blocks, the first of block_rows rows and each
    later one as long as all rows before it, finite mode alike: one _near search
    against the rows kept before a block drops those it covers, and `_scan`
    decides the rest from one _near search among them, a lone survivor with
    none. So a scan walks its windows' candidate cells in about log2(n) blocks."""
    kept = np.ones(len(pts), dtype=bool)
    rest = np.arange(len(pts)) if space.mode == FINITE else np.flatnonzero(_sorted_windows(pts, pts, radius)[2] > 1)
    begin, end = 0, space.block_rows(len(rest))
    while begin < len(rest):
        block, done = rest[begin:end], rest[:begin]
        for i, _ in _near(space, pts[block], pts[done[kept[done]]], radius):
            kept[block[i]] = False
        rows = block[kept[block]]
        if len(rows) > 1:
            for i, j in _near(space, pts[rows], pts[rows], radius):
                _scan(kept, rows[i], rows[j])
        begin, end = end, 2 * end
    return kept


def _dedup_runs(space: MetricSpace, pts: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Mask of the keep-first scan at TOL of each of the consecutive runs of
    Euclidean points of the given lengths, each alone: a point's window is
    the earlier points of its run."""
    kept = np.ones(len(pts), dtype=bool)
    first = np.repeat(np.cumsum(runs) - runs, runs)
    for i, j, keys in _window(space, pts, pts, first, np.arange(len(pts)) - first):
        near = _distances(space, keys) <= TOL
        _scan(kept, i[near], j[near])
    return kept


def finite_set(space: MetricSpace, points: Iterable) -> FiniteSet:
    """Build a FiniteSet, validating points and deduplicating at tolerance.

    Points are coordinate tuples (or bare numbers in dimension 1) for
    Euclidean spaces, or integer indices for finite spaces.
    Input order is preserved for the points that survive deduplication.
    """
    pts = space.point_array(points)
    return FiniteSet(space=space, array=pts[_keep_first(space, pts, TOL)])


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of entries equal in every key."""
    return np.flatnonzero(np.r_[True, np.logical_or.reduce([k[1:] != k[:-1] for k in keys])])


def _column_minima(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """np.minimum.reduceat(a, starts, axis=0) for starts that begin at 0.
    One segment is a.min(axis=0), which numpy takes much faster than a
    one-segment reduceat over axis 0; min is exact, so the bits are the same."""
    if len(starts) == 1:
        return a.min(axis=0, keepdims=True)
    return np.minimum.reduceat(a, starts, axis=0)


def _segment_extrema(
    space: MetricSpace,
    blocks: Sequence[np.ndarray],
    target: np.ndarray,
    lifts: tuple[Sequence[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Directed distances between each of many point arrays and one target.

    Row 0 of the result holds, per block, the max over its points x of the
    min over the target points y of c(x, y); row 1 the max over y of the min
    over x of c'(y, x). With lifts = (block heights, target heights), c(x, y)
    adds max(0, h(x) - h(y)) to the distance and c'(y, x) adds
    max(0, h(y) - h(x)), as in the graph closed forms, and rows 2 and 3
    repeat rows 0 and 1 with each inner minimum capped at its source height.

    The blocks are concatenated and measured in row chunks of
    space.block_rows(len(target)) rows, one key_block call each into one
    workspace, so a block may span chunks: each row's inner minimum is kept
    for the block maxima at the end, and the column minima of the block open
    at a chunk edge carry into the next. Min and max are exact and commute
    with _distances, taken of minima only, so no bit changes.

    A lift is constant on each target height group and on each run of rows
    of one block and height, so the target is sorted by height and the rows
    by (block, height), and the lift is added to the minima of each key
    block over those groups and runs: for a fixed c, fl(d + c) is monotone
    in d, so min over y of fl(d + c) is fl(min d + c) however a run is split,
    bit for bit the sum over every cell, with no other full-size array.
    """
    sizes = np.fromiter(map(len, blocks), np.intp, len(blocks))
    starts = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(len(blocks)), sizes)
    rows = np.concatenate(blocks)
    inner = np.empty(len(rows))
    out = np.empty((2 if lifts is None else 4, len(blocks)))
    if lifts is not None:
        by_height = np.argsort(lifts[1], kind="stable")
        target, ht = target[by_height], lifts[1][by_height]
        groups = _run_starts(ht)
        h = np.concatenate(lifts[0])
        order = np.lexsort((h, block))
        rows, h = rows[order], h[order]
    cap = space.block_rows(len(target))
    work = _workspace(space, target, min(cap, len(rows)))
    for s in range(0, len(rows), cap):
        e = min(s + cap, len(rows))
        keys = key_block(space, rows[s:e], work)
        first, last = block[s], block[e - 1] + 1
        # each block's first row in the chunk, 0 for one begun before it
        local = np.maximum(starts[first:last] - s, 0)
        if lifts is None:
            inner[s:e], back = keys.min(axis=1), _column_minima(keys, local)
        else:
            runs = _run_starts(block[s:e], h[s:e])
            lift = np.maximum(0.0, h[s:e, None] - ht[groups])
            inner[s:e] = (_distances(space, np.minimum.reduceat(keys, groups, axis=1)) + lift).min(axis=1)
            lifted = _distances(space, _column_minima(keys, runs)) + np.maximum(0.0, ht - h[s + runs, None])
            back = _column_minima(lifted, np.searchsorted(runs, local))
        if starts[first] < s:
            np.minimum(back[0], carry, out=back[0])
        carry = back[-1].copy()
        out[1, first:last] = back.max(axis=1)
        if lifts is not None:
            out[3, first:last] = np.minimum(ht, back).max(axis=1)
    out[0] = np.maximum.reduceat(inner, starts)
    if lifts is None:
        return _distances(space, out)
    out[2] = np.maximum.reduceat(np.minimum(h, inner), starts)
    return out


def _pair_extrema(space: MetricSpace, sources: Sequence[np.ndarray], targets: Sequence[np.ndarray]) -> np.ndarray:
    """Rows 0 and 1 of _segment_extrema(space, [sources[k]], targets[k]) for
    each pair k, bit for bit, from one _window walk: a source row's window is
    its own target in the concatenated targets, one slot per (pair, column).
    Row minima reduce each row's run of keys, carried across chunk edges, and
    column minima reduce by slot; min and max are exact. A flat cell costs a
    few dense ones, so many blocks against one target keep _segment_extrema."""
    if not len(sources):
        return np.empty((2, 0))
    sizes, widths = (np.fromiter(map(len, x), np.intp, len(x)) for x in (sources, targets))
    lead = np.cumsum(widths) - widths
    rows, columns = np.concatenate(sources), np.concatenate(targets)
    inner, outer = np.full(len(rows), np.inf), np.full(len(columns), np.inf)
    for i, j, keys in _window(space, rows, columns, np.repeat(lead, sizes), np.repeat(widths, sizes)):
        # every row has a cell, so the chunk's rows are i[0]..i[-1]
        held = inner[i[0]:i[-1] + 1]
        np.minimum(held, np.minimum.reduceat(keys, np.searchsorted(i, np.arange(i[0], i[-1] + 1))), out=held)
        np.minimum.at(outer, j, keys)
    return _distances(space, np.stack([np.maximum.reduceat(inner, np.cumsum(sizes) - sizes),
                                       np.maximum.reduceat(outer, lead)]))


def directed_hausdorff(a: FiniteSet, b: FiniteSet) -> float:
    """One-sided Hausdorff distance: max over a of the distance to b."""
    _one_space((a, b), "sets")
    return float(_segment_extrema(a.space, [a.array], b.array)[0, 0])


def hausdorff(a: FiniteSet, b: FiniteSet) -> float:
    """Hausdorff distance: max of the two directed distances."""
    _one_space((a, b), "sets")
    return float(_segment_extrema(a.space, [a.array], b.array).max())


def eps_net(a: FiniteSet, eps: float) -> FiniteSet:
    """Greedy eps-net: scan in input order, keep each first uncovered point.

    The result is a subset of `a` and every point of `a` lies within eps of
    it. Greedy order is fixed by the input order, never by scheduling, so the
    net is deterministic.
    """
    check_positive("eps", eps)
    return FiniteSet(space=a.space, array=a.array[_keep_first(a.space, a.array, eps)])


def union_family(family: Sequence[FiniteSet]) -> FiniteSet:
    """Deduplicated union of a nonempty family, first-occurrence order."""
    space, union, _ = _prefix_unions(family)
    return FiniteSet(space=space, array=union)


def _prefix_unions(family: Sequence[FiniteSet]) -> tuple[MetricSpace, np.ndarray, np.ndarray]:
    """The space, the deduplicated union of a nonempty family and the size
    of the union of each prefix of it.

    The keep-first scan of a prefix of the points keeps a prefix of what the
    scan of all of them keeps, so one scan of the whole family gives every
    prefix union: prefix k is union[:sizes[k]], and it equals
    union_family(family[:k+1]).
    """
    if not family:
        raise InputError("union of an empty family")
    space = _one_space(family, "family members")
    pts = np.concatenate([s.array for s in family])
    kept = _keep_first(space, pts, TOL)
    return space, pts[kept], np.cumsum(kept)[np.cumsum([len(s) for s in family]) - 1]


def prefix_net_sizes(family: Sequence[FiniteSet], eps: float) -> tuple[int, ...]:
    """Greedy eps-net size of each prefix union of a nonempty family.

    By the same prefix property, at eps as at TOL, the greedy net of prefix
    union k is the part of the net of the whole union up to its end, so one
    scan of the union gives every entry: entry k equals
    len(eps_net(union_family(family[:k+1]), eps)).
    """
    check_positive("eps", eps)
    space, union, sizes = _prefix_unions(family)
    return tuple(np.cumsum(_keep_first(space, union, eps))[sizes - 1].tolist())


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
    _one_space([target, *prefix], "sets")
    excess, deficit = map(tuple, _segment_extrema(target.space, [c.array for c in prefix], target.array).tolist())
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
    space, union, sizes = _prefix_unions(prefix)
    partial = [FiniteSet(space=space, array=union[:size]) for size in sizes.tolist()]
    limit = partial[-1]
    residuals = _segment_extrema(limit.space, [p.array for p in partial], limit.array).max(axis=0).tolist()
    return partial, limit, residuals
