"""Plain-Python reference for the point-set layer.

These are the per-point routines that preceded the array kernel: one Python
distance call per pair of points, keep-first greedy scans in input order.
Points are coordinate tuples in Euclidean mode and int indices in finite
mode, and sets are tuples of them. Five routines that the library has since
replaced sit at the end: the Euclidean kernel that reduced a difference
temporary over its last axis, the oracles' directed distance sampled level
by level, the random generator that drew each coordinate on its own and
built each cut with its own finite_set call, the triangle check that
scanned one row of a distance matrix at a time, and the membership scan
that measured every point at every level from the lowest up. Last come
the identity decisions at TOL read from full kernel matrices, as dedup and
nestedness took them before the near-pair search. test_differential.py
and test_near.py compare the library against them.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from fuzzymetrics import TOL, FiniteSet, InputError, StepFuzzySet
from fuzzymetrics import finite_set as library_finite_set
from fuzzymetrics import space as space_module
from fuzzymetrics.space import EUCLIDEAN, dist_matrix


def distance(space, p, q) -> float:
    if space.mode == EUCLIDEAN:
        return math.dist(p, q)
    return space.matrix[p][q]


def as_point(space, raw):
    """A coordinate tuple (a bare number in dimension 1 is one coordinate)
    or an int index."""
    if space.mode == EUCLIDEAN:
        if isinstance(raw, (int, float)):
            raw = (raw,)
        return tuple(float(c) for c in raw)
    return operator.index(raw)


def points(s: FiniteSet) -> tuple:
    """The points of a library set in the reference's form."""
    rows = s.array.tolist()
    return tuple(map(tuple, rows)) if s.space.mode == EUCLIDEAN else tuple(rows)


def finite_set(space, raws) -> tuple:
    kept: list = []
    for raw in raws:
        p = as_point(space, raw)
        if not any(distance(space, p, q) <= TOL for q in kept):
            kept.append(p)
    if not kept:
        raise InputError("finite set must be nonempty")
    return tuple(kept)


def union_family(space, family) -> tuple:
    kept: list = []
    for s in family:
        for p in s:
            if not any(distance(space, p, q) <= TOL for q in kept):
                kept.append(p)
    return tuple(kept)


def eps_net(space, a, eps: float) -> tuple:
    centers: list = []
    for p in a:
        if all(distance(space, p, c) > eps for c in centers):
            centers.append(p)
    return tuple(centers)


def directed_hausdorff(space, a, b) -> float:
    return max(min(distance(space, pa, pb) for pb in b) for pa in a)


def membership(space, levels, x) -> float:
    """levels: (alpha, cut) pairs from 1.0 down, cuts as tuples of points."""
    for a, cut in levels:
        if any(distance(space, x, p) <= TOL for p in cut):
            return a
    return 0.0


def prefix_net_sizes(space, cuts, eps: float) -> tuple[int, ...]:
    """Greedy net size of each prefix union, each union and net rebuilt
    from scratch."""
    return tuple(len(eps_net(space, union_family(space, cuts[:k + 1]), eps)) for k in range(len(cuts)))


def graph_distance(space, levels_u, levels_v, truncate: bool, u_first: bool = False) -> float:
    """Endograph (truncate=True) or sendograph distance by the closed form,
    one direction at a time, each measuring d(source point, target point);
    with u_first, both directions measure d(point of u, point of v), as the
    library's one-matrix form reads its kernel. The two agree bit for bit on
    a symmetric matrix and within TOL on one that is asymmetric within TOL."""

    def directed(src, tgt, dist):
        best = 0.0
        for x in src[-1][1]:
            mx = membership(space, src, x)
            inner = min(dist(x, y) + max(0.0, mx - membership(space, tgt, y)) for y in tgt[-1][1])
            best = max(best, min(mx, inner) if truncate else inner)
        return best

    forward = lambda x, y: distance(space, x, y)  # noqa: E731
    backward = (lambda y, x: distance(space, x, y)) if u_first else forward
    return max(directed(levels_u, levels_v, forward), directed(levels_v, levels_u, backward))


def dist_matrix_reduction(space, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean pairwise distances with each row block building a
    rows x m x dim difference temporary, within BLOCK_BYTES, and summing its
    squares over the last axis."""
    out = np.empty((len(a), len(b)))
    step = max(1, space_module.BLOCK_BYTES // (8 * space.dim * max(len(b), 1)))
    for s in range(0, len(a), step):
        diff = a[s:s + step, None, :] - b[None, :, :]
        np.sqrt((diff * diff).sum(axis=2), out=out[s:s + step])
    return out


def directed_sampled(k_src: np.ndarray, k_tgt: np.ndarray, d: np.ndarray, resolution: float) -> float:
    """Directed distance between two sampled graphs, taken over every sample
    k = 0..k_src[i] of each source column i."""
    best = 0.0
    for i, top in enumerate(k_src):
        ks = np.arange(top + 1)
        gap = np.maximum(ks[:, None] - k_tgt[None, :], 0) * resolution
        best = max(best, float((d[i][None, :] + gap).min(axis=1).max()))
    return best


def random_fuzzy(space, rng, box=(0.0, 1.0), max_levels: int = 4, max_points: int = 6) -> StepFuzzySet:
    """generators.random_fuzzy as it drew and built its sets before: one
    scalar draw per coordinate and, at every level that draws a point, a
    new cut deduplicated from all points so far."""
    lo, hi = box
    n_levels = int(rng.integers(1, max_levels + 1))
    alphas = [1.0]
    for _ in range(1000):
        if len(alphas) == n_levels:
            break
        a = float(rng.uniform(0.05, 0.95))
        if all(abs(a - b) >= 0.02 for b in alphas):
            alphas.append(a)
    alphas = [1.0] + sorted(alphas[1:], reverse=True)
    levels = []
    pts: list[tuple[float, ...]] = []
    for i, a in enumerate(alphas):
        cap = min(2, max_points - len(pts))
        n_new = int(rng.integers(1 if i == 0 else 0, cap + 1)) if cap > 0 else 0
        for _ in range(n_new):
            pts.append(tuple(float(rng.uniform(lo, hi)) for _ in range(space.dim)))
        if i == 0 or n_new:
            cut = library_finite_set(space, pts)
        levels.append((a, cut))
    return StepFuzzySet(levels=tuple(levels))


def triangle_witness(m: np.ndarray) -> str | None:
    """The triangle check of space.validate_metric, one row i at a time: the
    witness of the first violating (k, j) in the first violating row, or
    None."""
    for i in range(len(m)):
        # entry [k, j]: d(i, k) against d(i, j) + d(j, k)
        bad = np.argwhere(m[i][:, None] > m[i][None, :] + m.T + TOL)
        if bad.size:
            k, j = map(int, bad[0])
            return f"triangle ({i},{k}) via {j}"
    return None


def memberships(u: StepFuzzySet, points: np.ndarray) -> np.ndarray:
    """fuzzy.memberships as one pass over the levels from the lowest up,
    each level measuring every point and overwriting the lower ones."""
    out = np.zeros(len(points))
    for a, cut in reversed(u.levels):
        out[dist_matrix(cut.space, points, cut.array).min(axis=1) <= TOL] = a
    return out


def dense_keep_first(space, pts: np.ndarray) -> np.ndarray:
    """Keep-first mask at TOL from the full matrix of the points with
    themselves, one row at a time: row i is kept iff no earlier kept point
    lies within TOL of it, measuring d(new, kept)."""
    near = dist_matrix(space, pts, pts) <= TOL
    kept = np.zeros(len(pts), dtype=bool)
    for i, row in enumerate(near):
        kept[i] = not (row[:i] & kept[:i]).any()
    return kept


def dense_prefix_unions(space, arrays) -> list[np.ndarray]:
    """The deduplicated union of each prefix of a list of point arrays, each
    rebuilt from the full matrix of its points."""
    out = []
    for k in range(len(arrays)):
        pts = np.concatenate(arrays[:k + 1])
        out.append(pts[dense_keep_first(space, pts)])
    return out


def dense_subset(space, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every point of a lies within TOL of some point of b, from
    the full matrix d(a_i, b_j): the directed Hausdorff distance <= TOL."""
    return bool((dist_matrix(space, a, b) <= TOL).any(axis=1).all())
