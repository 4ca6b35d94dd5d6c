"""Plain-Python reference for the point-set layer.

These are the per-point routines that preceded the array kernel: one Python
distance call per pair of points, keep-first greedy scans in input order.
Points are coordinate tuples in Euclidean mode and int indices in finite
mode, and sets are tuples of them. After them comes the oracles' distance
between sampled graphs by brute force over every pair of samples. Four
routines that the library has since replaced sit at the end: the Euclidean
kernel that reduced a difference temporary over its last axis, the random
generator that drew each coordinate on its own and built each cut with its
own finite_set call, the triangle check that scanned one row of a distance
matrix at a time, and the membership scan that measured every point at
every level from the lowest up. Last come
the identity decisions at TOL read from full kernel matrices, as dedup and
nestedness took them before the near-pair search, and the Hausdorff
distances each reduced from its own full kernel matrix, with the level
modulus and the discontinuity levels that measured one pair of cuts at a
time through them. Then the lifted segment reduction that added the lift
to every cell of a chunk's kernel block before taking any minimum. Last
comes the cut table read one alpha at a time, and the level and Γ series
built from it in two passes over the grid. Last of all, the input
conversions that preceded the one strict array conversion: the float
conversion that scanned the type of every entry, also of an ndarray, and
the finite-space index check that ran once per point. At the very end, the
dict tree of a document with every generator expanded to member lists, which
`gen` wrote through json.dumps(indent=2, sort_keys=True) before its writer
read the Document directly. After it, the CSV writers of `converge` and
`compact` that built a list of four strings for every series and evidence
row, before each distinct series object was formatted once.
test_differential.py, test_near.py and test_conversion.py compare the
library against them, test_document.py the `gen` writer and test_cli.py
the `converge` and `compact` writers.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from fuzzymetrics import TOL, FiniteSet, InputError, StepFuzzySet, alpha_cut, support
from fuzzymetrics import finite_set as library_finite_set
from fuzzymetrics import space as space_module
from fuzzymetrics.common import fmt, is_real, real
from fuzzymetrics.sets import _segment_extrema
from fuzzymetrics.space import COORD_MAX, EUCLIDEAN, FINITE, dist_matrix


def distance(space, p, q) -> float:
    """d(p, q): math.dist in Euclidean mode, the larger of the two matrix
    entries in finite mode."""
    if space.mode == EUCLIDEAN:
        return math.dist(p, q)
    return max(space.matrix_array[p, q], space.matrix_array[q, p])


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


def graph_distance(space, levels_u, levels_v, truncate: bool) -> float:
    """Endograph (truncate=True) or sendograph distance by the closed form,
    one direction at a time."""

    def directed(src, tgt):
        best = 0.0
        for x in src[-1][1]:
            mx = membership(space, src, x)
            inner = min(distance(space, x, y) + max(0.0, mx - membership(space, tgt, y)) for y in tgt[-1][1])
            best = max(best, min(mx, inner) if truncate else inner)
        return best

    return max(directed(levels_u, levels_v), directed(levels_v, levels_u))


def sampled_graph_distance(u: StepFuzzySet, v: StepFuzzySet, resolution: float, shared: bool) -> float:
    """The oracles' Hausdorff distance between sampled graphs by brute force
    over every pair of samples. Each base point x of a set (the points of
    both supports as given, one after the other, when `shared`, else the
    set's own support) holds the samples (x, k*resolution) for k = 0..K(x),
    K(x) the floor of membership / resolution + 1e-9; samples (x, k*r) and
    (y, k'*r) are k*r - k'*r apart in height, at cost d(x, y) plus its
    magnitude."""
    su, sv = support(u).array, support(v).array
    if shared:
        su = sv = np.concatenate([su, sv])

    def samples(w, s):
        tops = np.floor(memberships(w, s) / resolution + 1e-9).astype(int)
        ks = np.concatenate([np.arange(top + 1) for top in tops])
        return np.repeat(np.arange(len(tops)), tops + 1), ks * resolution

    (iu, hu), (iv, hv) = samples(u, su), samples(v, sv)
    d = dist_matrix(u.space, su, sv)
    out, back = 0.0, np.full(len(hv), np.inf)
    for i in range(len(su)):
        # every sample of base point i against every sample of v
        cost = d[i, iv] + np.abs(hu[iu == i, None] - hv)
        out = max(out, cost.min(axis=1).max())
        back = np.minimum(back, cost.min(axis=0))
    return float(max(out, back.max()))


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


def dense_keep_first(space, pts: np.ndarray, radius: float = TOL) -> np.ndarray:
    """Keep-first mask at `radius` from the full matrix of the points with
    themselves, one row at a time: row i is kept iff no earlier kept point
    lies within radius of it."""
    near = dist_matrix(space, pts, pts) <= radius
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


def dense_directed_hausdorff(a: FiniteSet, b: FiniteSet) -> float:
    """sets.directed_hausdorff from the full matrix d(a_i, b_j): the max of
    its row minima."""
    return float(dist_matrix(a.space, a.array, b.array).min(axis=1).max())


def dense_hausdorff(a: FiniteSet, b: FiniteSet) -> float:
    """sets.hausdorff from the full matrix d(a_i, b_j): the max of its row
    minima and of its column minima."""
    d = dist_matrix(a.space, a.array, b.array)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def member_modulus(u: StepFuzzySet, eps: float) -> float:
    """The largest stored level at or below which every cut lies within eps
    of the support, measuring dense_hausdorff(cut, support) one level at a
    time from the lowest up. The support itself is near: on a finite
    diagonal entry up to TOL it may measure above eps from itself."""
    best, top = None, u.levels[-1][1]
    for a, cut in reversed(u.levels):
        if cut is not top and dense_hausdorff(cut, top) >= eps:
            break
        best = a
    return best


def p0_points(u: StepFuzzySet) -> tuple[float, ...]:
    """The stored levels in (0,1) where a probe cut halfway to the next level
    above or below lies more than TOL from the cut, measuring
    dense_hausdorff(probe cut, cut) one probe at a time."""
    out = []
    for i in range(1, len(u.levels)):
        a, cut = u.levels[i]
        below = u.alphas[i + 1] if i + 1 < len(u.alphas) else 0.0
        probes = (alpha_cut(u, (a + u.alphas[i - 1]) / 2.0), alpha_cut(u, (a + below) / 2.0))
        if a < 1.0 and max(dense_hausdorff(p, cut) for p in probes) > TOL:
            out.append(a)
    return tuple(sorted(out))


def dense_segment_extrema(
    space,
    blocks: Sequence[np.ndarray],
    target: np.ndarray,
    lifts: tuple[Sequence[np.ndarray], np.ndarray],
) -> np.ndarray:
    """sets._segment_extrema with lifts, from one full kernel matrix of every
    block's rows against the target, adding the lift to every cell in both
    directions before the minima: rows 0 and 1 the lifted directed distances
    per block, rows 2 and 3 the same with each inner minimum capped at its
    source height."""
    sizes = np.fromiter(map(len, blocks), np.intp, len(blocks))
    starts = np.cumsum(sizes) - sizes
    d = dist_matrix(space, np.concatenate(blocks), target)
    h, ht = np.concatenate(lifts[0]), lifts[1]
    inner = (d + np.maximum(0.0, h[:, None] - ht[None, :])).min(axis=1)
    inner_back = np.minimum.reduceat(d + np.maximum(0.0, ht[None, :] - h[:, None]), starts, axis=0)
    return np.array([
        np.maximum.reduceat(inner, starts),
        inner_back.max(axis=1),
        np.maximum.reduceat(np.minimum(h, inner), starts),
        np.minimum(ht, inner_back).max(axis=1),
    ])


class PointwiseCutTable:
    """metrics._CutTable as it was read one alpha at a time: the distinct
    cuts (by identity) and a (levels x sets) table of zero-padded stored
    levels, built from one nested list of (alpha, cut id) pairs per set."""

    def __init__(self, sets: Sequence[StepFuzzySet]) -> None:
        index: dict[FiniteSet, int] = {}
        rows = [[(a, index.setdefault(cut, len(index))) for a, cut in u.levels] for u in sets]
        pad = [(0.0, 0)] * max(map(len, rows))
        table = np.array([r + pad[len(r):] for r in rows]).transpose(2, 1, 0)
        self.cuts = list(index)
        self.levels = np.ascontiguousarray(table[0])
        self._ids = table[1].astype(np.intp).T.ravel()
        self._first = np.arange(len(rows)) * len(pad)

    def at(self, alpha: float, strict: bool = False) -> np.ndarray:
        """Index of each set's cut at one alpha: the count of stored levels
        >= alpha (> alpha with `strict`), less one, into the set's row."""
        count = (self.levels > alpha if strict else self.levels >= alpha).sum(axis=0)
        return self._ids[self._first + count - 1]


def level_series(seq, limit, alphas, sides) -> list[list[tuple[float, ...]]]:
    """metrics._level_series in two passes over the grid, one alpha at a
    time: the first marks the (limit cut, member cut) pairs that meet, the
    second reads each alpha's series through the table after one
    _segment_extrema call per limit cut."""
    members, lim = PointwiseCutTable(seq), PointwiseCutTable([limit])

    def rows():
        for a in alphas:
            yield members.at(a), [int(lim.at(a, strict)[0]) for _, strict in sides]

    meets = np.zeros((len(lim.cuts), len(members.cuts)), dtype=bool)
    for ids, ks in rows():
        meets[np.ix_(ks, ids)] = True
    values = np.empty((3,) + meets.shape, dtype=object)
    for k, target in enumerate(lim.cuts):
        sel = np.flatnonzero(meets[k])
        if sel.size:
            ext = _segment_extrema(limit.space, [members.cuts[i].array for i in sel], target.array)
            values[:, k, sel] = np.vstack([ext, ext.max(axis=0)]).astype(object)
    out: list[list[tuple[float, ...]]] = [[] for _ in sides]
    for ids, ks in rows():
        for side, ((row, _), k) in enumerate(zip(sides, ks)):
            out[side].append(tuple(values[row, k, ids].tolist()))
    return out


def float_array(rows, entry: str, shape: str) -> np.ndarray:
    """space._float_array: rows of real numbers as a float array, after one
    scan of the types of all entries; the first entry that is not a real
    number within float range is an InputError naming it by `entry`."""
    try:
        if all(map(is_real, {type(x) for row in rows for x in row})):
            return np.array(rows, dtype=float)
    except (TypeError, ValueError):
        raise InputError(shape) from None
    except OverflowError:
        pass
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            real(entry.format(i, j), x)
    raise AssertionError("unreachable: some entry is not a real number within float range")


def point_array(space, points) -> np.ndarray:
    """MetricSpace.point_array: in Euclidean mode a bare int or float is a
    point of one coordinate; in finite mode each point passes
    operator.index, a bool excepted, and the range check on its own."""
    if space.mode == EUCLIDEAN:
        arr = float_array([(p,) if isinstance(p, (int, float)) else p for p in points],
                          "coordinate {1} of point {0}", "euclidean points must be coordinate sequences of numbers")
        if arr.shape == (0,):
            arr = arr.reshape(0, space.dim)
        if arr.ndim != 2 or arr.shape[1] != space.dim:
            raise InputError(f"points of shape {arr.shape} do not fit a space of dim {space.dim}")
        bad = np.argwhere(~(np.abs(arr) <= COORD_MAX))
        if bad.size:
            i, j = bad[0]
            raise InputError(f"coordinate {j} of point {i} must be finite with magnitude at most "
                             f"{COORD_MAX:g}, got {arr[i, j]}")
        return arr
    n = len(space.matrix_array)
    indices = []
    for k, p in enumerate(points):
        try:
            i = -1 if type(p) is bool else operator.index(p)
        except TypeError:
            i = -1
        if not 0 <= i < n:
            raise InputError(f"finite-space point {k} must be an integer index in 0..{n - 1}, got {p!r}")
        indices.append(i)
    return np.array(indices, dtype=np.intp)


def finite_matrix(matrix) -> np.ndarray:
    """The matrix_array of MetricSpace.finite(matrix), or its InputError."""
    square = "distance matrix must be square and nonempty"
    arr = float_array(matrix, "matrix entry ({},{})", square)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[0] != arr.shape[1]:
        raise InputError(square)
    bad = np.argwhere(~(np.isfinite(arr) & (arr >= 0)))
    if bad.size:
        i, j = bad[0]
        raise InputError(f"matrix entry ({i},{j}) must be finite and nonnegative, got {arr[i, j]}")
    for i in range(len(arr)):
        if arr[i, i] > TOL:
            raise InputError(f"matrix entry ({i},{i}) on the diagonal must be at most {TOL}, got {arr[i, i]}")
    return arr


def document_to_json(doc) -> dict:
    """Serialize a document with all generators expanded to member lists."""
    space = doc.space
    return {
        "space": ({"type": EUCLIDEAN, "dim": space.dim} if space.mode == EUCLIDEAN
                  else {"type": FINITE, "matrix": space.matrix_array.tolist()}),
        "fuzzy_sets": [{"name": name, "levels": [{"alpha": a, "points": cut.array.tolist()} for a, cut in u.levels]}
                       for name, u in doc.fuzzy_sets.items()],
        "families": [{"name": name, "members": list(fam.names)} for name, fam in doc.families.items()],
        "sequences": [{"name": name, "members": list(ms)} for name, ms in doc.sequences.items()],
    }


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def convergence_csv(cert, gridded: bool, last: str | None) -> str:
    """The CSV of `converge` for a certificate, row by row."""
    prefix = "" if gridded else "H_"
    rows = [["record", "key", "index", "value"]]
    platform = cert.evidence.get("platform", ())
    rows += [["excluded_alpha", "platform", str(k), fmt(p)] for k, p in enumerate(platform, 1)]
    for part in cert.parts:
        for name, m in part.tail_max.items():
            label = prefix + name
            if not gridded:
                rows += [["series", label, str(n), fmt(x)] for n, x in enumerate(cert.evidence[name], 1)]
            rows.append(["tail_max", label, "", fmt(m)])
        rows.append(["verdict", prefix + part.key, "", part.verdict.value])
    if last is not None:
        rows.append(["verdict", last, "", cert.verdict.value])
    return _csv(rows)


def compactness_csv(cert, params: dict[str, str]) -> str:
    """The CSV of `compact` for a certificate and its parameters, row by row."""
    rows = [["record", "key", "index", "value"]]
    rows += [["field", k, "", v] for k, v in
             [("kind", cert.kind), ("verdict", cert.verdict.value), ("witness", cert.witness or ""),
              ("note", cert.note or ""), *params.items()]]
    for key, series in cert.evidence.items():
        rows += [["evidence", key, str(n), fmt(x)] for n, x in enumerate(series, 1)]
    return _csv(rows)
