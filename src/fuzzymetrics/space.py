"""Ambient metric spaces, the one pairwise-distance kernel and
the near-pair search, in the kernel's arithmetic, behind identity and eps-nets.

Two desk-scale models are provided: Euclidean coordinates of any dimension and
a finite space given by an explicit distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .certificates import Certificate, Verdict
from .common import TOL, InputError, check_integer, is_index, is_real, real

EUCLIDEAN = "euclidean"
FINITE = "finite"

# Cap on the bytes of one rows x m kernel block: every caller of dist_matrix
# passes at most block_rows(m) rows at a time, so memory stays bounded on
# large point sets.
BLOCK_BYTES = 1 << 20

# Largest coordinate magnitude accepted in a point array. dist_matrix squares
# coordinate differences, and below this bound the squares stay finite.
COORD_MAX = 1e150


def _number_array(rows, dtype: type, check: Callable, shape: str) -> np.ndarray:
    """Rows of numbers as a 2-D array of `dtype`, float for reals (is_real) or
    np.intp for indices (is_index): from a plain 2-D ndarray of a number
    dtype by its dtype alone, else after one scan of the entry types, where
    `check(i, j, x)` raises the InputError of the first entry x in row order
    that is no such number; rows not sequences of one length are `shape`."""
    accept, kinds = (is_real, "fiu") if dtype is float else (is_index, "iu")
    if type(rows) is np.ndarray and rows.ndim == 2 and rows.dtype.kind in kinds:
        return np.array(rows, dtype=dtype, order="C")
    try:
        if all(map(accept, {type(x) for row in rows for x in row})):
            return np.array(rows, dtype=dtype)
    except (TypeError, ValueError):
        raise InputError(shape) from None
    except OverflowError:
        pass
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            check(i, j, x)
    raise AssertionError("unreachable: some entry is not a number of the kind")


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """Euclidean of dimension `dim`, or finite on `matrix_array`, a read-only
    copy of the rows as given, beside `_symmetric`, the array the kernel
    reads. Equal spaces hash alike, and a hash reads no matrix entry."""
    mode: str
    dim: int | None = None
    matrix_array: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode == EUCLIDEAN:
            if self.matrix_array is not None:
                raise InputError("euclidean space takes no matrix")
            check_integer("dim", self.dim, 1)
        elif self.mode == FINITE:
            if self.dim is not None or self.matrix_array is None:
                raise InputError("finite space needs a matrix and no dim")
            square = "distance matrix must be square and nonempty"
            arr = _number_array(self.matrix_array, float, lambda i, j, x: real(f"matrix entry ({i},{j})", x), square)
            if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[0] != arr.shape[1]:
                raise InputError(square)
            bad = np.argwhere(~(np.isfinite(arr) & (arr >= 0)))
            if bad.size:
                i, j = bad[0]
                raise InputError(f"matrix entry ({i},{j}) must be finite and nonnegative, got {arr[i, j]}")
            bad = np.flatnonzero(np.diagonal(arr) > TOL)
            if bad.size:
                i = bad[0]
                raise InputError(f"matrix entry ({i},{i}) on the diagonal must be at most {TOL}, got {arr[i, i]}")
            # the kernel reads the larger of d(i, j) and d(j, i), so it is symmetric
            # bit for bit, as the Euclidean kernel is, and 0.0 where -0.0 is given
            symmetric = np.maximum(arr, arr.T)
            symmetric += 0.0
            arr.flags.writeable = symmetric.flags.writeable = False
            self.__dict__.update(matrix_array=arr, _symmetric=symmetric)
        else:
            raise InputError(f"unknown space mode {self.mode!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, MetricSpace) and (self.mode, self.dim) == (other.mode, other.dim)
                and (self.mode == EUCLIDEAN or np.array_equal(self.matrix_array, other.matrix_array)))

    def __hash__(self) -> int:
        return hash((self.mode, self.dim, np.shape(self.matrix_array)))

    @staticmethod
    def euclidean(dim: int) -> "MetricSpace":
        return MetricSpace(mode=EUCLIDEAN, dim=dim)

    @staticmethod
    def finite(matrix: Sequence[Sequence[float]]) -> "MetricSpace":
        return MetricSpace(mode=FINITE, matrix_array=matrix)

    def point_array(self, points: Iterable) -> np.ndarray:
        """Validated point array of an iterable of points.

        Points are coordinate sequences (or bare real numbers in dimension
        1) in Euclidean mode, or integer indices in finite mode.
        The result is (n, dim) floats in Euclidean mode and an index vector
        in finite mode.
        """
        if self.mode == EUCLIDEAN:
            if not (type(points) is np.ndarray and points.ndim == 2):
                points = [(p,) if is_real(type(p)) else p for p in points]
            arr = _number_array(points, float, lambda i, j, x: real(f"coordinate {j} of point {i}", x),
                                "euclidean points must be coordinate sequences of numbers")
            if not len(arr):
                arr = arr.reshape(0, self.dim)
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise InputError(f"points of shape {arr.shape} do not fit a space of dim {self.dim}")
            bad = np.argwhere(~(np.abs(arr) <= COORD_MAX))
            if bad.size:
                i, j = bad[0]
                raise InputError(f"coordinate {j} of point {i} must be finite with magnitude at most "
                                 f"{COORD_MAX:g}, got {arr[i, j]}")
            return arr
        n = len(self.matrix_array)

        def check(_, k, p) -> None:
            if not (is_index(type(p)) and 0 <= p < n):
                raise InputError(f"finite-space point {k} must be an integer index in 0..{n - 1}, got {p!r}")

        rows = points[None] if type(points) is np.ndarray and points.ndim == 1 else [list(points)]
        arr = _number_array(rows, np.intp, check, "finite-space points must be integer indices")[0]
        bad = np.flatnonzero((arr < 0) | (arr >= n))
        if bad.size:
            check(0, bad[0], rows[0][bad[0]])
        return arr

    def block_rows(self, m: int) -> int:
        """Rows per block that keep a rows x m float buffer within
        BLOCK_BYTES."""
        return max(1, BLOCK_BYTES // (8 * max(m, 1)))

    # d(p, q) of two points; kept because perfbench/tracer.py wraps it unconditionally
    def distance(self, p, q) -> float:
        return float(dist_matrix(self, self.point_array([p]), self.point_array([q]))[0, 0])


def _one_space(items: Sequence, what: str) -> MetricSpace:
    """The space of the first of a nonempty sequence of sets, which every
    other one must live in, else an InputError "<what> live in different
    spaces"."""
    space = items[0].space
    for x in items:
        if x.space is not space and x.space != space:
            raise InputError(f"{what} live in different spaces")
    return space


def _sum_squares(xs, ys, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances into `out` from coordinate sequences xs
    and ys whose k-th entries broadcast to its shape: squared differences
    summed left to right (the later ones through `tmp`), as numpy's sum over
    an axis shorter than 8 does. This is the one Euclidean arithmetic, so a
    cell has the same bits whichever caller takes it."""
    np.subtract(xs[0], ys[0], out=out)
    np.multiply(out, out, out=out)
    for k in range(1, len(ys)):
        np.subtract(xs[k], ys[k], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        out += tmp
    return out


def dist_matrix(space: MetricSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise distances d(a_i, b_j) between two point arrays of one space.

    This is the one distance kernel: _distances of the key_block of exactly
    the rows it is handed, so a caller bounds memory by passing at most
    space.block_rows(len(b)) rows. In both modes dist_matrix(space, b, a) is
    the transpose of dist_matrix(space, a, b), bit for bit.
    """
    return _distances(space, key_block(space, a, _workspace(space, b, len(a))))


def _workspace(space: MetricSpace, target: np.ndarray, rows: int) -> tuple[np.ndarray, ...]:
    """key_block's view of `target` for chunks of at most `rows` rows: the
    target in finite mode, else its contiguous transpose and two separate
    buffers, so keys kept past the pass keep no scratch alive."""
    if space.mode == FINITE:
        return (target,)
    return np.ascontiguousarray(target.T), np.empty((rows, len(target))), np.empty((rows, len(target)))


def key_block(space: MetricSpace, a: np.ndarray, work: tuple[np.ndarray, ...]) -> np.ndarray:
    """Keys of dist_matrix(space, a, target), `work` a _workspace of target:
    the distances in finite mode, else the squared distances, written into
    a prefix of the workspace and so valid until its next call. _distances
    is monotone, since a correctly rounded root is, so it commutes with min
    and max: a caller reduces keys and takes _distances of the result."""
    if space.mode == FINITE:
        return space._symmetric[np.ix_(a, work[0])]
    columns, out, tmp = work
    return _sum_squares(a.T[:, :, None], columns, out[:len(a)], tmp[:len(a)])


def _distances(space: MetricSpace, keys: np.ndarray) -> np.ndarray:
    """The dist_matrix cells of reduced keys, bit for bit, in place."""
    return np.sqrt(keys, out=keys) if space.mode == EUCLIDEAN else keys


def _sorted_windows(a: np.ndarray, b: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order that sorts Euclidean points b on their first coordinate and,
    per row x of a, the first index and the count of its window in b[order]:
    the rows whose first coordinate lies in [fl(x0 - 2R), fl(x0 + 2R)], R =
    max(radius, 1e-150). A cell outside the window is never within radius:
    say y0 < fl(x0 - 2R). Rounding is monotone and y0 is a float, so x0 - y0
    > 2R exactly, and since 2R is a float, fl(x0 - y0) >= 2R. The kernel's
    sum adds nonnegative squares with monotone rounding, so it is at least
    fl((2R)**2) = 4 fl(R**2) >= 4 R**2 (1 - 2**-53): R**2 >= 1e-300 is a
    normal float, and coordinates within COORD_MAX keep every square finite.
    Its square root then exceeds R (1 + 2**-52), which bounds the next float
    above R, so the rounded distance is > R >= radius. The case y0 > fl(x0 +
    2R) is the mirror image. Each row of a is in its own window in b = a."""
    order = np.argsort(b[:, 0], kind="stable")
    keys, half = b[order, 0], 2 * max(float(radius), 1e-150)
    first = np.searchsorted(keys, a[:, 0] - half, "left")
    return order, first, np.searchsorted(keys, a[:, 0] + half, "right") - first


def _near(space: MetricSpace, a: np.ndarray, b: np.ndarray, radius: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The cells (i, j) that dist_matrix(space, a, b) <= radius marks, as
    index vectors in chunks of nondecreasing rows i. Finite mode gathers the
    matrix in row blocks; Euclidean mode measures, through _window, only the
    cells of each row's _sorted_windows window."""
    if space.mode == FINITE:
        step = space.block_rows(len(b))
        for s in range(0, len(a), step):
            i, j = np.nonzero(dist_matrix(space, a[s:s + step], b) <= radius)
            yield i + s, j
        return
    order, first, counts = _sorted_windows(a, b, radius)
    for i, j, keys in _window(space, a, b[order], first, counts):
        near = _distances(space, keys) <= radius
        yield i[near], order[j[near]]


def _window(space: MetricSpace, a: np.ndarray, b: np.ndarray, first: np.ndarray,
            counts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The cells (i, j), j in [first[i], first[i] + counts[i]), of dist_matrix(space, a, b)
    and their keys as key_block gives them, in chunks of nondecreasing rows i: at
    least one cell a chunk, and as many as fit BLOCK_BYTES at 4 + 2 dim words each
    (the indices, the gathered points and the two buffers of _sum_squares). Points
    are gathered by take, whole rows at once, into buffers made at the first chunk
    and reused, so keys are valid until the next chunk: fresh chunk-sized arrays
    would fault anew. They go before the last chunk is yielded, so a walk of one
    chunk holds no more than its cells while they are read."""
    ends = np.cumsum(counts)
    total = int(counts.sum())
    # flat candidate p of row r is column p + shift[r]
    shift = first + counts - ends
    budget = space.block_rows(4 + 2 * (space.dim or 1))
    for p in range(0, total, budget):
        q = min(p + budget, total)
        r0, r1 = np.searchsorted(ends, [p, q - 1], "right")
        spans = np.minimum(ends[r0:r1 + 1], q) - np.maximum(ends[r0:r1 + 1] - counts[r0:r1 + 1], p)
        i = np.repeat(np.arange(r0, r1 + 1), spans)
        j = np.repeat(shift[r0:r1 + 1] + p, spans)
        if not p:
            steps = np.arange(q)
            xs, ys = np.empty((q,) + a.shape[1:], a.dtype), np.empty((q,) + b.shape[1:], b.dtype)
            out, tmp = np.empty(q), np.empty(q)
        j += steps[:q - p]
        # the indices are in range; mode "clip" writes straight into out, "raise" buffers
        x, y = a.take(i, axis=0, out=xs[:q - p], mode="clip"), b.take(j, axis=0, out=ys[:q - p], mode="clip")
        keys = space._symmetric[x, y] if space.mode == FINITE else _sum_squares(x.T, y.T, out[:q - p], tmp[:q - p])
        if q == total:
            del steps, xs, ys, x, y, tmp
        yield i, j, keys


def validate_metric(space: MetricSpace) -> Certificate:
    """Certify the metric axioms of a finite-mode distance matrix.

    Checks symmetry, that distinct indices are more than TOL apart (a
    pseudometric would merge them silently) and the triangle inequality,
    exhaustively, and reports the first violating pair or triple as witness;
    the constructor has checked the diagonal. Euclidean spaces are valid by
    construction and are rejected as unsupported input.

    The triangle check takes blocks of rows i whose rows x n x n sums
    fit in BLOCK_BYTES (one row per block once n x n sums exceed it) and
    tests d(i, k) > min over j of (d(i, j) + d(j, k)), plus TOL. Adding
    TOL after rounding is nondecreasing, so a row fails exactly when some
    single j violates; the first failing row is then scanned for its
    first (k, j).
    """
    if space.mode != FINITE:
        raise InputError("validate_metric supports finite mode only")
    m = space.matrix_array

    def fail(witness: str, *violation: float) -> Certificate:
        return Certificate(
            kind="METRIC_AXIOMS",
            verdict=Verdict.FAIL,
            witness=witness,
            evidence={"violation": tuple(float(v) for v in violation)},
        )

    bad = np.argwhere(np.triu(np.abs(m - m.T) > TOL, 1))
    if bad.size:
        i, j = map(int, bad[0])
        return fail(f"asymmetry ({i},{j})", m[i, j], m[j, i])
    bad = np.argwhere(np.triu(m <= TOL, 1))
    if bad.size:
        i, j = map(int, bad[0])
        return fail(f"distinct points ({i},{j}) at distance {m[i, j]}", m[i, j])
    n = len(m)
    step = space.block_rows(n * n)
    # two entries near the float maximum add up to +inf, which bounds the
    # comparison correctly, so the overflow is no error
    with np.errstate(over="ignore"):
        for s in range(0, n, step):
            rows = m[s:s + step]
            # entry [r, k]: min over j of d(s + r, j) + d(j, k)
            via = (rows[:, :, None] + m).min(axis=1)
            bad = np.flatnonzero((rows > via + TOL).any(axis=1))
            if bad.size:
                i = s + int(bad[0])
                # entry [k, j]: d(i, k) against d(i, j) + d(j, k)
                k, j = map(int, np.argwhere(m[i][:, None] > m[i][None, :] + m.T + TOL)[0])
                return fail(f"triangle ({i},{k}) via {j}", m[i, k], m[i, j] + m[j, k])
    return Certificate(kind="METRIC_AXIOMS", verdict=Verdict.PASS)
