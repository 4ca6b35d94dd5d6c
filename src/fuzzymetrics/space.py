"""Ambient metric spaces, the one pairwise-distance kernel and
the near-pair search that decides identity at TOL with the kernel's arithmetic.

Two desk-scale models are provided: Euclidean coordinates of any dimension and
a finite space given by an explicit distance matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .certificates import Certificate, Verdict
from .common import TOL, InputError, check_integer, is_real, real

EUCLIDEAN = "euclidean"
FINITE = "finite"

# Cap on the bytes of the rows x m scratch buffer that dist_matrix fills per
# row block, so memory stays bounded on large point sets.
BLOCK_BYTES = 1 << 20

# Largest coordinate magnitude accepted in a point array. dist_matrix squares
# coordinate differences, and below this bound the squares stay finite.
COORD_MAX = 1e150


def _float_array(rows, entry: str, shape: str) -> np.ndarray:
    """Rows of real numbers as a float array. A bool or a string is never
    coerced: the first entry that is not a real number within float range
    is an InputError naming it by `entry`, formatted with its row and column.
    Rows that are not sequences of one length are the error `shape`."""
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


@dataclass(frozen=True)
class MetricSpace:
    mode: str
    dim: int | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.mode == EUCLIDEAN:
            if self.matrix is not None:
                raise InputError("euclidean space takes no matrix")
            check_integer("dim", self.dim, 1)
        elif self.mode == FINITE:
            if self.dim is not None or self.matrix is None:
                raise InputError("finite space needs a matrix and no dim")
            square = "distance matrix must be square and nonempty"
            arr = _float_array(self.matrix, "matrix entry ({},{})", square)
            if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[0] != arr.shape[1]:
                raise InputError(square)
            bad = np.argwhere(~(np.isfinite(arr) & (arr >= 0)))
            if bad.size:
                i, j = bad[0]
                raise InputError(f"matrix entry ({i},{j}) must be finite and nonnegative, got {arr[i, j]}")
            arr.flags.writeable = False
            object.__setattr__(self, "matrix", tuple(map(tuple, arr.tolist())))
            self.__dict__["matrix_array"] = arr
        else:
            raise InputError(f"unknown space mode {self.mode!r}")

    @staticmethod
    def euclidean(dim: int) -> "MetricSpace":
        return MetricSpace(mode=EUCLIDEAN, dim=dim)

    @staticmethod
    def finite(matrix: Sequence[Sequence[float]]) -> "MetricSpace":
        return MetricSpace(mode=FINITE, matrix=tuple(tuple(row) for row in matrix))

    @cached_property
    def matrix_array(self) -> np.ndarray:
        """The distance matrix as a read-only array, set when a finite space
        is built."""
        raise InputError("matrix_array is only available in finite mode")

    def point_array(self, points: Iterable) -> np.ndarray:
        """Validated point array of an iterable of points.

        Points are coordinate sequences (or bare numbers in dimension 1) in
        Euclidean mode, or integer indices in finite mode.
        The result is (n, dim) floats in Euclidean mode and an index vector
        in finite mode.
        """
        if self.mode == EUCLIDEAN:
            arr = _float_array([(p,) if isinstance(p, (int, float)) else p for p in points],
                               "coordinate {1} of point {0}",
                               "euclidean points must be coordinate sequences of numbers")
            if arr.shape == (0,):
                arr = arr.reshape(0, self.dim)
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise InputError(f"points of shape {arr.shape} do not fit a space of dim {self.dim}")
            bad = np.argwhere(~(np.abs(arr) <= COORD_MAX))
            if bad.size:
                i, j = bad[0]
                raise InputError(f"coordinate {j} of point {i} must be finite with magnitude at most "
                                 f"{COORD_MAX:g}, got {arr[i, j]}")
            return arr
        n = len(self.matrix)
        indices = []
        for k, p in enumerate(points):
            try:
                # a bool is not a point index
                i = -1 if type(p) is bool else operator.index(p)
            except TypeError:
                i = -1
            if not 0 <= i < n:
                raise InputError(f"finite-space point {k} must be an integer index in 0..{n - 1}, got {p!r}")
            indices.append(i)
        return np.array(indices, dtype=np.intp)

    def block_rows(self, m: int) -> int:
        """Rows per block that keep a rows x m float buffer within
        BLOCK_BYTES."""
        return max(1, BLOCK_BYTES // (8 * max(m, 1)))

    # d(p, q) of two points; kept because perfbench/tracer.py wraps it unconditionally
    def distance(self, p, q) -> float:
        return float(dist_matrix(self, self.point_array([p]), self.point_array([q]))[0, 0])


def _root_sum_squares(xs, ys, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Euclidean distances into `out` from coordinate sequences xs and ys
    whose k-th entries broadcast to its shape: squared differences summed
    left to right (the later ones through `tmp`), as numpy's sum over an
    axis shorter than 8 does, then the square root. Every Euclidean distance
    is taken here, so a cell has the same bits whichever caller takes it."""
    np.subtract(xs[0], ys[0], out=out)
    np.multiply(out, out, out=out)
    for k in range(1, len(ys)):
        np.subtract(xs[k], ys[k], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        out += tmp
    return np.sqrt(out, out=out)


def dist_matrix(space: MetricSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise distances d(a_i, b_j) between two point arrays of one space.

    This is the one distance kernel. Euclidean rows are filled in blocks by
    `_root_sum_squares`, whose second buffer is one rows x m scratch buffer
    capped by BLOCK_BYTES. Finite mode gathers from the matrix.
    """
    if space.mode == FINITE:
        return space.matrix_array[np.ix_(a, b)]
    out = np.empty((len(a), len(b)))
    step = space.block_rows(len(b))
    scratch = np.empty((min(step, len(a)), len(b)))
    columns = np.ascontiguousarray(b.T)
    for s in range(0, len(a), step):
        rows = a[s:s + step]
        _root_sum_squares(rows.T[:, :, None], columns, out[s:s + step], scratch[:len(rows)])
    return out


def _cells(rows: np.ndarray, columns: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The dist_matrix cells [i, j] of index vectors i and j, bit for bit,
    from the coordinate columns rows = a.T and columns = b.T."""
    out, tmp = np.empty(len(i)), np.empty(len(i))
    return _root_sum_squares(rows[:, i], columns[:, j], out, tmp)


def _near(space: MetricSpace, a: np.ndarray, b: np.ndarray, radius: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The cells (i, j) that dist_matrix(space, a, b) <= radius marks, as
    index vectors in chunks of nondecreasing rows i; radius is at least
    1e-150, as TOL is.

    Finite mode gathers the matrix in row blocks. Euclidean mode sorts b on
    its first coordinate and measures, for each row, only the window of b
    whose first coordinate lies in [fl(x0 - 2 radius), fl(x0 + 2 radius)],
    in chunks of candidate cells whose 4 + 2 dim words each (the indices,
    the gathered coordinates and the two buffers of _root_sum_squares) fit
    BLOCK_BYTES, and at least one per chunk. A cell outside the
    window is never within radius: say y0 < fl(x0 - 2r). Rounding is
    monotone and y0 is a float, so x0 - y0 > 2r exactly, and since 2r is a
    float, fl(x0 - y0) >= 2r. The kernel's sum adds nonnegative squares
    with monotone rounding, so it is at least fl((2r)**2) = 4 fl(r**2)
    >= 4 r**2 (1 - 2**-53): r**2 >= 1e-300 is a normal float, and coordinates
    within COORD_MAX keep every square finite. Its square root then exceeds
    r (1 + 2**-52), which bounds the next float above r, so the rounded
    distance is > r. The case y0 > fl(x0 + 2r) is the mirror image. Cells
    inside the window are measured by _cells, as dist_matrix measures them.
    """
    if space.mode == FINITE:
        step = space.block_rows(len(b))
        for s in range(0, len(a), step):
            i, j = np.nonzero(dist_matrix(space, a[s:s + step], b) <= radius)
            yield i + s, j
        return
    order = np.argsort(b[:, 0], kind="stable")
    columns = np.ascontiguousarray(b[order].T)
    rows = np.ascontiguousarray(a.T)
    first = np.searchsorted(columns[0], rows[0] - 2 * radius, "left")
    counts = np.searchsorted(columns[0], rows[0] + 2 * radius, "right") - first
    ends = np.cumsum(counts)
    total = int(counts.sum())
    # flat candidate p of row r is sorted column p + shift[r]
    shift = first + counts - ends
    budget = space.block_rows(4 + 2 * space.dim)
    for p in range(0, total, budget):
        q = min(p + budget, total)
        r0, r1 = np.searchsorted(ends, [p, q - 1], "right")
        spans = np.minimum(ends[r0:r1 + 1], q) - np.maximum(ends[r0:r1 + 1] - counts[r0:r1 + 1], p)
        i = np.repeat(np.arange(r0, r1 + 1), spans)
        j = np.arange(p, q) + shift[i]
        near = _cells(rows, columns, i, j) <= radius
        yield i[near], order[j[near]]


def validate_metric(space: MetricSpace) -> Certificate:
    """Certify the metric axioms of a finite-mode distance matrix.

    Checks zero diagonal, symmetry, that distinct indices are more than TOL
    apart (a pseudometric would merge them silently) and the triangle
    inequality, exhaustively, and reports the first violating pair or triple
    as witness. Euclidean spaces are valid by construction and are rejected
    as unsupported input.

    The triangle check takes blocks of rows i that keep a rows x n x n
    buffer within BLOCK_BYTES (one row per block once an n x n buffer
    exceeds it) and tests d(i, k) > min over j of
    (d(i, j) + d(j, k)), plus TOL. Adding TOL after rounding is
    nondecreasing, so a row fails exactly when some single j violates; the
    first failing row is then scanned for its first (k, j).
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

    bad = np.flatnonzero(np.abs(np.diag(m)) > TOL)
    if bad.size:
        i = int(bad[0])
        return fail(f"nonzero diagonal at ({i},{i})", m[i, i])
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
    scratch = np.empty((min(step, n), n, n))
    # two entries near the float maximum add up to +inf, which bounds the
    # comparison correctly, so the overflow is no error
    with np.errstate(over="ignore"):
        for s in range(0, n, step):
            rows = m[s:s + step]
            # entry [r, k]: min over j of d(s + r, j) + d(j, k)
            via = np.add(rows[:, :, None], m, out=scratch[:len(rows)]).min(axis=1)
            bad = np.flatnonzero((rows > via + TOL).any(axis=1))
            if bad.size:
                i = s + int(bad[0])
                # entry [k, j]: d(i, k) against d(i, j) + d(j, k)
                k, j = map(int, np.argwhere(m[i][:, None] > m[i][None, :] + m.T + TOL)[0])
                return fail(f"triangle ({i},{k}) via {j}", m[i, k], m[i, j] + m[j, k])
    return Certificate(kind="METRIC_AXIOMS", verdict=Verdict.PASS)
