"""Ambient metric spaces, points in them, and the one pairwise-distance kernel.

Two desk-scale models are provided: Euclidean coordinates of any dimension and
a finite space given by an explicit distance matrix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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
class Point:
    """An element of a metric space: coordinates (Euclidean mode) or an index
    into the distance matrix (finite mode)."""

    coords: tuple[float, ...] | None = None
    index: int | None = None

    def __post_init__(self) -> None:
        if (self.coords is None) == (self.index is None):
            raise InputError("point needs exactly one of coords or index")
        if self.coords is not None:
            row = _float_array([self.coords], "coordinate {1}", "point coordinates must be a sequence of numbers")[0]
            coords = tuple(row.tolist())
            if any(not math.isfinite(c) for c in coords):
                raise InputError(f"non-finite coordinate in {coords}")
            object.__setattr__(self, "coords", coords)
        else:
            object.__setattr__(self, "index", int(check_integer("point index", self.index, 0)))

    @staticmethod
    def euclidean(*coords: float) -> "Point":
        return Point(coords=tuple(coords))

    @staticmethod
    def finite(index: int) -> "Point":
        return Point(index=index)


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

        Points may be Point values, coordinate sequences (or bare numbers in
        dimension 1) in Euclidean mode, or integer indices in finite mode.
        The result is (n, dim) floats in Euclidean mode and an index vector
        in finite mode.
        """
        if self.mode == EUCLIDEAN:
            arr = _float_array([_coords(p) for p in points], "coordinate {1} of point {0}",
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
                # a coordinate Point has index None, which operator.index rejects
                i = _index(p.index if isinstance(p, Point) else p)
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

    def distance(self, p: Point, q: Point) -> float:
        return float(dist_matrix(self, self.point_array([p]), self.point_array([q]))[0, 0])


def _index(p) -> int:
    if type(p) is bool:
        raise TypeError("a bool is not a point index")
    return operator.index(p)


def _coords(p):
    if isinstance(p, Point):
        return p.coords
    return (p,) if isinstance(p, (int, float)) else p


def dist_matrix(space: MetricSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise distances d(a_i, b_j) between two point arrays of one space.

    This is the one distance kernel. Euclidean rows are filled in blocks:
    each block takes the squared first-coordinate difference, adds each
    further squared coordinate from one rows x m scratch buffer (capped by
    BLOCK_BYTES) and takes the square root in place. The sum runs left to
    right, as numpy's sum over an axis shorter than 8 does. Finite mode
    gathers from the matrix.
    """
    if space.mode == FINITE:
        return space.matrix_array[np.ix_(a, b)]
    out = np.empty((len(a), len(b)))
    step = space.block_rows(len(b))
    scratch = np.empty((min(step, len(a)), len(b)))
    columns = np.ascontiguousarray(b.T)
    for s in range(0, len(a), step):
        blk = out[s:s + step]
        np.subtract(a[s:s + step, 0, None], columns[0], out=blk)
        np.multiply(blk, blk, out=blk)
        tmp = scratch[:len(blk)]
        for k in range(1, len(columns)):
            np.subtract(a[s:s + step, k, None], columns[k], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            blk += tmp
        np.sqrt(blk, out=blk)
    return out


def validate_metric(space: MetricSpace) -> Certificate:
    """Certify the metric axioms of a finite-mode distance matrix.

    Checks zero diagonal, symmetry, that distinct indices are more than TOL
    apart (a pseudometric would merge them silently) and the triangle
    inequality, exhaustively, and reports the first violating pair or triple
    as witness. Euclidean spaces are valid by construction and are rejected
    as unsupported input.
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
    for i in range(len(m)):
        # entry [k, j]: d(i, k) against d(i, j) + d(j, k)
        bad = np.argwhere(m[i][:, None] > m[i][None, :] + m.T + TOL)
        if bad.size:
            k, j = map(int, bad[0])
            return fail(f"triangle ({i},{k}) via {j}", m[i, k], m[i, j] + m[j, k])
    return Certificate(kind="METRIC_AXIOMS", verdict=Verdict.PASS)
