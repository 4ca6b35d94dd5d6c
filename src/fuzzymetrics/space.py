"""Ambient metric spaces, points in them, and the one pairwise-distance kernel.

Two desk-scale models are provided: Euclidean coordinates of any dimension and
a finite space given by an explicit distance matrix.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np

from .certificates import Certificate, Verdict
from .common import TOL, InputError

EUCLIDEAN = "euclidean"
FINITE = "finite"

# Cap on the bytes of the rows x m scratch buffer that dist_matrix fills per
# row block, so memory stays bounded on large point sets.
BLOCK_BYTES = 1 << 20

# Largest coordinate magnitude accepted in a point array. dist_matrix squares
# coordinate differences, and below this bound the squares stay finite.
COORD_MAX = 1e150


@cache
def _is_real(kind: type) -> bool:
    """Whether values of this type are real numbers; bool is not, and
    neither is a string, so neither is ever coerced to a coordinate or
    distance."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _check_reals(rows, what: str) -> None:
    """Reject rows whose entries are not all real numbers, by the distinct
    entry types, so a small point set costs one set comprehension."""
    try:
        kinds = {type(x) for row in rows for x in row}
    except TypeError:
        raise InputError(f"{what} must be sequences of numbers") from None
    if not all(map(_is_real, kinds)):
        raise InputError(f"{what} must be real numbers, not {sorted(k.__name__ for k in kinds if not _is_real(k))}")


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
            _check_reals([self.coords], "point coordinates")
            coords = tuple(float(c) for c in self.coords)
            if any(not math.isfinite(c) for c in coords):
                raise InputError(f"non-finite coordinate in {coords}")
            object.__setattr__(self, "coords", coords)
        else:
            try:
                object.__setattr__(self, "index", _index(self.index))
            except TypeError:
                raise InputError(f"point index {self.index!r} is not an integer") from None
            if self.index < 0:
                raise InputError(f"negative point index {self.index}")

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
            if (self.matrix is not None or isinstance(self.dim, bool)
                    or not isinstance(self.dim, numbers.Integral) or self.dim < 1):
                raise InputError("euclidean space needs an integer dim >= 1 and no matrix")
        elif self.mode == FINITE:
            if self.dim is not None or self.matrix is None:
                raise InputError("finite space needs a matrix and no dim")
            _check_reals(self.matrix, "distance matrix entries")
            try:
                arr = np.array(self.matrix, dtype=float)
            except (ValueError, OverflowError):
                raise InputError("distance matrix must be square and nonempty") from None
            if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[0] != arr.shape[1]:
                raise InputError("distance matrix must be square and nonempty")
            bad = np.argwhere(~(np.isfinite(arr) & (arr >= 0)))
            if bad.size:
                i, j = bad[0]
                raise InputError(f"distance matrix entry {arr[i, j]} not a finite nonnegative real")
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
            rows = [_coords(p) for p in points]
            _check_reals(rows, "euclidean point coordinates")
            try:
                arr = np.array(rows, dtype=float)
            except (TypeError, ValueError):
                raise InputError("euclidean points must be coordinate sequences of numbers") from None
            if arr.shape == (0,):
                arr = arr.reshape(0, self.dim)
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise InputError(f"points of shape {arr.shape} do not fit a space of dim {self.dim}")
            if not (np.abs(arr) <= COORD_MAX).all():
                raise InputError(f"point coordinates must be finite with magnitude at most {COORD_MAX:g}")
            return arr
        try:
            # a coordinate Point has index None, which the int array rejects
            arr = np.array([p.index if isinstance(p, Point) else _index(p) for p in points], dtype=np.intp)
        except (TypeError, OverflowError):
            raise InputError("finite-space points are integer indices") from None
        if arr.size and (arr.min() < 0 or arr.max() >= len(self.matrix)):
            raise InputError(f"point index outside 0..{len(self.matrix) - 1}")
        return arr

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
