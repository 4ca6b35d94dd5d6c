"""The one array conversion of points, indices and matrices against the
per-entry conversions in reference_pointwise.py: the same array bits for an
input both accept and the same InputError for one both reject, on mixed
lists and ndarrays. The inputs whose acceptance changed, as the README lists
them, have their own cases below."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

import reference_pointwise as ref
from fuzzymetrics import InputError, MetricSpace, finite_set
from fuzzymetrics import space as space_module
from fuzzymetrics.common import is_index, is_real, real

SP1 = MetricSpace.euclidean(1)
SP2 = MetricSpace.euclidean(2)
FINITE3 = MetricSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])

NUMPY_SCALARS = st.builds(lambda kind, x: kind(x),
                          st.sampled_from([np.int64, np.uint8, np.float32, np.float64, np.bool_]), st.integers(0, 4))
SCALARS = st.one_of(
    st.integers(-2, 4),
    st.floats(width=64),
    st.booleans(),
    st.text(max_size=2),
    st.sampled_from([10**400, -(10**400), 2**70]),
    NUMPY_SCALARS,
    st.text(max_size=2).map(np.str_),
)
# mostly valid rows, so that the accepting path is reached as often as the rejecting one
ROWS = st.one_of(
    st.lists(st.one_of(st.floats(-4, 4), st.integers(-4, 4), NUMPY_SCALARS), min_size=2, max_size=2),
    st.lists(SCALARS, max_size=3),
    st.lists(SCALARS, max_size=3).map(tuple),
)
DTYPES = ["f8", "f4", "i8", "u1", "?", "O", "U2"]


def arrays(min_dims: int, max_dims: int):
    def of(dtype: str):
        shapes = hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=0, max_side=4)
        return hnp.arrays(dtype, shapes, elements=SCALARS if dtype == "O" else None)
    return st.sampled_from(DTYPES).flatmap(of)


def outcome(build, *args):
    """The array's dtype, shape and bytes, or the type and message of the
    exception that building it raises."""
    try:
        arr = build(*args)
    except Exception as e:  # compared, whatever it is
        return type(e).__name__, str(e)
    return arr.dtype.str, arr.shape, arr.tobytes()


def as_read_before(points) -> list:
    """The input that the reference reads as point_array now reads
    `points`: a bare real number of any type is a point of one coordinate,
    and a bare bool is no point. None stands in for the bool, as it is no
    sequence either."""
    return [(p,) if is_real(type(p)) else None if type(p) is bool else p for p in points]


@settings(max_examples=200)
@given(points=st.one_of(st.lists(st.one_of(ROWS, SCALARS), max_size=4), arrays(1, 2)),
       space=st.sampled_from([SP1, SP2]))
def test_euclidean_points_convert_as_the_reference_does(points, space):
    assert outcome(space.point_array, points) == outcome(ref.point_array, space, as_read_before(points))


@settings(max_examples=200)
@given(points=st.one_of(st.lists(st.one_of(st.integers(-1, 3), SCALARS), max_size=4), arrays(1, 2)))
def test_finite_indices_convert_as_the_reference_does(points):
    assert outcome(FINITE3.point_array, points) == outcome(ref.point_array, FINITE3, points)


@settings(max_examples=200)
@given(matrix=st.one_of(
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.floats(0, 4), st.integers(0, 4), NUMPY_SCALARS), min_size=n, max_size=n),
        min_size=n, max_size=n)),
    st.lists(st.lists(SCALARS, max_size=3), max_size=3),
    arrays(1, 3),
))
def test_finite_matrices_convert_as_the_reference_does(matrix):
    assert outcome(lambda m: MetricSpace.finite(m).matrix_array, matrix) == outcome(ref.finite_matrix, matrix)


def test_an_array_of_numbers_is_converted_without_reading_an_entry_type(monkeypatch):
    calls = []

    def counting(test):
        def wrapped(kind):
            calls.append(kind)
            return test(kind)
        return wrapped

    monkeypatch.setattr(space_module, "is_real", counting(is_real))
    monkeypatch.setattr(space_module, "is_index", counting(is_index))
    pts = np.random.default_rng(0).uniform(size=(50, 2))
    assert SP2.point_array(pts).tobytes() == pts.tobytes()
    matrix = np.abs(pts[:, :1] - pts[:, 0])
    assert MetricSpace.finite(matrix).matrix_array.tobytes() == matrix.tobytes()
    assert FINITE3.point_array(np.array([2, 0, 1])).tolist() == [2, 0, 1]
    assert calls == []


# inputs whose acceptance changed: each of these failed before one number rule
def test_bare_numpy_reals_and_integer_arrays_are_points_in_dimension_1():
    assert SP1.point_array([np.int64(2), np.float32(0.5)]).tolist() == [[2.0], [0.5]]
    assert SP1.point_array(np.array([2, 0])).tolist() == [[2.0], [0.0]]
    assert finite_set(SP1, np.array([3, 1], dtype=np.uint8)).array.tolist() == [[3.0], [1.0]]


def test_a_bare_real_of_any_type_is_a_point_of_one_coordinate_in_every_dimension():
    with pytest.raises(InputError, match=r"^points of shape \(1, 1\) do not fit a space of dim 2$"):
        SP2.point_array([np.int64(2)])


def test_a_bare_bool_is_no_point():
    for points in ([True], [0.5, np.True_], np.array([True, False])):
        with pytest.raises(InputError, match="^euclidean points must be coordinate sequences of numbers$"):
            SP1.point_array(points)


def test_a_zero_dimensional_integer_array_is_no_index():
    with pytest.raises(InputError) as e:
        FINITE3.point_array([0, np.array(1)])
    assert str(e.value) == "finite-space point 1 must be an integer index in 0..2, got array(1)"


def test_a_numpy_timedelta_is_no_integer_parameter():
    with pytest.raises(InputError, match=r"^dim must be an integer >= 1, got np.timedelta64\(2\)$"):
        MetricSpace.euclidean(np.timedelta64(2))


@pytest.mark.parametrize("delta", [np.timedelta64(3, "D"), np.timedelta64(3)])
def test_a_numpy_timedelta_is_no_real_parameter(delta):
    # with a unit, float() of it raised a TypeError; without one it read 3.0
    with pytest.raises(InputError, match="^tol must be a real number within float range, got np.timedelta64"):
        real("tol", delta)


def test_a_timedelta_point_array_is_no_coordinates():
    with pytest.raises(InputError) as e:
        SP1.point_array(np.array([[3], [1]], dtype="m8[D]"))
    assert str(e.value) == ("coordinate 0 of point 0 must be a real number within float range, "
                            f"got {np.timedelta64(3, 'D')!r}")


# inputs whose acceptance holds
def test_a_bool_array_is_no_point_array():
    with pytest.raises(InputError) as e:
        SP2.point_array(np.array([[1.0, 0.0], [0.0, 1.0]]) > 0.5)
    assert str(e.value) == f"coordinate 0 of point 0 must be a real number within float range, got {np.True_!r}"


def test_a_numpy_timedelta_is_no_index():
    with pytest.raises(InputError) as e:
        FINITE3.point_array([0, np.timedelta64(2)])
    assert str(e.value) == f"finite-space point 1 must be an integer index in 0..2, got {np.timedelta64(2)!r}"


def test_numpy_integers_are_indices():
    assert FINITE3.point_array([np.int64(2), np.uint8(0)]).tolist() == [2, 0]
    assert FINITE3.point_array(np.array([1, 2], dtype=np.uint8)).tolist() == [1, 2]


@pytest.mark.parametrize(
    "points, k",
    [([0, 1.0], 1), ([True], 0), ([2, np.True_], 1), ([0, 3, "x"], 1), ([-1], 0), (np.array([0, 5]), 1),
     (np.array([0, 2**63 + 1], dtype=np.uint64), 1), ([1, 2**70], 1), (np.array([False]), 0), (np.array([1.0]), 0)],
    ids=["float", "bool", "numpy-bool", "past-the-end", "negative", "int-array-past-the-end", "uint64-beyond-intp",
         "int-beyond-intp", "bool-array", "float-array"],
)
def test_the_first_point_that_is_no_index_in_range_is_named(points, k):
    with pytest.raises(InputError) as e:
        FINITE3.point_array(points)
    assert str(e.value) == f"finite-space point {k} must be an integer index in 0..2, got {points[k]!r}"
