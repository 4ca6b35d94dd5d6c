import json
import tracemalloc
import warnings
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from fuzzymetrics import (
    InputError,
    MetricSpace,
    Verdict,
    finite_set,
    hausdorff,
    load_document,
    validate_metric,
)
from fuzzymetrics import space as space_module
from fuzzymetrics.cli import main
from helpers import CAPS, LiftedPoint, distance, lifted_distance

SP1 = MetricSpace.euclidean(1)
SP2 = MetricSpace.euclidean(2)


def test_distance_identity():
    assert distance(SP1, (0.0,), (0.0,)) == 0.0


def test_distance_1d_absolute_difference():
    assert distance(SP1, (0.0,), (3.0,)) == 3.0


def test_distance_2d_pythagoras():
    assert distance(SP2, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0, abs=1e-9)


def test_distance_dimension_mismatch():
    with pytest.raises(InputError):
        distance(SP2, (0.0,), (1.0, 2.0))


def test_finite_space_distance_and_bounds():
    sp = MetricSpace.finite([[0.0, 1.0], [1.0, 0.0]])
    assert distance(sp, 0, 1) == 1.0
    with pytest.raises(InputError):
        distance(sp, 0, 2)
    with pytest.raises(InputError):
        distance(sp, (0.0,), 1)


def test_point_rejects_nan():
    with pytest.raises(InputError):
        SP1.point_array([(float("nan"),)])
    with pytest.raises(InputError):
        SP1.point_array([(float("inf"),)])


def test_matrix_must_be_square_and_nonnegative():
    with pytest.raises(InputError):
        MetricSpace.finite([[0.0, 1.0]])
    with pytest.raises(InputError):
        MetricSpace.finite([[0.0, -1.0], [-1.0, 0.0]])


def test_lifted_distance_same_base_point():
    a = LiftedPoint((0.0,), 0.2)
    b = LiftedPoint((0.0,), 0.9)
    assert lifted_distance(SP1, a, b) == pytest.approx(0.7, abs=1e-9)


def test_lifted_distance_combined():
    a = LiftedPoint((0.0,), 0.0)
    b = LiftedPoint((1.0,), 1.0)
    assert lifted_distance(SP1, a, b) == pytest.approx(2.0, abs=1e-9)


def test_lifted_distance_identity():
    a = LiftedPoint((0.5,), 0.3)
    assert lifted_distance(SP1, a, a) == 0.0


def test_lifted_level_range():
    with pytest.raises(InputError):
        LiftedPoint((0.0,), 1.5)


def test_lifted_distance_dominates_components():
    pts = [(0.0, 0.1), (1.0, 0.9), (0.25, 0.5), (2.0, 0.0)]
    for x, s in pts:
        for y, t in pts:
            a = LiftedPoint((x,), s)
            b = LiftedPoint((y,), t)
            d = lifted_distance(SP1, a, b)
            assert d >= abs(s - t) - 1e-12
            assert d >= abs(x - y) - 1e-12


def test_validate_metric_two_point_space():
    cert = validate_metric(MetricSpace.finite([[0.0, 1.0], [1.0, 0.0]]))
    assert cert.verdict is Verdict.PASS


def test_validate_metric_asymmetry_witness():
    cert = validate_metric(MetricSpace.finite([[0.0, 1.0], [2.0, 0.0]]))
    assert cert.verdict is Verdict.FAIL
    assert cert.witness == "asymmetry (0,1)"


def test_validate_metric_triangle_witness():
    cert = validate_metric(
        MetricSpace.finite([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    )
    assert cert.verdict is Verdict.FAIL
    assert cert.witness == "triangle (0,2) via 1"


def test_validate_metric_rejects_euclidean():
    with pytest.raises(InputError):
        validate_metric(SP1)


def test_metric_axioms_on_sampled_triples():
    pts2 = [(x, y) for x in (0.0, 0.5, 1.5) for y in (0.0, 1.0)]
    sp_fin = MetricSpace.finite([[0.0, 2.0, 1.0], [2.0, 0.0, 1.5], [1.0, 1.5, 0.0]])
    assert validate_metric(sp_fin).verdict is Verdict.PASS
    pts_fin = list(range(3))
    for sp, pts in ((SP2, pts2), (sp_fin, pts_fin)):
        for p in pts:
            for q in pts:
                assert distance(sp, p, q) == pytest.approx(distance(sp, q, p), abs=1e-9)
                for r in pts:
                    assert distance(sp, p, r) <= distance(sp, p, q) + distance(sp, q, r) + 1e-9


def test_distance_zero_iff_equal():
    p, q = (0.0, 0.0), (1e-3, 0.0)
    assert distance(SP2, p, p) <= 1e-9
    assert distance(SP2, p, q) > 1e-9


def test_validate_metric_rejects_pseudometric():
    # indices 0 and 1 at distance 0 would be merged silently by finite_set
    sp = MetricSpace.finite([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    cert = validate_metric(sp)
    assert cert.verdict is Verdict.FAIL
    assert cert.witness == "distinct points (0,1) at distance 0.0"


def test_document_with_pseudometric_is_rejected(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "space": {"type": "finite", "matrix": [[0, 0, 1], [0, 0, 1], [1, 1, 0]]},
        "fuzzy_sets": [{"name": "u", "levels": [{"alpha": 1.0, "points": [0, 1, 2]}]}],
    }))
    with pytest.raises(InputError, match="distinct points"):
        load_document(str(path))


def test_a_finite_space_has_a_zero_diagonal(tmp_path, capsys):
    # a diagonal above TOL would let finite_set keep index 0 twice and give
    # hausdorff(s, s) > 0
    with pytest.raises(InputError, match=r"^matrix entry \(0,0\) on the diagonal must be at most 1e-09, got 1.0$"):
        MetricSpace.finite([[1, 2], [2, 1]])
    path = tmp_path / "doc.json"
    for diagonal, code in ((1e-8, 2), (1e-9, 0)):
        path.write_text(json.dumps({
            "space": {"type": "finite", "matrix": [[0.0, 1.0], [1.0, diagonal]]},
            "fuzzy_sets": [{"name": "u", "levels": [{"alpha": 1.0, "points": [0, 1]}]},
                           {"name": "v", "levels": [{"alpha": 1.0, "points": [1]}]}],
        }))
        assert main(["metrics", str(path), "--kind", "end"]) == code
    assert capsys.readouterr().err == "error: space: matrix entry (1,1) on the diagonal must be at most 1e-09, got 1e-08\n"
    assert load_document(str(path)).space.matrix_array[1, 1] == 1e-9


def test_a_negative_zero_diagonal_reads_as_zero_in_every_distance(tmp_path, capsys):
    # the kernel's array holds +0.0 where the matrix holds -0.0, so no
    # distance prints as -0; the matrix as given, and gen, keep -0.0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "space": {"type": "finite", "matrix": [[-0.0, 1.0], [1.0, -0.0]]},
        "fuzzy_sets": [{"name": "a", "levels": [{"alpha": 1.0, "points": [0]}]},
                       {"name": "b", "levels": [{"alpha": 1.0, "points": [0]}]}],
        "sequences": [{"name": "s", "members": ["a", "a", "a"]}],
    }))
    for mode in ("level", "gamma", "send"):
        main(["converge", str(path), "--sequence", "s", "--limit", "b", "--mode", mode, "--alpha-grid", "1"])
        rows = capsys.readouterr().out.splitlines()
        assert rows and not [row for row in rows if row.endswith(",-0")]
    space = MetricSpace.finite([[-0.0, 1.0], [1.0, -0.0]])
    s = finite_set(space, [0])
    assert str(hausdorff(s, s)) == "0.0"
    assert str(space.matrix_array[0, 0]) == "-0.0"
    assert main(["gen", str(path)]) == 0
    assert str(json.loads(capsys.readouterr().out)["space"]["matrix"][0][0]) == "-0.0"


def _first_triangle_violation(m):
    n = len(m)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                if m[i][k] > m[i][j] + m[j][k] + 1e-9:
                    return f"triangle ({i},{k}) via {j}"
    return None


@given(st.integers(3, 7).flatmap(
    lambda n: st.lists(st.integers(1, 9), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda xs: (n, xs))), st.sampled_from(CAPS))
def test_validate_metric_reports_first_triangle_violation(case, cap):
    n, xs = case
    m = [[0.0] * n for _ in range(n)]
    it = iter(xs)
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = float(next(it))
    with mock.patch.object(space_module, "BLOCK_BYTES", cap):
        cert = validate_metric(MetricSpace.finite(m))
    expected = _first_triangle_violation(m)
    assert cert.witness == expected
    assert cert.verdict is (Verdict.PASS if expected is None else Verdict.FAIL)


def test_validate_metric_passes_entries_whose_sums_overflow():
    # 1e308 + 1e308 is +inf, which no entry exceeds
    m = [[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_metric(MetricSpace.finite(m)).verdict is Verdict.PASS


FINITE2 = MetricSpace.finite([[0.0, 1.0], [1.0, 0.0]])


# each of these used to be coerced: "1.5" to 1.5, True to 1.0 or index 1
@pytest.mark.parametrize(
    "build",
    [
        lambda: finite_set(SP1, [("1.5",), (True,)]),
        lambda: finite_set(SP1, [(0.5,), (True,)]),
        lambda: finite_set(SP1, ["1.5"]),
        lambda: finite_set(SP1, [True]),
        lambda: finite_set(SP2, [(0.0, np.bool_(True))]),
        lambda: finite_set(FINITE2, [True]),
        lambda: finite_set(FINITE2, [0, np.bool_(False)]),
        lambda: MetricSpace.finite([[0, "1"], ["1", 0]]),
        lambda: MetricSpace.finite([[0.0, True], [True, 0.0]]),
        lambda: MetricSpace.finite(np.array([[False, True], [True, False]])),
        lambda: SP1.point_array([("1.5",)]),
        lambda: FINITE2.point_array([True]),
        lambda: FINITE2.point_array([1.5]),
        lambda: LiftedPoint((0.0,), True),
        lambda: LiftedPoint((0.0,), "0.5"),
        lambda: MetricSpace.euclidean(True),
        lambda: MetricSpace.euclidean(2.5),
    ],
    ids=["coords-string-and-bool", "coords-bool-among-floats", "bare-string", "bare-bool", "numpy-bool-coord",
         "index-bool", "index-numpy-bool", "matrix-strings", "matrix-bools-among-floats", "matrix-bool-array",
         "point-string", "point-index-bool", "point-index-fraction", "level-bool", "level-string", "dim-bool",
         "dim-fraction"],
)
def test_library_constructors_reject_strings_and_bools(build):
    with pytest.raises(InputError):
        build()


def test_library_constructors_accept_ints_and_numpy_numbers():
    assert finite_set(SP2, [(1, np.float64(2.5)), (np.int64(3), 0)]).array.tolist() == [[1.0, 2.5], [3.0, 0.0]]
    assert finite_set(SP2, np.array([[0.5, 1.0]])).array.tolist() == [[0.5, 1.0]]
    assert finite_set(FINITE2, [np.int64(1), 0]).array.tolist() == [1, 0]
    assert MetricSpace.euclidean(np.int64(2)).dim == 2
    assert LiftedPoint((0.0,), 1).level == 1
    space = MetricSpace.finite(np.array([[0, 2], [2, 0]]))
    assert space.matrix_array.tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert not space.matrix_array.flags.writeable


@pytest.mark.parametrize("kind", ["list", "ndarray"])
def test_a_finite_space_copies_its_matrix_and_leaves_the_callers_writable(kind):
    rows = [[0.0, 1.0], [1.0, 0.0]]
    given = np.array(rows) if kind == "ndarray" else [list(row) for row in rows]
    space = MetricSpace.finite(given)
    assert kind == "list" or given.flags.writeable
    given[0][1] = given[1][0] = 5.0
    assert space.matrix_array.tolist() == rows and space._symmetric.tolist() == rows
    assert space_module.dist_matrix(space, np.array([0]), np.array([1])).tolist() == [[1.0]]


def test_a_finite_space_retains_two_arrays_of_its_matrix():
    # the rows as given and the symmetric array the kernel reads take
    # 2 * 8 n^2 bytes; a third copy, as a tuple of tuples of floats held,
    # would exceed the bound
    n = 1000
    grid = np.arange(n, dtype=float)
    rows = np.abs(grid[:, None] - grid[None, :]).tolist()
    tracemalloc.start()
    try:
        space = MetricSpace.finite(rows)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert space.matrix_array.shape == (n, n)
    assert retained <= 3 * 8 * n * n


@pytest.mark.parametrize(
    "matrix",
    [[], [[]], [[0.0, 1.0]], [[0.0, 1.0], [1.0]], [[0.0, -1.0], [-1.0, 0.0]], [[0.0, float("inf")], [1.0, 0.0]]],
    ids=["empty", "empty-row", "not-square", "ragged", "negative", "infinite"],
)
def test_matrix_shape_and_entries_checked_as_one_array(matrix):
    with pytest.raises(InputError):
        MetricSpace.finite(matrix)
