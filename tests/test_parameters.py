"""Radius and tolerance parameters must be finite and positive, windows
integers, alpha grids nonempty and generator boxes within the coordinate
range, in the library and through the CLI; levels, coordinates and generator
params are real numbers within float range, never a coerced bool or string;
stored point arrays are read-only."""

from pathlib import Path

import numpy as np
import pytest

from fuzzymetrics import (
    InputError,
    MetricSpace,
    alpha_cut,
    cauchy_tail_profile,
    closedness_witness,
    eps_net,
    gamma_diagnostic,
    kuratowski_tail_diagnostic,
    levelwise_profile,
    send_decomposition_check,
    erc_modulus,
    finite_set,
    hausdorff,
    make_fuzzy,
    tail_verdict,
    tb_end_report,
    tb_send_report,
)
from fuzzymetrics.cli import main
from fuzzymetrics.generators import (
    MAX_LEVELS,
    MAX_MEMBERS,
    collapse_count,
    collapse_family,
    crisp_interval_count,
    crisp_interval_family,
    random_count,
    random_family,
    random_fuzzy,
    translates_count,
    translates_family,
)
from helpers import SP1, singleton, two_level

DEMO = str(Path(__file__).resolve().parent.parent / "demo" / "demo.json")
BAD = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("eps", BAD)
def test_eps_must_be_finite_and_positive(eps):
    fam = translates_family(SP1, 6)
    with pytest.raises(InputError, match="eps must be finite and positive"):
        eps_net(finite_set(SP1, [0.0, 1.0]), eps)
    with pytest.raises(InputError, match="eps must be finite and positive"):
        tb_end_report(fam, eps, (0.5, 1.0))
    with pytest.raises(InputError, match="eps must be finite and positive"):
        tb_send_report(fam, eps)
    with pytest.raises(InputError, match="eps must be finite and positive"):
        erc_modulus(fam, eps)


@pytest.mark.parametrize("tol", BAD)
def test_tol_must_be_finite_and_positive(tol):
    with pytest.raises(InputError, match="tol must be finite and positive"):
        tail_verdict((0.0, 0.0), 2, tol)
    fam = translates_family(SP1, 3)
    with pytest.raises(InputError, match="tol must be finite and positive"):
        closedness_witness(fam, singleton(1.0), "send", tol)
    # a NaN tol used to leave the Cauchy tail INCONCLUSIVE, an infinite one PASS
    with pytest.raises(InputError, match="tol must be finite and positive"):
        cauchy_tail_profile(list(fam.members), "send", tol=tol)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_parameters(capsys, value):
    # a NaN eps used to cover nothing and print PASS with exit 0
    assert main(["compact", DEMO, "--family", "tr", "--mode", "tb_send", "--eps", value]) == 2
    assert main(["compact", DEMO, "--family", "tr", "--mode", "closedness",
                 "--candidate", "three", "--tol", value]) == 2
    assert main(["converge", DEMO, "--sequence", "col", "--limit", "origin", "--tol", value]) == 2
    assert capsys.readouterr().out == ""


def test_point_arrays_are_read_only():
    u = two_level()
    with pytest.raises(ValueError):
        alpha_cut(u, 1.0).array[0, 0] = 5.0
    with pytest.raises(ValueError):
        u.support_memberships[0] = 0.5
    sp = MetricSpace.finite([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        finite_set(sp, [0, 1]).array[0] = 1
    with pytest.raises(ValueError):
        sp.matrix_array[0, 1] = 2.0
    assert np.array_equal(alpha_cut(u, 1.0).array, [[0.0]])


@pytest.mark.parametrize("x", [float("nan"), float("inf"), 1e151, -1e200])
def test_coordinates_beyond_the_kernel_range_are_rejected(x):
    # squared differences of such coordinates would overflow to inf
    with pytest.raises(InputError, match="magnitude at most 1e"):
        finite_set(SP1, [0.0, x])
    assert hausdorff(finite_set(SP1, [1e150]), finite_set(SP1, [-1e150])) == 2e150


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_empty_alpha_grid_is_an_input_error(capsys, grid):
    # an empty grid used to print PASS with exit 0 and no evidence
    with pytest.raises(InputError, match="empty alpha grid"):
        tb_end_report(translates_family(SP1, 6), 0.05, ())
    seq = [two_level()] * 3
    with pytest.raises(InputError, match="empty alpha grid"):
        levelwise_profile(seq, two_level(), alphas=())
    with pytest.raises(InputError, match="empty alpha grid"):
        gamma_diagnostic(seq, two_level(), alphas=[])
    assert main(["compact", DEMO, "--family", "iv", "--mode", "tb_end", "--eps", "0.05", "--alpha-grid", grid]) == 2
    assert main(["converge", DEMO, "--sequence", "col", "--limit", "origin", "--mode", "level",
                 "--alpha-grid", grid]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("window", [True, False, 2.5, 2.0, "2", np.float64(2.0)])
def test_window_must_be_an_integer(window):
    # True used to count as window 1, and 2.5 failed with a TypeError
    seq = [two_level()] * 4
    target = alpha_cut(two_level(), 0.5)
    calls = [
        lambda: levelwise_profile(seq, two_level(), alphas=[0.5], window=window),
        lambda: gamma_diagnostic(seq, two_level(), alphas=[0.5], window=window),
        lambda: send_decomposition_check(seq, two_level(), window=window),
        lambda: kuratowski_tail_diagnostic([target] * 4, target, window=window),
        lambda: tb_send_report(translates_family(SP1, 6), 0.5, window=window),
    ]
    for call in calls:
        with pytest.raises(InputError, match="window must be an integer"):
            call()


def test_integer_windows_of_any_integral_type_are_accepted():
    seq = [two_level()] * 4
    for window in (2, np.int64(2)):
        assert levelwise_profile(seq, two_level(), alphas=[0.5], window=window).evidence["window"] == (2,)


@pytest.mark.parametrize("box", [(0.0, 1e200), (-2e150, 0.0), (0.0, float("inf")), (float("nan"), 1.0)])
def test_random_generator_box_must_lie_in_the_coordinate_range(box):
    # generated points skip point_array, so the generator checks the bound
    with pytest.raises(InputError, match="box"):
        random_family(SP1, 3, box=box)
    with pytest.raises(InputError, match="box"):
        random_fuzzy(SP1, np.random.default_rng(0), box=box)


def test_random_generator_box_at_the_coordinate_bound_is_accepted():
    fam = random_family(MetricSpace.euclidean(2), 20, box=(-1e150, 1e150))
    coords = np.concatenate([u.levels[-1][1].array for u in fam.members])
    assert (np.abs(coords) <= 1e150).all()


# each of these used to be coerced (the string "1" and True to the level 1.0,
# True to the number 1 in a generator), to raise a TypeError, or to escape as
# an OverflowError
NOT_REAL = [True, "0.5", 10**400]
NOT_REAL_IDS = ["bool", "string", "beyond-float-range"]


@pytest.mark.parametrize("level", ["1", True, 10**400], ids=NOT_REAL_IDS)
def test_make_fuzzy_rejects_a_level_that_is_not_a_real_number(level):
    cut = finite_set(SP1, [0.0])
    for levels in ([(level, cut)], [(1.0, cut), (level, cut)]):
        with pytest.raises(InputError, match="level alpha must be a real number"):
            make_fuzzy(levels)


@pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
@pytest.mark.parametrize(
    "make,args,param",
    [
        (translates_family, (3,), "start"),
        (translates_family, (3,), "step"),
        (collapse_family, (3,), "base"),
        (collapse_family, (3,), "far"),
        (crisp_interval_family, (), "low"),
        (crisp_interval_family, (), "high"),
        (crisp_interval_family, (), "step"),
    ],
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_generators_reject_a_param_that_is_not_a_real_number(make, args, param, value):
    with pytest.raises(InputError, match=f"'{param}' must be a real number"):
        make(SP1, *args, **{param: value})


@pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
def test_random_generator_rejects_a_box_entry_that_is_not_a_real_number(value):
    for box in ((value, 1.0), (0.0, value)):
        with pytest.raises(InputError, match="'box'"):
            random_family(SP1, 3, box=box)


@pytest.mark.parametrize("value", [True, "3", 2.0], ids=["bool", "string", "float"])
def test_generators_reject_integer_params_that_are_not_integers(value):
    for make in (translates_family, collapse_family, random_family):
        with pytest.raises(InputError, match="'count' must be an integer"):
            make(SP1, value)
    for param in ("seed", "max_levels", "max_points"):
        with pytest.raises(InputError, match=f"'{param}' must be an integer"):
            random_family(SP1, 3, **{param: value})


def test_generated_families_are_bounded_in_members_levels_and_coordinates():
    # each of these used to be accepted: a count of 10**400 then overflowed,
    # and max_levels beyond int64 failed in the draw
    for make in (translates_family, collapse_family, random_family):
        with pytest.raises(InputError, match=f"{MAX_MEMBERS + 1} members exceed the bound of {MAX_MEMBERS}"):
            make(SP1, MAX_MEMBERS + 1)
        with pytest.raises(InputError, match="members exceed the bound"):
            make(SP1, 10**400)
    with pytest.raises(InputError, match="'max_levels' must be an integer in 1..9223372036854775807"):
        random_family(SP1, 2, max_levels=MAX_LEVELS + 1)
    assert len(random_family(SP1, 2, max_levels=MAX_LEVELS, max_points=3).members) == 2
    # at the bounds the checks pass; nothing is built
    assert all(check(SP1, MAX_MEMBERS) == MAX_MEMBERS for check in (translates_count, collapse_count, random_count))
    assert crisp_interval_count(SP1, 0.0, 999.0, 1.0) == 999
    # a random member holds at most max_points points, and at most two for
    # each of at most 1001 levels
    assert random_count(SP1, MAX_MEMBERS, max_levels=2, max_points=20) == MAX_MEMBERS
    with pytest.raises(InputError, match="100000 members of up to 20 points"):
        random_count(SP1, MAX_MEMBERS, max_levels=10, max_points=20)
    assert random_count(SP1, 499, max_levels=10**9, max_points=10**9) == 499
    with pytest.raises(InputError, match="500 members of up to 2002 points"):
        random_count(SP1, 500, max_levels=10**9, max_points=10**9)
    # the grid (0, 1000] at step 1: 1000 members of up to 1002 points
    with pytest.raises(InputError, match="1000 members of up to 1002 points in dimension 1 exceed the bound of "
                                         "1000000 coordinates"):
        crisp_interval_family(SP1, 0.0, 1000.0, 1.0)
    with pytest.raises(InputError, match="in dimension 9223372036854775808 exceed"):
        translates_family(MetricSpace.euclidean(2**63), 1)
