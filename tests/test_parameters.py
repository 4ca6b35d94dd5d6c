"""Radius and tolerance parameters must be finite and positive, windows
integers, alpha grids nonempty, at most 10,000 levels and with no two
levels that print alike, and generator boxes within the coordinate range,
in the library and through the CLI; levels, grid alphas, coordinates and
generator params are real numbers within float range, never a coerced bool
or string; stored point arrays are read-only."""

from pathlib import Path

import numpy as np
import pytest

from fuzzymetrics import (
    InputError,
    MetricSpace,
    alpha_cut,
    cauchy_tail_profile,
    closedness_witness,
    default_alpha_grid,
    eps_net,
    gamma_diagnostic,
    kuratowski_tail_diagnostic,
    levelwise_profile,
    send_decomposition_check,
    erc_modulus,
    finite_set,
    hausdorff,
    make_fuzzy,
    metric_matrix,
    same_representation,
    strict_cut_closure,
    support,
    Verdict,
    tail_verdict,
    tb_end_report,
    tb_send_report,
    trend_verdict,
)
from fuzzymetrics.certificates import tail_certificate
from fuzzymetrics.cli import main
from fuzzymetrics.common import MAX_GRID_LEVELS
from fuzzymetrics.generators import (
    MAX_LEVELS,
    MAX_MEMBERS,
    collapse_count,
    collapse_family,
    contracting_sequence,
    crisp_interval,
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
# a bool, a string, bytes and None are not real numbers: True once ran as
# 1.0, and the others raised a bare TypeError
BAD = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, True, "0.5", b"0.5", None]


@pytest.mark.parametrize("eps", BAD)
def test_eps_must_be_finite_and_positive(eps):
    fam = translates_family(SP1, 6)
    with pytest.raises(InputError, match="eps must be"):
        eps_net(finite_set(SP1, [0.0, 1.0]), eps)
    with pytest.raises(InputError, match="eps must be"):
        tb_end_report(fam, eps, (0.5, 1.0))
    with pytest.raises(InputError, match="eps must be"):
        tb_send_report(fam, eps)
    with pytest.raises(InputError, match="eps must be"):
        erc_modulus(fam, eps)


@pytest.mark.parametrize("tol", BAD)
def test_tol_must_be_finite_and_positive(tol):
    with pytest.raises(InputError, match="tol must be"):
        tail_verdict((0.0, 0.0), 2, tol)
    fam = translates_family(SP1, 3)
    with pytest.raises(InputError, match="tol must be"):
        closedness_witness(fam, singleton(1.0), "send", tol)
    # a NaN tol used to leave the Cauchy tail INCONCLUSIVE, an infinite one PASS
    with pytest.raises(InputError, match="tol must be"):
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


def test_alpha_grid_sizes_are_bounded(capsys):
    assert len(default_alpha_grid(None, MAX_GRID_LEVELS)) == MAX_GRID_LEVELS
    with pytest.raises(InputError, match="alpha grid size must be an integer in 1..10000, got 10001"):
        default_alpha_grid(two_level(), MAX_GRID_LEVELS + 1)
    assert main(["compact", DEMO, "--family", "iv", "--mode", "tb_end", "--eps", "0.05", "--alpha-grid", "10001"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("alpha", ["0.5", b"0.5", True], ids=["string", "bytes", "bool"])
def test_alpha_grids_take_only_real_numbers(alpha):
    # each of these used to be read through float(), and all three
    # functions returned a verdict for the strings; the cut functions and
    # the level matrix took True as 1.0 and failed on a string with a
    # TypeError
    seq = [two_level()] * 3
    with pytest.raises(InputError, match="alpha must be a real number"):
        alpha_cut(two_level(), alpha)
    with pytest.raises(InputError, match="alpha must be a real number"):
        strict_cut_closure(two_level(), alpha)
    with pytest.raises(InputError, match="alpha must be a real number"):
        metric_matrix(seq, "level", alpha)
    with pytest.raises(InputError, match="alpha must be a real number"):
        levelwise_profile(seq, two_level(), [alpha])
    with pytest.raises(InputError, match="alpha must be a real number"):
        gamma_diagnostic(seq, two_level(), [alpha])
    with pytest.raises(InputError, match="alpha must be a real number"):
        tb_end_report(translates_family(SP1, 6), 0.05, [0.25, alpha])


@pytest.mark.parametrize("alpha, message", [
    ("0.5", "alpha must be a real number"),
    (float("nan"), r"alpha nan outside \(0,1\]"),
    (True, "alpha must be a real number"),
    (2.0, r"alpha 2.0 outside \(0,1\]"),
], ids=["string", "nan", "bool", "above-one"])
def test_the_level_matrix_checks_alpha_before_reading_a_cut(alpha, message):
    # with no sets to cut, each of these used to return an empty matrix
    for sets in ([], [two_level()] * 2):
        with pytest.raises(InputError, match=message):
            metric_matrix(sets, "level", alpha)


@pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")], ids=["zero", "above-one", "nan"])
def test_tb_end_alphas_must_lie_in_the_unit_interval(alpha):
    with pytest.raises(InputError, match=r"alpha .* outside \(0,1\]"):
        tb_end_report(translates_family(SP1, 6), 0.05, [0.5, alpha])


# a level given twice, or two levels that print alike at 9 significant
# digits: each report keys its parts and series by the printed level, so
# the second one used to replace the first
REPEATS = [(0.3, 0.3), (0.3, 0.30000000001)]


@pytest.mark.parametrize("alphas", REPEATS, ids=["equal", "alike-at-9-digits"])
def test_levelwise_profile_rejects_a_grid_whose_levels_print_alike(alphas):
    with pytest.raises(InputError, match=r"alpha 0\.3 appears twice in the alpha grid"):
        levelwise_profile([two_level()] * 3, two_level(), [0.2, *alphas])


@pytest.mark.parametrize("alphas", REPEATS, ids=["equal", "alike-at-9-digits"])
def test_gamma_diagnostic_rejects_a_grid_whose_levels_print_alike(alphas):
    with pytest.raises(InputError, match=r"alpha 0\.3 appears twice in the alpha grid"):
        gamma_diagnostic([two_level()] * 3, two_level(), [*alphas, 0.7])


@pytest.mark.parametrize("alphas", REPEATS + [(0.5, 0.5)], ids=["equal", "alike-at-9-digits", "equal-0.5"])
def test_tb_end_report_rejects_a_grid_whose_levels_print_alike(alphas):
    with pytest.raises(InputError, match=rf"alpha {alphas[0]} appears twice in the alpha grid"):
        tb_end_report(translates_family(SP1, 6), 0.05, [*alphas, 1.0])


def test_grids_whose_levels_print_apart_are_accepted():
    # levels that differ in the 9th significant digit print apart and stay
    alphas = (0.3, 0.300000001, 0.5)
    prof = levelwise_profile([two_level()] * 3, two_level(), alphas)
    assert [p.key for p in prof.parts] == ["alpha=0.3", "alpha=0.300000001", "alpha=0.5"]
    assert len(gamma_diagnostic([two_level()] * 3, two_level(), alphas).parts) == 3
    assert len(tb_end_report(translates_family(SP1, 6), 0.05, (*alphas, 1.0)).evidence) == 4


@pytest.mark.parametrize("window", [True, False, 2.5, 2.0, "2", np.float64(2.0), 0, -1, 5])
def test_window_must_be_an_integer(window):
    # True used to count as window 1, and 2.5 failed with a TypeError; every
    # call takes a series of 4, so window 5 is one past its length. The
    # public trend rule used to PASS the empty tail of window 0 or -1 and
    # read window 5 as 1, and the tail rule raised a bare ValueError from
    # max() on an empty tail
    seq = [two_level()] * 4
    target = alpha_cut(two_level(), 0.5)
    series = [0.1, 0.2, 0.3, 0.4]
    calls = [
        lambda: levelwise_profile(seq, two_level(), alphas=[0.5], window=window),
        lambda: gamma_diagnostic(seq, two_level(), alphas=[0.5], window=window),
        lambda: send_decomposition_check(seq, two_level(), window=window),
        lambda: kuratowski_tail_diagnostic([target] * 4, target, window=window),
        lambda: tb_send_report(translates_family(SP1, 4), 0.5, window=window),
        lambda: tail_verdict(series, window, 1e-3),
        lambda: trend_verdict(series, window),
        lambda: trend_verdict(series, window, failing="decreasing"),
    ]
    for call in calls:
        with pytest.raises(InputError, match="window must be an integer"):
            call()
    # a direction other than increasing or decreasing could never FAIL
    with pytest.raises(InputError, match="failing must be 'increasing' or 'decreasing'"):
        trend_verdict(series, 2, failing="sideways")


NAN = float("nan")


@pytest.mark.parametrize("series,window,index", [
    ([0.5, NAN], 2, 1), ([NAN, 0.5], 2, 0), ([NAN, NAN], 2, 0), ([0.1, NAN, 0.2, 0.3], 3, 1),
], ids=["last", "first", "both", "inside"])
def test_a_nan_in_a_verdict_window_is_an_input_error(series, window, index):
    # tail_verdict used to FAIL [0.5, nan] and call [nan, 0.5] INCONCLUSIVE,
    # as max() depends on the order around a NaN; trend_verdict called
    # [nan, nan] INCONCLUSIVE
    for call in (lambda: tail_verdict(series, window, 0.1), lambda: trend_verdict(series, window),
                 lambda: trend_verdict(series, window, failing="decreasing")):
        with pytest.raises(InputError, match=f"series entry {index} is NaN"):
            call()


@pytest.mark.parametrize("series,index", [((0.5, 1e-4, NAN), 2), ((1e-4, NAN), 1), ((NAN, 1e-4, 2e-4), None)],
                         ids=["last", "first-read", "before-window"])
def test_tail_certificate_reads_a_window_as_tail_verdict_does(series, index):
    # tail_certificate took the raw max of each window, and max skips a NaN
    # that is not first: (0.5, 1e-4, nan) and (1e-4, nan) PASSed at window 2
    # with tail max 1e-4 where tail_verdict raised
    def certify():
        return tail_certificate("K", [("p", {"p": series})], 2, 1e-3)

    if index is None:
        cert = certify()
        assert (cert.verdict, cert.parts[0].tail_max) == (Verdict.PASS, {"p": 2e-4})
        assert tail_verdict(series, 2, 1e-3) == (Verdict.PASS, 2e-4)
        return
    for call in (certify, lambda: tail_verdict(series, 2, 1e-3)):
        with pytest.raises(InputError, match=f"series entry {index} is NaN"):
            call()


def test_a_nan_before_the_window_is_not_read():
    assert tail_verdict([NAN, 0.5, 0.5], 2, 0.1) == (Verdict.FAIL, 0.5)
    assert trend_verdict([NAN, 0.5, 0.5], 2) is Verdict.PASS


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


@pytest.mark.parametrize("param,value", [
    ("max_points", 0), ("max_points", -3), ("max_points", True), ("max_points", 2.0),
    ("max_levels", 0), ("max_levels", 2.5), ("max_levels", MAX_LEVELS + 1),
])
def test_random_member_size_parameters_are_checked(param, value):
    # random_fuzzy used to leave these to the draws: a max_points below 1
    # then raised an UnboundLocalError, a max_levels of 0 numpy's ValueError,
    # and a bool or a fractional value was accepted
    with pytest.raises(InputError, match=f"'{param}' must be an integer"):
        random_fuzzy(SP1, np.random.default_rng(0), **{param: value})
    with pytest.raises(InputError, match=f"'{param}' must be an integer"):
        random_family(SP1, 3, **{param: value})


def test_random_fuzzy_checks_its_parameters_as_random_family_does():
    # the space first, then the box, then the member sizes, before any draw
    rng = np.random.default_rng(0)
    with pytest.raises(InputError, match="^generators support euclidean spaces only$"):
        random_fuzzy(MetricSpace.finite([[0.0]]), rng, box=(1.0, 0.0))
    with pytest.raises(InputError, match="'box' must be"):
        random_fuzzy(SP1, rng, box=(1.0, 0.0), max_levels=0)
    with pytest.raises(InputError, match="'max_levels' must be an integer"):
        random_fuzzy(SP1, rng, max_levels=0, max_points=0)
    assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)


def test_random_fuzzy_holds_the_size_bound_of_a_family_of_one_member():
    # a member of at most 2,002 points in dimension 600 may hold 1,201,200
    # coordinates, above MAX_COORDINATES
    with pytest.raises(InputError, match="^1 members of up to 2002 points in dimension 600 exceed the bound"):
        random_fuzzy(MetricSpace.euclidean(600), np.random.default_rng(0), max_levels=1001, max_points=5000)


def drawn_state(rng):
    """What a draw from rng would change, as text: a bit generator's state,
    a RandomState's, or rng itself."""
    if isinstance(rng, np.random.RandomState):
        return repr(rng.get_state())
    return repr(rng.bit_generator.state) if isinstance(rng, np.random.Generator) else repr(rng)


@pytest.mark.parametrize("rng", [
    0, np.random.RandomState(0), np.random.Generator(np.random.MT19937(0)),
    np.random.Generator(np.random.Philox(0)), np.random.Generator(np.random.SFC64(0)),
], ids=["int", "RandomState", "MT19937", "Philox", "SFC64"])
def test_random_fuzzy_needs_a_generator_on_pcg64(rng):
    # an int or a RandomState used to raise an AttributeError in the first
    # draw; the other bit generators were drawn from, but the members are
    # read from PCG64 words as numpy's scalar draws read them
    before = drawn_state(rng)
    with pytest.raises(InputError, match="^'rng' must be a numpy Generator on PCG64 or PCG64DXSM"):
        random_fuzzy(SP1, rng)
    assert drawn_state(rng) == before


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
def test_random_fuzzy_accepts_a_generator_on_either_pcg64(bit_generator):
    u = random_fuzzy(SP1, np.random.Generator(bit_generator(0)))
    assert 1 <= len(support(u)) <= 6


@pytest.mark.parametrize("scale, message", [
    ("x", "must be a real number"), (True, "must be a real number"), (10**400, "must be a real number"),
    (float("nan"), "must be finite and >= 0"), (float("inf"), "must be finite and >= 0"),
    (-1.0, "must be finite and >= 0"),
], ids=["string", "bool", "beyond-float-range", "nan", "inf", "negative"])
def test_contracting_sequence_checks_its_scale(scale, message):
    # a string used to raise a TypeError, NaN to fail as a coordinate of
    # the first point, and a negative scale to move the points away from the
    # centroid, so that the bound of the docstring was negative
    with pytest.raises(InputError, match=f"^'scale' {message}"):
        contracting_sequence(two_level(), 3, scale=scale)


def test_contracting_sequence_at_scale_zero_repeats_the_limit():
    limit = two_level()
    assert all(same_representation(u, limit) for u in contracting_sequence(limit, 3, scale=0))


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
@pytest.mark.parametrize("param", ["low", "high", "step"])
def test_crisp_interval_rejects_a_bound_that_is_not_a_real_number(param, value):
    # a bool low was coerced to 1.0 and a string high raised a TypeError
    args = {"low": 0.0, "high": 1.0, "step": 0.1, param: value}
    with pytest.raises(InputError, match=f"'{param}' must be a real number"):
        crisp_interval(SP1, **args)


def test_crisp_interval_is_bounded_before_its_grid_is_built():
    # the step 5e-7 used to build 2,000,001 points, beyond the bound of 10**6
    # coordinates, and a smaller step could exhaust memory
    for step in (5e-7, 1e-300):
        with pytest.raises(InputError, match="1 members of up to .* points in dimension 1 exceed the bound"):
            crisp_interval(SP1, 0.0, 1.0, step)
    with pytest.raises(InputError, match="in dimension 2 exceed the bound"):
        crisp_interval(MetricSpace.euclidean(2), 0.0, 1.0, 2e-6)
    # up to n + 2 points for the n steps: the grid and the endpoint
    with pytest.raises(InputError, match="up to 1000001 points"):
        crisp_interval(SP1, 0.0, 0.999999, 1e-6)
    assert len(crisp_interval(SP1, 0.0, 1.0, 1e-4).levels[0][1]) == 10**4 + 1


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
