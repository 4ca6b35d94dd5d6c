"""Radius and tolerance parameters must be finite and positive, windows
integers, alpha grids nonempty and generator boxes within the coordinate
range, in the library and through the CLI; stored point arrays are
read-only."""

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
    tail_verdict,
    tb_end_report,
    tb_send_report,
)
from fuzzymetrics.cli import main
from fuzzymetrics.generators import random_family, random_fuzzy, translates_family
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
