import pytest

from fuzzymetrics import (
    InputError,
    alpha_cut,
    crisp,
    directed_hausdorff,
    finite_set,
    make_fuzzy,
    p0_points,
    platform_points,
    same_representation,
    strict_cut_closure,
    support,
)
from fuzzymetrics.common import TOL
from fuzzymetrics.fuzzy import memberships
from helpers import SP1, fuzzy_corpus, singleton, two_level


def xs(s):
    return sorted(s.array[:, 0].tolist())


def test_crisp_singleton():
    u = singleton(0.0)
    assert len(u.levels) == 1
    assert u.levels[0][0] == 1.0
    assert xs(support(u)) == [0.0]


def test_two_level_valid():
    u = two_level()
    assert u.alphas == (1.0, 0.5)


def test_non_nested_rejected_with_pair():
    with pytest.raises(InputError, match=r"\(1\.0, 0\.5\)"):
        make_fuzzy([(1.0, finite_set(SP1, [0.0])), (0.5, finite_set(SP1, [1.0]))])


def test_missing_top_level_rejected():
    with pytest.raises(InputError):
        make_fuzzy([(0.9, finite_set(SP1, [0.0]))])


def test_alpha_out_of_range_rejected():
    with pytest.raises(InputError):
        make_fuzzy([(1.0, finite_set(SP1, [0.0])), (0.0, finite_set(SP1, [0.0]))])


def test_levels_must_strictly_decrease():
    with pytest.raises(InputError):
        make_fuzzy([(1.0, finite_set(SP1, [0.0])), (1.0, finite_set(SP1, [0.0]))])


def test_membership_values():
    u = two_level()
    assert memberships(u, SP1.point_array([0.0, 1.0, 2.0])).tolist() == [1.0, 0.5, 0.0]


def test_alpha_cut_scans_stored_levels():
    u = two_level()
    assert xs(alpha_cut(u, 0.7)) == [0.0]
    assert xs(alpha_cut(u, 0.5)) == [0.0, 1.0]
    assert xs(alpha_cut(u, 0.2)) == [0.0, 1.0]


def test_alpha_cut_range_checked():
    u = two_level()
    with pytest.raises(InputError):
        alpha_cut(u, 0.0)
    with pytest.raises(InputError):
        alpha_cut(u, 1.1)


def test_support_is_lowest_cut():
    assert xs(support(two_level())) == [0.0, 1.0]
    assert xs(support(singleton(0.0))) == [0.0]
    u = make_fuzzy(
        [
            (1.0, finite_set(SP1, [0.0])),
            (0.6, finite_set(SP1, [0.0, 1.0])),
            (0.3, finite_set(SP1, [0.0, 1.0, 2.0])),
        ]
    )
    assert xs(support(u)) == [0.0, 1.0, 2.0]


def test_strict_cut_closure():
    u = two_level()
    assert xs(strict_cut_closure(u, 0.5)) == [0.0]
    assert xs(strict_cut_closure(u, 0.3)) == [0.0, 1.0]
    s = crisp(SP1, [0.0, 2.0])
    for a in (0.1, 0.5, 0.9):
        assert xs(strict_cut_closure(s, a)) == [0.0, 2.0]


def test_platform_points():
    assert platform_points(two_level()) == (0.5,)
    assert platform_points(crisp(SP1, [0.0, 1.0])) == ()
    u = make_fuzzy(
        [
            (1.0, finite_set(SP1, [0.0])),
            (0.6, finite_set(SP1, [0.0])),
            (0.3, finite_set(SP1, [0.0, 1.0])),
        ]
    )
    assert platform_points(u) == (0.3,)


def test_p0_points_match_platform_points_on_examples():
    assert p0_points(two_level()) == (0.5,)
    assert p0_points(crisp(SP1, [0.0, 1.0])) == ()


def test_p0_equals_platform_on_seeded_corpus():
    for u in fuzzy_corpus(120, seed=41):
        plat = platform_points(u)
        assert p0_points(u) == plat
        assert len(plat) <= len(u.levels)


def test_reconstruction_round_trip():
    for u in fuzzy_corpus(40, seed=42):
        rebuilt = make_fuzzy(list(u.levels))
        assert same_representation(u, rebuilt)
        # every stored cut is reproduced exactly by the membership function
        for a, cut in u.levels:
            got = alpha_cut(rebuilt, a)
            assert xs(got) == xs(cut)
            assert (memberships(u, cut.array) >= a).all()


def test_membership_lives_on_stored_alphas():
    for u in fuzzy_corpus(40, seed=43):
        allowed = {0.0, *u.alphas}
        assert set(memberships(u, support(u).array).tolist()) <= allowed


def test_normality():
    for u in fuzzy_corpus(40, seed=44):
        assert len(alpha_cut(u, 1.0)) >= 1


def test_cut_monotonicity():
    for u in fuzzy_corpus(30, seed=45):
        grid = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        for lo, hi in zip(grid, grid[1:]):
            big, small = alpha_cut(u, lo), alpha_cut(u, hi)
            assert directed_hausdorff(small, big) <= TOL


def test_membership_space_checked():
    u = two_level()
    with pytest.raises(InputError):
        memberships(u, u.space.point_array([(0.0, 0.0)]))
