"""Property-based checks of the metric and representation invariants on
1-D, 2-D and finite-mode sets, and metamorphic checks that the identity
decisions at TOL (dedup, nestedness, memberships) do not change under
transformations that change no distance, or scale every distance exactly
and leave none near TOL."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from fuzzymetrics import (
    TOL,
    InputError,
    MetricSpace,
    alpha_cut,
    cauchy_limit_construct,
    covering_number,
    directed_hausdorff,
    endograph_metric,
    endograph_oracle,
    eps_net,
    finite_set,
    hausdorff,
    kuratowski_tail_diagnostic,
    make_fuzzy,
    p0_points,
    platform_points,
    sendograph_metric,
    sendograph_oracle,
    strict_cut_closure,
    support,
    union_family,
    Verdict,
)
from fuzzymetrics.fuzzy import memberships
from helpers import SP1, SP2

# quarter-step coordinates in [0,2] force coincidences and touching cuts
quarter = st.integers(0, 8).map(lambda k: 0.25 * k)
# the L1 metric on a 5x5 grid at step 1/4: dyadic entries keep the
# triangle inequality exact
GRID_CELLS = [(x, y) for x in range(5) for y in range(5)]
FINITE = MetricSpace.finite([[(abs(xa - xb) + abs(ya - yb)) / 4 for xb, yb in GRID_CELLS] for xa, ya in GRID_CELLS])
SCENES = {
    "1d": (SP1, quarter.map(lambda x: (x,))),
    "2d": (SP2, st.tuples(quarter, quarter)),
    "finite": (FINITE, st.integers(0, len(GRID_CELLS) - 1)),
}
EUCLIDEAN_KINDS = ("1d", "2d")
alpha_pool = st.sampled_from([0.2, 0.4, 0.6, 0.8])


def point_lists(point, max_size=5):
    return st.lists(point, min_size=1, max_size=max_size)


def draw_step_set(draw, space, point):
    extra_levels = draw(st.lists(alpha_pool, min_size=0, max_size=3, unique=True))
    pts = draw(point_lists(point))
    levels = [(1.0, finite_set(space, pts))]
    for a in sorted(extra_levels, reverse=True):
        pts = pts + draw(st.lists(point, min_size=0, max_size=2))
        levels.append((a, finite_set(space, pts)))
    return make_fuzzy(levels)


@st.composite
def point_sets(draw, least, most=None, kinds=tuple(SCENES)):
    """Between least and most (default: exactly least) point sets of one
    space, drawn from 1-D, 2-D or finite mode."""
    space, point = SCENES[draw(st.sampled_from(kinds))]
    count = draw(st.integers(least, least if most is None else most))
    return [finite_set(space, draw(point_lists(point))) for _ in range(count)]


@st.composite
def step_sets(draw, count, kinds=tuple(SCENES)):
    """count step fuzzy sets of one space, with nested cuts."""
    space, point = SCENES[draw(st.sampled_from(kinds))]
    return [draw_step_set(draw, space, point) for _ in range(count)]


@given(point_sets(2))
def test_hausdorff_symmetry_and_identity(sets):
    a, b = sets
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == hausdorff(b, a)
    assert directed_hausdorff(a, b) <= hausdorff(a, b)


@given(point_sets(3))
def test_hausdorff_triangle(sets):
    a, b, c = sets
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9


@given(point_sets(1), st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]))
def test_eps_net_subset_and_coverage(sets, eps):
    [a] = sets
    net = eps_net(a, eps)
    assert directed_hausdorff(net, a) == 0.0
    assert directed_hausdorff(a, net) <= eps


@given(point_sets(1), st.sampled_from([0.1, 0.3, 0.5]), st.sampled_from([0.5, 1.0, 2.0]))
def test_covering_number_monotone(sets, eps_small, eps_big):
    [a] = sets
    assert covering_number(a, eps_small) >= covering_number(a, eps_big)


@given(point_sets(1, 6))
def test_union_contains_all_members(family):
    u = union_family(family)
    for s in family:
        assert directed_hausdorff(s, u) <= TOL


@given(point_sets(1, 8))
def test_cauchy_construct_residuals_monotone_to_zero(prefix):
    _, limit, residuals = cauchy_limit_construct(prefix)
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] == 0.0
    for c in prefix:
        assert directed_hausdorff(c, limit) <= TOL


@given(point_sets(1), st.integers(2, 6))
def test_hausdorff_tail_pass_implies_kuratowski_pass(sets, count):
    # a sequence that provably converges: constant at the target
    [target] = sets
    prefix = [target] * (count * 4)
    series = [hausdorff(c, target) for c in prefix]
    window, tol = count, 1e-3
    assert max(series[-window:]) < tol
    diag = kuratowski_tail_diagnostic(prefix, target, window=window, tol=tol)
    assert diag.verdict is Verdict.PASS


@given(step_sets(1))
def test_platform_and_discontinuity_sets_agree(sets):
    [u] = sets
    plat = p0_points(u)
    assert plat == platform_points(u)
    assert len(plat) < len(u.levels)
    for a in plat:
        strict = strict_cut_closure(u, a)
        cut = alpha_cut(u, a)
        assert directed_hausdorff(strict, cut) <= TOL
        assert len(strict) < len(cut)


@given(step_sets(1))
def test_membership_reconstructs_cuts(sets):
    [u] = sets
    for a, cut in u.levels:
        rebuilt = alpha_cut(u, a)
        assert len(rebuilt) == len(cut)
        assert (memberships(u, cut.array) >= a).all()
    assert set(memberships(u, support(u).array).tolist()) <= {0.0, *u.alphas}


@given(step_sets(2))
def test_graph_metric_symmetry_identity_dominance(sets):
    u, v = sets
    for dist in (endograph_metric, sendograph_metric):
        assert dist(u, u) <= 1e-9
        assert dist(u, v) == dist(v, u)
    assert endograph_metric(u, v) <= sendograph_metric(u, v) + 1e-12


@given(step_sets(3))
@settings(max_examples=50)
def test_graph_metric_triangle(sets):
    u, v, w = sets
    for dist in (endograph_metric, sendograph_metric):
        assert dist(u, w) <= dist(u, v) + dist(v, w) + 1e-9


@given(step_sets(2))
@settings(max_examples=50)
def test_oracle_agreement(sets):
    u, v = sets
    res = 0.05
    assert abs(endograph_metric(u, v) - endograph_oracle(u, v, res)) <= 2 * res
    assert abs(sendograph_metric(u, v) - sendograph_oracle(u, v, res)) <= 2 * res


@given(step_sets(1, kinds=EUCLIDEAN_KINDS))
def test_zero_distance_only_for_identical_graphs(sets):
    # moving one support point by a visible amount moves both metrics
    [u] = sets
    space = u.space
    shift = np.eye(space.dim)[0] * 0.75
    v = make_fuzzy([(a, finite_set(space, cut.array + shift)) for a, cut in u.levels])
    assert sendograph_metric(u, v) > 1e-9


# -- metamorphic checks of the identity decisions at TOL ---------------------


def identity_decisions(space, raws, queries):
    """What the identity decisions at TOL make of three point lists and a
    query list: the kept points of each list's dedup, and, if make_fuzzy
    accepts the lists as the cuts at levels 1.0, 0.6 and 0.3, the
    memberships of the queries (None if it rejects them)."""
    cuts = [finite_set(space, r) for r in raws]
    try:
        u = make_fuzzy(list(zip((1.0, 0.6, 0.3), cuts)))
    except InputError:
        return [c.array for c in cuts], None
    return [c.array for c in cuts], memberships(u, space.point_array(queries)).tolist()


@st.composite
def level_lists(draw, point):
    """Three point lists for the levels 1.0, 0.6 and 0.3 and a query list.
    Each lower list extends the one above or is drawn afresh, so make_fuzzy
    both accepts and rejects."""
    raws = [draw(point_lists(point))]
    for _ in range(2):
        fresh = draw(st.booleans())
        raws.append(draw(point_lists(point)) if fresh else raws[-1] + draw(st.lists(point, max_size=3)))
    return raws, draw(point_lists(point, max_size=8))


# a dyadic grid at step 1/8 whose points may move by 2**-30 (within TOL of
# the grid point) or 2**-29 (beyond it) on each axis; every coordinate and
# every difference is exact, and near-duplicate chains merge only in part
nudged = st.tuples(st.integers(-16, 16), st.integers(0, 2)).map(lambda t: t[0] / 8 + t[1] * 2.0 ** -30)
grid = st.integers(-16, 16).map(lambda k: k / 8)


def euclidean_scene(coordinate):
    return st.sampled_from([SP1, SP2]).flatmap(
        lambda space: st.tuples(st.just(space), level_lists(st.tuples(*[coordinate] * space.dim))))


def mapped(raws, queries, f):
    return [[f(p) for p in r] for r in raws], [f(p) for p in queries]


@given(euclidean_scene(nudged), st.lists(st.integers(-16, 16), min_size=2, max_size=2))
@settings(max_examples=150)
def test_identity_decisions_are_unchanged_by_dyadic_translation(scene, steps):
    space, (raws, queries) = scene
    v = np.array(steps[:space.dim]) / 8
    kept, values = identity_decisions(space, raws, queries)
    moved, moved_values = identity_decisions(space, *mapped(raws, queries, lambda p: tuple(np.add(p, v))))
    assert [k.tobytes() for k in moved] == [(k + v).tobytes() for k in kept]
    assert moved_values == values


@given(euclidean_scene(grid), st.sampled_from([-3, -2, -1, 1, 2, 3]))
@settings(max_examples=150)
def test_identity_decisions_are_unchanged_by_scaling_by_a_power_of_two(scene, k):
    # grid distances are 0 or at least 1/8, so scaled by 2**k they stay 0
    # or far beyond TOL, and every distance scales exactly
    space, (raws, queries) = scene
    c = 2.0 ** k
    kept, values = identity_decisions(space, raws, queries)
    scaled, scaled_values = identity_decisions(space, *mapped(raws, queries, lambda p: tuple(np.multiply(p, c))))
    assert [s.tobytes() for s in scaled] == [(s * c).tobytes() for s in kept]
    assert scaled_values == values


@st.composite
def permuted_finite_scenes(draw):
    """A finite space on cells of a 4x4 grid, repeats allowed (distinct
    indices at distance 0, which dedup merges), its level lists, and a
    permutation of its indices."""
    cells = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=8))
    matrix = [[(abs(xa - xb) + abs(ya - yb)) / 4 for xb, yb in cells] for xa, ya in cells]
    n = len(cells)
    return MetricSpace.finite(matrix), draw(level_lists(st.integers(0, n - 1))), draw(st.permutations(range(n)))


@given(permuted_finite_scenes())
@settings(max_examples=150)
def test_identity_decisions_are_unchanged_by_relabelling_a_finite_space(scene):
    space, (raws, queries), perm = scene
    m = space.matrix_array
    relabelled = np.empty_like(m)
    relabelled[np.ix_(perm, perm)] = m  # index i becomes perm[i]
    kept, values = identity_decisions(space, raws, queries)
    new_kept, new_values = identity_decisions(MetricSpace.finite(relabelled.tolist()),
                                              *mapped(raws, queries, lambda i: perm[i]))
    assert [k.tolist() for k in new_kept] == [[perm[i] for i in k.tolist()] for k in kept]
    assert new_values == values
