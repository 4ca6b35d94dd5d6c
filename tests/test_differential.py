"""Differential checks of the array point-set layer against the plain-Python
per-point reference in reference_pointwise.py, on 1-D, 2-D and finite-mode
sets, at the default row-block cap and at a cap that forces one row per
block. The prefix unions and nets read off one scan are checked against
unions and nets rebuilt from scratch (the nets also at three-row blocks),
the one-matrix graph metrics against the closed form taken one direction at
a time, the per-coordinate Euclidean kernel
against the last-axis reduction it replaced, the oracles against a brute
force over every pair of samples and against themselves with the two sets
swapped, the convergence series and the metric matrices
(the endograph and sendograph ones also from one pass per column) batched
over a whole sequence against the same distances taken one pair at a time,
the Hausdorff distances and the batched set diagnostics, level moduli and
discontinuity levels against reductions of one full kernel matrix per pair,
the lifted segment reduction, which adds each lift to minima per height
group, against the one that added it to every kernel cell, its column
minima against np.minimum.reduceat, the flat reduction over (source,
target) pairs against one segment pass per pair,
the generated members, built from one deduplicated support with their
memberships known, against cuts deduplicated level by level and memberships
measured, and their draws, read from bulk words of the bit generator,
against numpy's scalar draws on every integer branch and across whole
chunks of words, the memberships read from one near-pair search against every
cut at once against the scan from the lowest level up, the Hausdorff pass
that reduces squared distances in one reused workspace against the dense
reductions (a last chunk of one row, ties and near-copies at TOL, the
capped lifted rows, an asymmetric finite matrix), the blocked triangle
check of validate_metric against the check one row at a time, and the
level and Γ series, read through one (classes x members) cut-id table with
one tuple per class of grid levels that read the same cuts, and tb_end's
cut ids, read through one (grid x members) table, against the table read
one alpha at a time."""

import bisect
import math
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp

import reference_pointwise as ref
from fuzzymetrics import (
    TOL,
    FiniteSet,
    MetricSpace,
    Verdict,
    alpha_cut,
    cauchy_limit_construct,
    cauchy_tail_profile,
    closedness_witness,
    directed_hausdorff,
    endograph_convergence,
    endograph_metric,
    endograph_oracle,
    eps_net,
    erc_modulus,
    finite_set,
    fuzzy_family,
    gamma_diagnostic,
    hausdorff,
    kuratowski_tail_diagnostic,
    levelwise_profile,
    make_fuzzy,
    metric_matrix,
    p0_points,
    platform_points,
    same_representation,
    send_decomposition_check,
    sendograph_metric,
    sendograph_oracle,
    strict_cut_closure,
    support,
    union_family,
    validate_metric,
)
from fuzzymetrics import fuzzy as fuzzy_module
from fuzzymetrics import metrics as metrics_module
from fuzzymetrics import sets as sets_module
from fuzzymetrics import space as space_module
from fuzzymetrics.fuzzy import memberships
from fuzzymetrics.metrics import default_alpha_grid
from fuzzymetrics.generators import collapse_family, crisp_interval_family, random_family, random_fuzzy
from fuzzymetrics.sets import prefix_net_sizes
from fuzzymetrics.space import _near, dist_matrix, key_block
from helpers import CAPS, SP1, SP2, part_maxima, part_series


# 1-D: a 0.025 grid, so many pairs sit exactly eps apart, with near-duplicates
# 0.8e-9 (merged at TOL) and 1.6e-9 (kept) above each grid point
grid_1d = st.tuples(st.integers(0, 40), st.integers(0, 2)).map(lambda t: (0.025 * t[0] + 0.8e-9 * t[1],))
# 2-D: a dyadic grid, on which squared distances are exact
grid_2d = st.tuples(st.integers(0, 16), st.integers(0, 16)).map(lambda t: (t[0] / 8, t[1] / 8))


KINDS = ("1d", "2d", "finite")


@st.composite
def scenes(draw, kinds=KINDS):
    """A space, a strategy for its points and the radii to try."""
    kind = draw(st.sampled_from(kinds))
    if kind == "1d":
        return SP1, grid_1d, (0.025, 0.05, 0.1, 0.25)
    if kind == "2d":
        return SP2, grid_2d, (0.125, 0.25, 0.5, 1.0)
    cells = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=2, max_size=12, unique=True))
    matrix = [[(abs(xa - xb) + abs(ya - yb)) / 8 for xb, yb in cells] for xa, ya in cells]
    if kind == "asymmetric":
        # d(i, j) exceeds d(j, i) by up to 0.7e-9 for i < j, still a metric
        # within TOL, whose larger entry the kernel reads both ways
        matrix = [[x + 1e-10 * ((3 * i + j) % 8) * (i < j) for j, x in enumerate(row)] for i, row in enumerate(matrix)]
    if kind == "diagonal":
        # diagonal entries 0.5 TOL and TOL, which the space accepts: a set then
        # lies up to TOL from itself
        matrix = [[x + 0.5 * TOL * (1 + i % 2) * (i == j) for j, x in enumerate(row)] for i, row in enumerate(matrix)]
    return MetricSpace.finite(matrix), st.integers(0, len(cells) - 1), (0.125, 0.25, 0.5)


def point_lists(point, max_size=25):
    return st.lists(point, min_size=1, max_size=max_size)


@given(st.data())
@settings(max_examples=150)
def test_dedup_and_union_match_reference(data):
    space, point, _ = data.draw(scenes())
    raws = data.draw(st.lists(point_lists(point), min_size=1, max_size=3))
    expected = [ref.finite_set(space, r) for r in raws]
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            sets = [finite_set(space, r) for r in raws]
            assert [ref.points(s) for s in sets] == expected
            assert ref.points(union_family(sets)) == ref.union_family(space, expected)


def net_radii(space, points, radii):
    """The scene's radii and every positive kernel cell among the points, so
    that some pairs lie exactly eps apart."""
    d = dist_matrix(space, space.point_array(points), space.point_array(points))
    return st.sampled_from(sorted(set(radii) | set(d[d > 0].tolist())))


def net_caps(n):
    """CAPS, and a cap of three-row blocks for n points: each block is then
    measured against the centers kept before it and scanned within itself."""
    return CAPS + (8 * 3 * n,)


@given(st.data())
@settings(max_examples=150)
def test_eps_net_matches_reference(data):
    space, point, radii = data.draw(scenes(KINDS + ("asymmetric",)))
    raw = data.draw(point_lists(point))
    eps = data.draw(net_radii(space, raw, radii))
    pa = ref.finite_set(space, raw)
    expected = ref.eps_net(space, pa, eps)
    for cap in net_caps(len(pa)):
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert ref.points(eps_net(finite_set(space, raw), eps)) == expected


@pytest.mark.parametrize("order", (1, -1), ids=("ascending", "descending"))
def test_greedy_nets_of_a_chain_match_reference(order):
    # points 0.6 eps apart, each within eps of its neighbours only: every
    # block scan decides each survivor from the one before it, in pair order
    eps = 0.25
    chain = [0.15 * k for k in range(20)][::order]
    raws = [chain[k:k + 4] for k in range(0, len(chain), 3)]
    pieces = [ref.finite_set(SP1, r) for r in raws]
    expected = ref.eps_net(SP1, ref.finite_set(SP1, chain), eps)
    assert len(expected) == 10
    sizes = ref.prefix_net_sizes(SP1, pieces, eps)
    for cap in net_caps(len(chain)):
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert ref.points(eps_net(finite_set(SP1, chain), eps)) == expected
            assert prefix_net_sizes([finite_set(SP1, r) for r in raws], eps) == sizes


def test_greedy_nets_read_the_larger_entry_of_an_asymmetric_matrix():
    # d(1, 0) = 0.5 but d(0, 1) = 0.5 + 1e-10: the kernel reads 0.5 + 1e-10
    # both ways, so at eps 0.5 neither point covers the other, in either
    # order, across blocks (one row each at the smallest cap) and within
    # one block alike
    space = MetricSpace.finite([[0.0, 0.5 + 1e-10], [0.5, 0.0]])
    a, b = finite_set(space, [0]), finite_set(space, [1])
    assert hausdorff(a, b) == hausdorff(b, a) == 0.5 + 1e-10
    for cap in net_caps(2):
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert eps_net(finite_set(space, [0, 1]), 0.5).array.tolist() == [0, 1]
            assert eps_net(finite_set(space, [1, 0]), 0.5).array.tolist() == [1, 0]
            assert prefix_net_sizes([a, b], 0.5) == prefix_net_sizes([b, a], 0.5) == (1, 2)


@given(st.data())
@settings(max_examples=150)
def test_hausdorff_matches_reference(data):
    space, point, _ = data.draw(scenes())
    ra, rb = data.draw(point_lists(point)), data.draw(point_lists(point))
    pa, pb = ref.finite_set(space, ra), ref.finite_set(space, rb)
    ab, ba = ref.directed_hausdorff(space, pa, pb), ref.directed_hausdorff(space, pb, pa)
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            a, b = finite_set(space, ra), finite_set(space, rb)
            assert directed_hausdorff(a, b) == ab
            assert directed_hausdorff(b, a) == ba
            assert hausdorff(a, b) == max(ab, ba)


# arbitrary 2-D floats: math.dist and the kernel's sqrt of a sum of squares
# may round differently, each within about one ulp. Differences below about
# 1e-154 underflow when squared and read 0 (far below TOL), so coordinates
# are kept either 0 or above 1e-100 in magnitude.
coordinate = st.floats(-10.0, 10.0).filter(lambda x: x == 0 or abs(x) > 1e-100)
any_2d = st.tuples(coordinate, coordinate)


@given(point_lists(any_2d), point_lists(any_2d))
def test_hausdorff_on_arbitrary_2d_floats_within_ulps(ra, rb):
    pa, pb = ref.finite_set(SP2, ra), ref.finite_set(SP2, rb)
    a, b = finite_set(SP2, ra), finite_set(SP2, rb)
    assert math.isclose(directed_hausdorff(a, b), ref.directed_hausdorff(SP2, pa, pb), rel_tol=1e-15, abs_tol=1e-300)
    assert math.isclose(directed_hausdorff(b, a), ref.directed_hausdorff(SP2, pb, pa), rel_tol=1e-15, abs_tol=1e-300)


@given(st.data())
@settings(max_examples=150)
def test_membership_matches_reference(data):
    space, point, _ = data.draw(scenes())
    raw = data.draw(point_lists(point))
    queries = data.draw(point_lists(point, max_size=8))
    # prefixes of one list give nested cuts
    k1 = data.draw(st.integers(1, len(raw)))
    k2 = data.draw(st.integers(k1, len(raw)))
    raw_levels = [(1.0, raw[:k1]), (0.6, raw[:k2]), (0.3, raw)]
    ref_levels = [(a, ref.finite_set(space, r)) for a, r in raw_levels]
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            u = make_fuzzy([(a, finite_set(space, r)) for a, r in raw_levels])
            assert memberships(u, space.point_array(queries)).tolist() == [
                ref.membership(space, ref_levels, ref.as_point(space, q)) for q in queries]
            expected = [ref.membership(space, ref_levels, p) for p in ref_levels[-1][1]]
            assert u.support_memberships.tolist() == expected


def test_near_duplicate_chain_keeps_first_and_third():
    p = 0.3
    chain = [p, p + 0.8e-9, p + 1.6e-9]
    kept = finite_set(SP1, chain).array[:, 0].tolist()
    assert kept == [c[0] for c in ref.finite_set(SP1, chain)] == [chain[0], chain[2]]
    assert ref.points(union_family([finite_set(SP1, [c]) for c in chain])) == ref.finite_set(SP1, chain)


def test_points_exactly_eps_apart_on_a_grid():
    pts = [0.025 * k for k in range(41)]
    for eps in (0.025, 0.05, 0.075):
        assert ref.points(eps_net(finite_set(SP1, pts), eps)) == ref.eps_net(SP1, ref.finite_set(SP1, pts), eps)


def test_sets_larger_than_one_row_block():
    # 1000 one-dimensional points span more than one row block at the
    # default cap, for the greedy scans and for the Hausdorff kernel alike
    n = 1000
    assert SP1.block_rows(n) < n
    xs = [0.0025 * ((k * 7919) % 700) for k in range(n)]  # 700 distinct values, repeats far apart
    ys = [0.003 * ((k * 104729) % 800) for k in range(n)]
    a, b = finite_set(SP1, xs), finite_set(SP1, ys)
    pa, pb = ref.finite_set(SP1, xs), ref.finite_set(SP1, ys)
    assert ref.points(a) == pa and ref.points(b) == pb
    assert len(a) == 700
    assert ref.points(eps_net(a, 0.01)) == ref.eps_net(SP1, pa, 0.01)
    assert ref.points(union_family([a, b])) == ref.union_family(SP1, [pa, pb])
    assert directed_hausdorff(a, b) == ref.directed_hausdorff(SP1, pa, pb)
    assert directed_hausdorff(b, a) == ref.directed_hausdorff(SP1, pb, pa)


def test_contains_at_tolerance():
    s = make_fuzzy([(1.0, finite_set(SP1, [0.0, 1.0]))])
    assert memberships(s, SP1.point_array([1.0 + TOL / 2, 1.0 + 2 * TOL])).tolist() == [1.0, 0.0]


def test_a_query_near_only_the_lower_copy_reads_the_lower_level():
    # the 0.5 cut holds 0.8e-9, a near-copy of the 1.0 cut's 0.0: 1.6e-9 is
    # within TOL of the copy and 1.6e-9 from 0.0, 0.4e-9 within TOL of both,
    # 0.5 near no cut point and -TOL only within TOL of 0.0
    u = make_fuzzy([(1.0, finite_set(SP1, [0.0])), (0.5, finite_set(SP1, [0.8e-9, 2.0]))])
    queries = [1.6e-9, 0.4e-9, 0.5, 2.0 + TOL / 2, -TOL]
    levels = [(a, ref.points(cut)) for a, cut in u.levels]
    want = [ref.membership(SP1, levels, (q,)) for q in queries]
    assert want == [0.5, 1.0, 0.0, 0.5, 1.0]
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert memberships(u, SP1.point_array(queries)).tolist() == want


def test_a_finite_index_repeated_across_levels_reads_its_top_level():
    # index 2 sits in all three cuts and index 0 in the lower two; 3 is in none.
    # The search reads each of the three distinct indices once, not all six.
    space = MetricSpace.finite([[abs(i - j) / 4 for j in range(4)] for i in range(4)])
    u = make_fuzzy([(1.0, finite_set(space, [2])), (0.6, finite_set(space, [2, 0])),
                    (0.3, finite_set(space, [0, 1, 2]))])
    calls = []

    def counting(space, a, b, radius):
        calls.append(sorted(b.tolist()))
        return _near(space, a, b, radius)

    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap), mock.patch.object(fuzzy_module, "_near", counting):
            assert memberships(u, space.point_array([0, 1, 2, 3, 2])).tolist() == [0.6, 0.3, 1.0, 0.0, 1.0]
            assert u.support_memberships.tolist() == [0.6, 0.3, 1.0]
    assert calls and all(b == [0, 1, 2] for b in calls)


def test_memberships_take_one_near_pair_search():
    calls = []

    def counting(space, a, b, radius):
        calls.append((len(a), len(b)))
        return _near(space, a, b, radius)

    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    u = make_fuzzy([(a, finite_set(SP2, corners[:k])) for a, k in ((1.0, 1), (0.6, 2), (0.3, 3), (0.1, 4))])
    with mock.patch.object(fuzzy_module, "_near", counting):
        got = memberships(u, SP2.point_array([(1, 1), (0, 1), (5, 5), (1, 0), (0, 0)]))
    assert got.tolist() == [0.1, 0.3, 0.0, 0.6, 1.0]
    assert calls == [(5, 10)]


@given(st.data())
@settings(max_examples=150)
def test_prefix_net_sizes_match_from_scratch_nets(data):
    space, point, radii = data.draw(scenes(KINDS + ("asymmetric",)))
    raws = data.draw(st.lists(point_lists(point, max_size=12), min_size=1, max_size=6))
    eps = data.draw(net_radii(space, [p for r in raws for p in r], radii))
    pieces = [ref.finite_set(space, r) for r in raws]
    expected = ref.prefix_net_sizes(space, pieces, eps)
    for cap in net_caps(len(ref.union_family(space, pieces))):
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            cuts = [finite_set(space, r) for r in raws]
            assert prefix_net_sizes(cuts, eps) == expected
            assert expected == tuple(len(eps_net(union_family(cuts[:k + 1]), eps)) for k in range(len(cuts)))


@given(st.data())
@settings(max_examples=100)
def test_cauchy_partial_unions_match_reference(data):
    space, point, _ = data.draw(scenes())
    raws = data.draw(st.lists(point_lists(point, max_size=12), min_size=1, max_size=6))
    expected = [ref.finite_set(space, r) for r in raws]
    unions = [ref.union_family(space, expected[:k + 1]) for k in range(len(raws))]
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            partial, limit, residuals = cauchy_limit_construct([finite_set(space, r) for r in raws])
            assert [ref.points(p) for p in partial] == unions
            assert ref.points(limit) == unions[-1]
            assert residuals == [
                max(ref.directed_hausdorff(space, p, unions[-1]), ref.directed_hausdorff(space, unions[-1], p))
                for p in unions
            ]


def nested_levels(raw, k1, k2):
    """Three levels whose cuts are growing prefixes of one point list."""
    return [(1.0, raw[:k1]), (0.6, raw[:k2]), (0.3, raw)]


def tiered_levels(raw, tiers):
    """Three levels whose k-th cut holds the points of tier at most k in list
    order, so a point of a higher cut may follow points only lower cuts hold
    and the support is not in level order."""
    return [(a, [p for p, t in zip(raw, tiers) if t <= k]) for k, a in enumerate((1.0, 0.6, 0.3))]


@st.composite
def fuzzy_sequences(draw, min_size=2, max_size=2, kinds=KINDS):
    """A space and a list of (raw levels, reference levels) of nested sets,
    each with cuts that are prefixes of its points or drawn by tier."""
    space, point, _ = draw(scenes(kinds))
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        raw = draw(point_lists(point, max_size=10))
        if draw(st.booleans()):
            tiers = draw(st.lists(st.integers(0, 2), min_size=len(raw), max_size=len(raw)))
            tiers[draw(st.integers(0, len(raw) - 1))] = 0  # the 1.0 cut is nonempty
            raw_levels = tiered_levels(raw, tiers)
        else:
            k1 = draw(st.integers(1, len(raw)))
            k2 = draw(st.integers(k1, len(raw)))
            raw_levels = nested_levels(raw, k1, k2)
        out.append((raw_levels, [(a, ref.finite_set(space, r)) for a, r in raw_levels]))
    return space, out


def build(space, raw_levels):
    return make_fuzzy([(a, finite_set(space, r)) for a, r in raw_levels])


@given(fuzzy_sequences())
@settings(max_examples=150)
def test_one_matrix_graph_metrics_match_two_direction_form(scene):
    space, [(raw_u, lu), (raw_v, lv)] = scene
    end = ref.graph_distance(space, lu, lv, truncate=True)
    send = ref.graph_distance(space, lu, lv, truncate=False)
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            u, v = build(space, raw_u), build(space, raw_v)
            assert endograph_metric(u, v) == endograph_metric(v, u) == end
            assert sendograph_metric(u, v) == sendograph_metric(v, u) == send
            cert = send_decomposition_check([u, v, u], v, window=1)
            assert cert.evidence["end"] == (end, 0.0, end)
            assert cert.evidence["send"] == (send, 0.0, send)


@given(fuzzy_sequences(min_size=3, max_size=6), st.sampled_from(["end", "send"]))
@settings(max_examples=60)
def test_cauchy_tail_matrix_matches_pairwise_distances(scene, metric):
    space, members = scene
    refs = [lv for _, lv in members]
    n = len(refs)

    def d(i, j):
        return ref.graph_distance(space, refs[i], refs[j], truncate=metric == "end")

    seq = [build(space, raw) for raw, _ in members]
    cert = cauchy_tail_profile(seq, metric, window=2)
    assert cert.evidence["residual"] == tuple(max((d(i, j) for j in range(i + 1, n)), default=0.0) for i in range(n))
    assert cert.evidence["tail_proximity"] == (max(d(n - 1, j) for j in range(n - 2, n)),)


def test_prefix_nets_of_cuts_larger_than_one_row_block():
    # cuts of 700 and 800 one-dimensional points span several row blocks at
    # the default cap, in the dedup against the union and in the net scan
    xs = [0.0025 * ((k * 7919) % 700) for k in range(1000)]
    ys = [0.003 * ((k * 104729) % 800) for k in range(1000)]
    zs = [0.5 + 0.0025 * k for k in range(600)]
    cuts = [finite_set(SP1, c) for c in (xs, ys, zs)]
    assert SP1.block_rows(len(cuts[0])) < len(cuts[0])
    for eps in (TOL, 0.0025, 0.01):
        expected = tuple(len(eps_net(union_family(cuts[:k + 1]), eps)) for k in range(len(cuts)))
        assert prefix_net_sizes(cuts, eps) == expected
    partial, _, _ = cauchy_limit_construct(cuts)
    assert [p.array.tolist() for p in partial] == [union_family(cuts[:k + 1]).array.tolist() for k in range(len(cuts))]


@pytest.mark.parametrize("dim", range(1, 10))
def test_kernel_matches_last_axis_reduction(dim):
    # the kernel adds squared coordinates left to right, as numpy's sum does
    # over an axis shorter than 8, so it is bit-identical there; numpy sums
    # longer axes pairwise. Swapping its arguments transposes it bit for bit,
    # in Euclidean mode and on a finite matrix that is asymmetric within TOL
    space = MetricSpace.euclidean(dim)
    rng = np.random.default_rng(dim)
    sizes = [tuple(rng.integers(1, 40, size=2)) for _ in range(12)] + [(1, 1), (300, 700)]
    assert space.block_rows(700) < 300  # the last size spans the reference's row blocks at the default cap
    for n, m in sizes:
        a = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3)
        b = rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-3, 3)
        shared = min(n, m) // 3
        b[:shared] = a[:shared]  # pairs at distance exactly 0
        for cap in CAPS:
            with mock.patch.object(space_module, "BLOCK_BYTES", cap):
                got = dist_matrix(space, a, b)
                want = ref.dist_matrix_reduction(space, a, b)
                assert got.tobytes() == dist_matrix(space, b, a).T.tobytes()
                i, j = np.arange(n) % 4, np.arange(m)[::-1] % 4
                assert dist_matrix(ASYMMETRIC_CYCLE, i, j).tobytes() == dist_matrix(ASYMMETRIC_CYCLE, j, i).T.tobytes()
            if dim <= 7:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), resolution=st.sampled_from((0.1, 0.05, 0.025, 0.01, 0.007)))
@settings(max_examples=60)
def test_oracles_match_a_brute_force_over_all_sample_pairs(kind, data, resolution):
    space, [(raw_u, _), (raw_v, _)] = data.draw(fuzzy_sequences(kinds=(kind,)))
    u, v = build(space, raw_u), build(space, raw_v)
    pairs = [(oracle, x, y) for oracle in (endograph_oracle, sendograph_oracle) for x, y in ((u, v), (v, u))]
    want = [ref.sampled_graph_distance(x, y, resolution, oracle is endograph_oracle) for oracle, x, y in pairs]
    # at the cap of 8 bytes each source row is a chunk of its own
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert [oracle(x, y, resolution) for oracle, x, y in pairs] == want


@given(data=st.data(), resolution=st.sampled_from((0.1, 0.05, 0.025, 0.01, 0.007)))
@settings(max_examples=150)
def test_oracles_are_symmetric_bit_for_bit(data, resolution):
    space, [(raw_u, _), (raw_v, _)] = data.draw(fuzzy_sequences(kinds=SERIES_KINDS))
    u, v = build(space, raw_u), build(space, raw_v)
    for oracle in (endograph_oracle, sendograph_oracle):
        assert oracle(u, v, resolution) == oracle(v, u, resolution)


def test_the_endograph_oracle_samples_both_supports_as_given():
    # 8e-10 lies within TOL of 0.0: a base that kept only the first of the
    # two read 0.025 from {0.0} to {8e-10, 0.025} and 0.0249999992 back
    u, v = (make_fuzzy([(1.0, finite_set(SP1, pts))]) for pts in ([0.0], [8e-10, 0.025]))
    assert endograph_oracle(u, v, 0.1) == endograph_oracle(v, u, 0.1) == 0.025 - 8e-10
    assert sendograph_oracle(u, v, 0.1) == sendograph_oracle(v, u, 0.1)


# Stored levels of the shared-cut sequences, and grid alphas both exactly at
# each of them (where alpha_cut's >= and strict_cut_closure's > part ways)
# and in the gaps between them.
LEVELS = (0.8, 0.6, 0.45, 0.3, 0.1)
GRID = LEVELS + (0.05, 0.2, 0.5, 0.7, 0.9, 0.99)
SERIES_CAPS = CAPS + (64,)  # 64 bytes: a few one- or two-point cuts per chunk
SERIES_KINDS = KINDS + ("asymmetric",)


@st.composite
def shared_cut_sequences(draw, kinds=SERIES_KINDS):
    """A space, a sequence and a limit whose cuts all come from one chain of
    nested cut objects, so members share cuts as collapse_family's do; the
    sequence may repeat a member object."""
    space, point, _ = draw(scenes(kinds))
    raw = draw(point_lists(point, max_size=12))
    sizes = sorted(set(draw(st.lists(st.integers(1, len(raw)), min_size=1, max_size=4))))
    chain = [finite_set(space, raw[:k]) for k in sizes]

    def fuzzy():
        lo = draw(st.integers(0, len(chain) - 1))
        cuts = chain[lo:draw(st.integers(lo + 1, len(chain)))]
        below = draw(st.lists(st.sampled_from(LEVELS), min_size=len(cuts) - 1, max_size=len(cuts) - 1, unique=True))
        return make_fuzzy(list(zip([1.0] + sorted(below, reverse=True), cuts)))

    pool = [fuzzy() for _ in range(draw(st.integers(1, 4)))]
    seq = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    alphas = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=6, unique=True))
    return space, seq, fuzzy(), alphas


def ref_levels(u):
    return [(a, ref.points(cut)) for a, cut in u.levels]


@given(shared_cut_sequences())
@settings(max_examples=200)
def test_batched_level_and_gamma_series_match_per_pair_distances(scene):
    space, seq, limit, alphas = scene
    levels = [tuple(hausdorff(alpha_cut(u, a), alpha_cut(limit, a)) for u in seq) for a in alphas]
    deficits = [tuple(directed_hausdorff(strict_cut_closure(limit, a), alpha_cut(u, a)) for u in seq) for a in alphas]
    excesses = [tuple(directed_hausdorff(alpha_cut(u, a), alpha_cut(limit, a)) for u in seq) for a in alphas]
    window = len(seq)
    for cap in SERIES_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            profile = levelwise_profile(seq, limit, alphas, window=window)
            diag = gamma_diagnostic(seq, limit, alphas, window=window)
        assert part_series(profile) == tuple(levels)
        assert part_maxima(profile) == tuple(map(max, levels))
        assert part_series(diag) == tuple(deficits)
        assert part_series(diag, 1) == tuple(excesses)
        assert part_maxima(diag) == tuple(map(max, deficits))
        assert part_maxima(diag, 1) == tuple(map(max, excesses))


@given(shared_cut_sequences())
@settings(max_examples=150)
def test_batched_graph_series_match_the_closed_form_per_pair(scene):
    space, seq, limit, _ = scene
    end = tuple(ref.graph_distance(space, ref_levels(u), ref_levels(limit), True) for u in seq)
    send = tuple(ref.graph_distance(space, ref_levels(u), ref_levels(limit), False) for u in seq)
    cut0 = tuple(hausdorff(support(u), support(limit)) for u in seq)
    for cap in SERIES_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert endograph_convergence(seq, limit, window=1).evidence["end"] == end
            assert tuple(endograph_metric(u, limit) for u in seq) == end
            assert tuple(sendograph_metric(u, limit) for u in seq) == send
            cert = send_decomposition_check(seq, limit, window=1)
        assert (cert.evidence["end"], cert.evidence["send"], cert.evidence["cut0"]) == (end, send, cut0)


@given(shared_cut_sequences())
@settings(max_examples=150)
def test_closedness_distances_match_the_one_pair_metrics(scene):
    space, seq, candidate, _ = scene
    family = fuzzy_family(seq)
    for metric, one_pair in (("end", endograph_metric), ("send", sendograph_metric)):
        distances = tuple(one_pair(candidate, u) for u in seq)
        for cap in SERIES_CAPS:
            with mock.patch.object(space_module, "BLOCK_BYTES", cap):
                cert = closedness_witness(family, candidate, metric, tol=1e-3)
            assert cert.evidence["distance"] == distances
            assert cert.evidence["min_distance"] == (min(distances),)


def test_closedness_distances_read_the_larger_entry_of_an_asymmetric_matrix():
    # d(0, 1) exceeds d(1, 0) by 5e-10: the distance between the crisp
    # points reads d(0, 1) whichever of them is the candidate
    space = MetricSpace.finite([[0.0, 1.0 + 5e-10, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    u, v = (make_fuzzy([(1.0, finite_set(space, [k]))]) for k in range(2))
    assert closedness_witness(fuzzy_family([v, u]), u, "send", 1e-3).evidence["distance"] == (1.0 + 5e-10, 0.0)
    assert closedness_witness(fuzzy_family([u, v]), v, "send", 1e-3).evidence["distance"] == (1.0 + 5e-10, 0.0)


def recording_key_blocks(shapes):
    """space.key_block that appends the (chunk rows, target size) shape of
    each key block to `shapes`: one kernel call per row chunk."""
    def recording(space, a, work):
        keys = key_block(space, a, work)
        shapes.append(keys.shape)
        return keys

    return recording


def test_batched_kernel_calls_stay_within_one_row_chunk():
    # 300 members of one to three points and one member of 100 points against
    # a limit with cuts of 500 and 2000 points: a row chunk against the
    # support holds block_rows(2000) = 65 rows, so the big member spans two
    # chunks there, and no call measures more rows than its target allows
    xs = [0.001 * k for k in range(2000)]
    limit = make_fuzzy([(1.0, finite_set(SP1, xs[:500])), (0.5, finite_set(SP1, xs))])
    rng = np.random.default_rng(0)
    seq = []
    for k in range(300):
        pts = rng.uniform(0.0, 2.5, size=1 + k % 3).tolist()
        seq.append(make_fuzzy([(1.0, finite_set(SP1, pts[:1])), (0.4, finite_set(SP1, pts))]))
    big = rng.uniform(0.0, 2.5, size=100).tolist()
    seq.insert(150, make_fuzzy([(1.0, finite_set(SP1, big))]))
    assert SP1.block_rows(2000) == 65
    shapes = []
    recording = recording_key_blocks(shapes)
    alphas = (0.3, 0.45, 0.5, 0.7)
    with mock.patch.object(sets_module, "key_block", recording):
        profile = levelwise_profile(seq, limit, alphas, window=5)
        diag = gamma_diagnostic(seq, limit, alphas, window=5)
        cert = send_decomposition_check(seq, limit, window=5)
    # (chunk rows, target size) of each call; the targets are the limit cuts
    assert {m for _, m in shapes} == {500, 2000}
    assert all(n <= SP1.block_rows(m) for n, m in shapes)
    for i, a in enumerate(alphas):
        assert part_series(profile)[i] == tuple(hausdorff(alpha_cut(u, a), alpha_cut(limit, a)) for u in seq)
        assert part_series(diag)[i] == tuple(
            directed_hausdorff(strict_cut_closure(limit, a), alpha_cut(u, a)) for u in seq)
        assert part_series(diag, 1)[i] == tuple(directed_hausdorff(alpha_cut(u, a), alpha_cut(limit, a)) for u in seq)
    assert cert.evidence["end"] == tuple(endograph_metric(u, limit) for u in seq)
    assert cert.evidence["cut0"] == tuple(hausdorff(support(u), support(limit)) for u in seq)


def test_gamma_and_kuratowski_series_take_one_kernel_pass():
    # the strict and the full limit cuts coincide at every grid alpha, so
    # the deficits and the excesses read one pass per limit cut, as the level
    # distances do; the Kuratowski series read one pass over the prefix,
    # one call per row chunk of block_rows(2000) = 65 rows, a member split
    # between two chunks where a chunk edge falls inside it
    xs = [0.001 * k for k in range(2000)]
    limit = make_fuzzy([(1.0, finite_set(SP1, xs[:500])), (0.5, finite_set(SP1, xs))])
    rng = np.random.default_rng(1)
    seq = []
    for k in range(200):
        pts = rng.uniform(0.0, 2.5, size=1 + k % 3).tolist()
        seq.append(make_fuzzy([(1.0, finite_set(SP1, pts[:1])), (0.4, finite_set(SP1, pts))]))
    alphas = (0.3, 0.45, 0.7)
    assert all(strict_cut_closure(limit, a) is alpha_cut(limit, a) for a in alphas)
    prefix, target = [support(u) for u in seq], support(limit)
    chunks = math.ceil(sum(map(len, prefix)) / SP1.block_rows(len(target)))
    counts = []
    for call in (lambda: levelwise_profile(seq, limit, alphas, window=5),
                 lambda: gamma_diagnostic(seq, limit, alphas, window=5),
                 lambda: kuratowski_tail_diagnostic(prefix, target, window=5)):
        shapes = []
        with mock.patch.object(sets_module, "key_block", recording_key_blocks(shapes)):
            call()
        counts.append(len(shapes))
    assert counts[0] == counts[1] > 2
    assert counts[2] == chunks > 1


@st.composite
def lifted_scenes(draw):
    """A space, blocks of (raw points, height per point) and a target of the
    same shape. Heights come from three levels in any order, so a block's
    points are not in level order, blocks share heights and the target's
    levels interleave. Points may repeat with different heights."""
    space, point, _ = draw(scenes(SERIES_KINDS))

    def lifted(max_size):
        raw = draw(point_lists(point, max_size))
        return raw, draw(st.lists(st.sampled_from((1.0, 0.6, 0.3)), min_size=len(raw), max_size=len(raw)))

    return space, [lifted(8) for _ in range(draw(st.integers(1, 6)))], lifted(12)


ASYMMETRIC_CYCLE = MetricSpace.finite(
    [[x + 5e-10 * (i < j) for j, x in enumerate(row)]
     for i, row in enumerate([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])])


@given(lifted_scenes())
# a cut-1.0 point after points only the 0.3 cut holds, equal heights in both
# blocks and a target whose levels interleave, in 1-D and on a finite matrix
# that is asymmetric within TOL
@example((SP1, [([0.0, 0.5, 1.0], [0.3, 0.3, 1.0]), ([0.25, 1.5], [0.3, 1.0])],
          ([0.1, 0.9, 0.4, 1.2, 0.6], [1.0, 0.3, 1.0, 0.6, 0.3])))
@example((ASYMMETRIC_CYCLE, [([2, 0, 1], [0.6, 0.6, 1.0]), ([3, 1], [0.6, 0.3])],
          ([1, 3, 0, 2], [0.3, 1.0, 0.3, 1.0])))
@settings(max_examples=200)
def test_grouped_lifted_reduction_matches_the_dense_one_bit_for_bit(scene):
    space, lifted_blocks, (raw_target, target_heights) = scene
    blocks = [space.point_array(raw) for raw, _ in lifted_blocks]
    lifts = ([np.array(h) for _, h in lifted_blocks], np.array(target_heights))
    target = space.point_array(raw_target)
    for cap in SERIES_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            got = sets_module._segment_extrema(space, blocks, target, lifts)
            assert got.tobytes() == ref.dense_segment_extrema(space, blocks, target, lifts).tobytes()


# Points on a line (0-based indices), taken as 1-D points, as 2-D points off
# the axis and as indices of their L1 distance matrix: blocks of 1, 5 and 1
# points against a 4-point target, each point with a height. At two rows
# per chunk the 5-point block spans rows 1..5, and its (block, height) run
# of height 0.6, rows 2..4 once sorted, splits at the edge between rows 3
# and 4.
SPLIT_LINE = (0.0, 0.5, 1.25, 2.0, 3.5, 4.0, 0.75, 2.75, 5.0, 1.0)
SPLIT_BLOCKS = ([9], [1, 2, 3, 4, 5], [6])
SPLIT_HEIGHTS = ([0.6], [1.0, 0.6, 0.3, 0.6, 0.6], [0.3])
SPLIT_TARGET, SPLIT_TARGET_HEIGHTS = [0, 7, 8, 3], [1.0, 0.3, 0.6, 0.3]
SPLIT_SCENES = {
    "1d": (SP1, [(x,) for x in SPLIT_LINE]),
    "2d": (SP2, [(x, (3 * x) % 1.75) for x in SPLIT_LINE]),
    "finite": (MetricSpace.finite([[abs(x - y) for y in SPLIT_LINE] for x in SPLIT_LINE]), list(range(10))),
}


@pytest.mark.parametrize("kind", KINDS)
def test_blocks_split_at_two_row_chunk_edges_match_the_dense_reductions(kind):
    space, points = SPLIT_SCENES[kind]
    blocks = [space.point_array([points[i] for i in b]) for b in SPLIT_BLOCKS]
    target = space.point_array([points[i] for i in SPLIT_TARGET])
    lifts = ([np.array(h) for h in SPLIT_HEIGHTS], np.array(SPLIT_TARGET_HEIGHTS))
    sets, t = [FiniteSet(space, b) for b in blocks], FiniteSet(space, target)
    with mock.patch.object(space_module, "BLOCK_BYTES", 8 * 2 * len(target)):
        assert space.block_rows(len(target)) == 2
        lifted = sets_module._segment_extrema(space, blocks, target, lifts)
        plain = sets_module._segment_extrema(space, blocks, target)
        one_pair = [(directed_hausdorff(b, t), directed_hausdorff(t, b), hausdorff(b, t)) for b in sets]
    assert lifted.tobytes() == ref.dense_segment_extrema(space, blocks, target, lifts).tobytes()
    dense = [(ref.dense_directed_hausdorff(b, t), ref.dense_directed_hausdorff(t, b), ref.dense_hausdorff(b, t))
             for b in sets]
    assert one_pair == dense
    assert [tuple(col) + (max(col),) for col in plain.T.tolist()] == dense


# Points on a line: a two-point target (0 and 1), a block of six rows near
# the target's first point and a one-row block far from both. At three rows
# per chunk the pass takes chunks of 3, 3 and 1 rows, so the last chunk
# fills one row of a three-row workspace: a reduction that read the other
# two, left from the chunk before, would find the second block 0.0015 from
# the target's first point, not 10.5.
STALE_LINE = (0.0, 1.0, 0.0005, 0.001, 0.0015, 0.002, 0.0025, 0.003, 10.5)
STALE_BLOCKS, STALE_TARGET = ([2, 3, 4, 5, 6, 7], [8]), [0, 1]
STALE_HEIGHTS, STALE_TARGET_HEIGHTS = ([1.0, 0.6, 0.3, 1.0, 0.6, 0.3], [0.3]), [1.0, 0.6]
STALE_SCENES = {
    "1d": (SP1, [(x,) for x in STALE_LINE]),
    "2d": (SP2, [(x, 0.25 * x) for x in STALE_LINE]),
    "finite": (MetricSpace.finite([[abs(x - y) for y in STALE_LINE] for x in STALE_LINE]), list(range(9))),
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_last_chunk_of_one_row_reads_no_stale_workspace_cell(kind):
    space, points = STALE_SCENES[kind]
    blocks = [space.point_array([points[i] for i in b]) for b in STALE_BLOCKS]
    target = space.point_array([points[i] for i in STALE_TARGET])
    lifts = ([np.array(h) for h in STALE_HEIGHTS], np.array(STALE_TARGET_HEIGHTS))
    sets, t = [FiniteSet(space, b) for b in blocks], FiniteSet(space, target)
    with mock.patch.object(space_module, "BLOCK_BYTES", 8 * 3 * len(target)):
        assert space.block_rows(len(target)) == 3
        plain = sets_module._segment_extrema(space, blocks, target)
        lifted = sets_module._segment_extrema(space, blocks, target, lifts)
    dense = [(ref.dense_directed_hausdorff(b, t), ref.dense_directed_hausdorff(t, b)) for b in sets]
    assert plain.T.tolist() == [list(pair) for pair in dense]
    assert plain[1, 1] == dist_matrix(space, target[:1], blocks[1])[0, 0]
    assert lifted.tobytes() == ref.dense_segment_extrema(space, blocks, target, lifts).tobytes()


def test_every_chunk_of_a_pass_writes_into_one_workspace():
    # 100 rows against 40 target points at 8 rows per chunk: 13 chunks, the
    # last of 4 rows, each a prefix of the same buffer
    rng = np.random.default_rng(5)
    rows, target = rng.uniform(size=(100, 2)), rng.uniform(size=(40, 2))
    chunks = []

    def recording(space, a, work):
        keys = key_block(space, a, work)
        chunks.append((keys.shape, keys.__array_interface__["data"][0], work[1]))
        return keys

    with mock.patch.object(space_module, "BLOCK_BYTES", 8 * 8 * 40), \
            mock.patch.object(sets_module, "key_block", recording):
        got = sets_module._segment_extrema(SP2, [rows[:30], rows[30:]], target)
    assert [shape for shape, _, _ in chunks] == [(8, 40)] * 12 + [(4, 40)]
    buffer = chunks[0][2]
    assert buffer.shape == (8, 40)
    assert all(work is buffer and address == buffer.__array_interface__["data"][0] for _, address, work in chunks)
    dense = [(ref.dense_directed_hausdorff(FiniteSet(SP2, b), FiniteSet(SP2, target)),
              ref.dense_directed_hausdorff(FiniteSet(SP2, target), FiniteSet(SP2, b))) for b in (rows[:30], rows[30:])]
    assert got.T.tolist() == [list(pair) for pair in dense]


@pytest.mark.parametrize("kind", ("1d", "2d"))
def test_ties_and_near_copies_at_tol_match_the_dense_reductions(kind):
    # pairs exactly 0.5 and 2**-k apart, and copies 0.5, 0.8, 1.0, 1.2 and
    # 2 times TOL off a grid point, on either side of the identity threshold
    base = [0.0, 0.5, 1.0, 0.25, 0.75]
    offsets = [0.5 * TOL, 0.8 * TOL, TOL, 1.2 * TOL, 2 * TOL]
    xs = base + [0.5 + d for d in offsets] + [1.0 - d for d in offsets]
    if kind == "1d":
        space, pts = SP1, [(x,) for x in xs]
    else:
        space, pts = SP2, [(x, 0.5 - x) for x in xs]
    a, b = space.point_array(pts[::2]), space.point_array(pts[1::2])
    heights = (np.resize([1.0, 0.6, 0.3], len(a)), np.resize([0.3, 1.0], len(b)))
    for cap in SERIES_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            for x, y, (hx, hy) in ((a, b, heights), (b, a, heights[::-1])):
                sx, sy = FiniteSet(space, x), FiniteSet(space, y)
                plain = sets_module._segment_extrema(space, [x, x[:3], x[-1:]], y)
                want = [[ref.dense_directed_hausdorff(FiniteSet(space, p), sy),
                         ref.dense_directed_hausdorff(sy, FiniteSet(space, p))] for p in (x, x[:3], x[-1:])]
                assert plain.T.tolist() == want
                assert hausdorff(sx, sy) == ref.dense_hausdorff(sx, sy)
                lifts = ([hx, hx[:3], hx[-1:]], hy)
                assert (sets_module._segment_extrema(space, [x, x[:3], x[-1:]], y, lifts).tobytes()
                        == ref.dense_segment_extrema(space, [x, x[:3], x[-1:]], y, lifts).tobytes())


@pytest.mark.parametrize("cap", SERIES_CAPS)
def test_lifted_rows_two_and_three_match_the_dense_ones(cap):
    # heights up to 1.0 against distances near 0.1 to 2: the caps at the
    # source heights bind on some blocks and not on others, so rows 2 and 3
    # differ from rows 0 and 1
    rng = np.random.default_rng(11)
    blocks = [rng.uniform(size=(k, 2)) * 2.0 for k in (1, 7, 30, 2)]
    target = rng.uniform(size=(25, 2)) * 2.0
    lifts = ([rng.choice([1.0, 0.6, 0.05], size=len(b)) for b in blocks], rng.choice([1.0, 0.3, 0.05], size=25))
    with mock.patch.object(space_module, "BLOCK_BYTES", cap):
        got = sets_module._segment_extrema(SP2, blocks, target, lifts)
    want = ref.dense_segment_extrema(SP2, blocks, target, lifts)
    assert got.tobytes() == want.tobytes()
    assert (got[2:] != got[:2]).any() and (got[2:] == got[:2]).any()


@given(st.data())
@settings(max_examples=100)
def test_passes_on_an_asymmetric_finite_matrix_match_the_dense_ones(data):
    # the pass reads the larger of d(i, j) and d(j, i) in both directions,
    # so swapping source and target swaps rows 0 and 1 bit for bit
    space, point, _ = data.draw(scenes(("asymmetric",)))
    blocks = [space.point_array(data.draw(point_lists(point, 6))) for _ in range(data.draw(st.integers(1, 4)))]
    target = space.point_array(data.draw(point_lists(point, 8)))
    heights = st.sampled_from((1.0, 0.6, 0.3))
    lifts = ([np.array(data.draw(st.lists(heights, min_size=len(b), max_size=len(b)))) for b in blocks],
             np.array(data.draw(st.lists(heights, min_size=len(target), max_size=len(target)))))
    for cap in SERIES_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            plain = sets_module._segment_extrema(space, blocks, target)
            lifted = sets_module._segment_extrema(space, blocks, target, lifts)
            swapped = [sets_module._segment_extrema(space, [target], b)[::-1, 0] for b in blocks]
        t = FiniteSet(space, target)
        want = [[ref.dense_directed_hausdorff(s, t), ref.dense_directed_hausdorff(t, s)]
                for s in (FiniteSet(space, b) for b in blocks)]
        assert plain.T.tolist() == want
        assert [list(s) for s in swapped] == want
        assert lifted.tobytes() == ref.dense_segment_extrema(space, blocks, target, lifts).tobytes()


# Coordinates on a 1/8 grid, on which squared distances are exact and tie,
# with copies 0.5, 1 and 2 times TOL off a grid point
tol_coordinate = st.tuples(st.integers(0, 8), st.sampled_from((0.0, 0.5 * TOL, TOL, 2 * TOL))).map(
    lambda t: t[0] / 8 + t[1])
# and a cap of a few cells per chunk, which splits rows at chunk edges
PAIR_CAPS = SERIES_CAPS + (8 * 8 * 3,)


@st.composite
def pair_scenes(draw):
    """A space and (source, target) pairs of point arrays, one-point arrays
    among them, where some pairs share one target object."""
    kind = draw(st.sampled_from(("1d", "2d", "3d", "finite", "asymmetric")))
    if kind in ("finite", "asymmetric"):
        space, point, _ = draw(scenes((kind,)))
    else:
        space = MetricSpace.euclidean(int(kind[0]))
        point = st.tuples(*[tol_coordinate] * space.dim)
    arrays = st.lists(point, min_size=1, max_size=6).map(space.point_array)
    targets = draw(st.lists(arrays, min_size=1, max_size=3))
    pairs = draw(st.lists(st.tuples(arrays, st.sampled_from(targets)), max_size=6))
    return space, [s for s, _ in pairs], [t for _, t in pairs]


@given(pair_scenes())
# no pair at all, as for a family whose members all have one level
@example((SP1, [], []))
@settings(max_examples=200)
def test_pair_extrema_match_one_segment_pass_per_pair_bit_for_bit(scene):
    space, sources, targets = scene
    want = np.empty((2, len(sources)))
    for k, (s, t) in enumerate(zip(sources, targets)):
        want[:, k] = sets_module._segment_extrema(space, [s], t)[:, 0]
    for cap in PAIR_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert sets_module._pair_extrema(space, sources, targets).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ("1d", "2d", "3d", "finite"))
def test_pair_extrema_of_rows_longer_than_a_chunk_match_the_dense_passes(kind):
    # at the default cap a chunk holds some 10^4 cells, which rows of 300
    # and 400 cells do not divide, so rows split at chunk edges
    rng = np.random.default_rng(7)
    xy = rng.uniform(size=(500, 3))
    if kind == "finite":
        space, points = MetricSpace.finite(np.abs(xy[:, None] - xy[None]).sum(axis=2)), np.arange(500)
    else:
        space = MetricSpace.euclidean(int(kind[0]))
        points = xy[:, :space.dim]
    shared, one, wide = (points[rng.choice(500, size=n, replace=False)] for n in (300, 1, 400))
    sources = [points[rng.choice(500, size=n, replace=False)] for n in (200, 1, 150, 40)]
    targets = [shared, one, wide, shared]
    want = np.concatenate([sets_module._segment_extrema(space, [s], t) for s, t in zip(sources, targets)], axis=1)
    assert sets_module._pair_extrema(space, sources, targets).tobytes() == want.tobytes()


@given(st.data())
@settings(max_examples=150)
def test_column_minima_match_reduceat_for_one_and_several_segments(data):
    rows, cols = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 6))
    a = data.draw(hnp.arrays(np.float64, (rows, cols), elements=st.floats(0.0, 4.0)))
    cuts = data.draw(st.lists(st.integers(1, rows - 1), max_size=rows - 1, unique=True)) if rows > 1 else []
    for starts in (np.array([0]), np.array([0] + sorted(cuts))):
        got = sets_module._column_minima(a, starts)
        assert got.tobytes() == np.minimum.reduceat(a, starts, axis=0).tobytes()
        assert got.shape == (len(starts), cols)


@given(st.data())
@settings(max_examples=150)
def test_hausdorff_matches_the_dense_reduction_bit_for_bit(data):
    # at the cap of 8 bytes a row chunk holds one row, so every set of two
    # or more points is taller than one chunk
    space, point, _ = data.draw(scenes(SERIES_KINDS))
    ra, rb = data.draw(point_lists(point)), data.draw(point_lists(point))
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            a, b = finite_set(space, ra), finite_set(space, rb)
            for x, y in ((a, b), (b, a)):
                assert directed_hausdorff(x, y) == ref.dense_directed_hausdorff(x, y)
                assert hausdorff(x, y) == ref.dense_hausdorff(x, y)
                # row 1 of the pass over x is the directed distance from y
                assert directed_hausdorff(y, x) == sets_module._segment_extrema(space, [x.array], y.array)[1, 0]


def test_hausdorff_of_sets_taller_than_one_row_chunk_matches_the_dense_reduction():
    xs = [0.0025 * ((k * 7919) % 700) for k in range(1000)]
    ys = [0.003 * ((k * 104729) % 800) for k in range(1000)]
    a, b = finite_set(SP1, xs), finite_set(SP1, ys)
    assert len(a) > SP1.block_rows(len(b)) and len(b) > SP1.block_rows(len(a))
    for x, y in ((a, b), (b, a)):
        assert directed_hausdorff(x, y) == ref.dense_directed_hausdorff(x, y)
        assert hausdorff(x, y) == ref.dense_hausdorff(x, y)


@given(st.data())
@settings(max_examples=100)
def test_batched_set_diagnostics_match_per_pair_dense_reductions(data):
    space, point, _ = data.draw(scenes(SERIES_KINDS))
    raws = data.draw(st.lists(point_lists(point, max_size=12), min_size=1, max_size=6))
    raw_target = data.draw(point_lists(point, max_size=12))
    for cap in SERIES_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            prefix, target = [finite_set(space, r) for r in raws], finite_set(space, raw_target)
            diag = kuratowski_tail_diagnostic(prefix, target, window=1)
            partial, limit, residuals = cauchy_limit_construct(prefix)
        assert diag.evidence["liminf_deficit"] == tuple(ref.dense_directed_hausdorff(target, c) for c in prefix)
        assert diag.evidence["limsup_excess"] == tuple(ref.dense_directed_hausdorff(c, target) for c in prefix)
        assert residuals == [ref.dense_hausdorff(p, limit) for p in partial]


def test_kuratowski_series_read_the_larger_entry_of_an_asymmetric_matrix():
    # d(0, 1) exceeds d(1, 0) by 5e-10: the deficit and the excess both read
    # d(0, 1), whichever point is the target
    space = MetricSpace.finite([[0.0, 1.0 + 5e-10, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    for member, target in ((1, 0), (0, 1)):
        diag = kuratowski_tail_diagnostic([finite_set(space, [member])], finite_set(space, [target]), window=1)
        assert diag.evidence["liminf_deficit"] == diag.evidence["limsup_excess"] == (1.0 + 5e-10,)


@given(shared_cut_sequences(SERIES_KINDS + ("diagonal",)), st.data())
@settings(max_examples=150)
def test_erc_moduli_and_p0_points_match_per_pair_dense_reductions(scene, data):
    _, seq, limit, _ = scene
    members = seq + [limit]
    # the same members ending in one shared support object, the largest cut
    # of the chain, below their own levels, as collapse_family's share theirs
    top = max((cut for u in members for _, cut in u.levels), key=len)
    shared = [u if support(u) is top else make_fuzzy(u.levels + ((u.alphas[-1] / 2, top),)) for u in members]
    # an eps equal to some cut's distance from its support decides that cut
    # on the boundary, where the cut is already too far
    gaps = {ref.dense_hausdorff(cut, support(u)) for u in members + shared for _, cut in u.levels}
    eps = data.draw(st.sampled_from(sorted(gaps - {0.0}) + [0.025]))
    for cap in SERIES_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            moduli = [erc_modulus(fuzzy_family(fam), eps).evidence["modulus"] for fam in (members, shared)]
            points = [p0_points(u) for u in members]
        assert moduli == [tuple(ref.member_modulus(u, eps) for u in fam) for fam in (members, shared)]
        assert points == [ref.p0_points(u) for u in members]


ONE_PAIR = {
    "end": endograph_metric,
    "send": sendograph_metric,
    "level": lambda u, v: hausdorff(alpha_cut(u, 0.6), alpha_cut(v, 0.6)),
}


@given(fuzzy_sequences(min_size=1, max_size=6, kinds=SERIES_KINDS), st.sampled_from(sorted(ONE_PAIR)))
@settings(max_examples=150)
def test_metric_matrix_matches_one_pair_metrics(scene, kind):
    space, members = scene
    sets = [build(space, raw) for raw, _ in members]
    upper = {(i, j): ONE_PAIR[kind](sets[i], sets[j]) for j in range(len(sets)) for i in range(j)}
    # the one-pair metrics are symmetric bit for bit, on every kind of scene
    assert all(ONE_PAIR[kind](sets[j], sets[i]) == x for (i, j), x in upper.items())
    for cap in SERIES_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            d = metric_matrix(sets, kind, 0.6 if kind == "level" else None)
            cauchy = cauchy_tail_profile(sets, kind, window=1) if kind != "level" and len(sets) >= 3 else None
        assert d.shape == (len(sets), len(sets))
        assert all(d[i, i] == 0.0 for i in range(len(sets)))
        assert all(d[i, j] == d[j, i] == x for (i, j), x in upper.items())
        if cauchy is not None:
            n = len(sets)
            assert cauchy.evidence["residual"] == tuple(
                max((upper[i, j] for j in range(i + 1, n)), default=0.0) for i in range(n))


@given(fuzzy_sequences(min_size=1, max_size=6, kinds=SERIES_KINDS))
@settings(max_examples=100)
def test_graph_matrices_match_one_pair_metrics(scene):
    space, members = scene
    sets = [build(space, raw) for raw, _ in members]
    for cap in SERIES_CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            matrices = [metric_matrix(sets, kind) for kind in ("end", "send")]
        for kind, d in zip(("end", "send"), matrices):
            assert d.shape == (len(sets), len(sets))
            assert all(d[i, i] == 0.0 for i in range(len(sets)))
            assert all(d[i, j] == d[j, i] == ONE_PAIR[kind](sets[i], sets[j])
                       for j in range(len(sets)) for i in range(j))


def test_metric_matrix_reads_the_larger_entry_of_an_asymmetric_matrix():
    # d(0, 1) exceeds d(1, 0) by 5e-10: a metric within TOL, whose sendograph
    # and level distances between the crisp points read d(0, 1) in either
    # order of u and v
    space = MetricSpace.finite([[0.0, 1.0 + 5e-10, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    u, v, w = (make_fuzzy([(1.0, finite_set(space, [k]))]) for k in range(3))
    assert sendograph_metric(u, v) == sendograph_metric(v, u) == 1.0 + 5e-10
    assert ONE_PAIR["level"](u, v) == ONE_PAIR["level"](v, u) == 1.0 + 5e-10
    for kind in ("send", "level"):
        for sets in ([u, v, w], [v, u, w]):
            d = metric_matrix(sets, kind, 1.0)
            assert d[0, 1] == d[1, 0] == 1.0 + 5e-10
    assert cauchy_tail_profile([u, v, w], "send", window=1).evidence["residual"][0] == 2.0
    assert cauchy_tail_profile([u, w, v], "send", window=1).evidence["residual"][0] == 2.0
    for sets in ([u, v, u], [v, u, v]):
        assert cauchy_tail_profile(sets, "send", window=1).evidence["residual"][1] == 1.0 + 5e-10


def assert_known_memberships(u):
    """u is a valid step set and its memberships, precomputed or measured on
    first read, are the ones measured from 1.0 down and from the lowest level
    up, read-only."""
    assert same_representation(make_fuzzy(u.levels), u)
    assert np.array_equal(u.support_memberships, memberships(u, support(u).array))
    assert np.array_equal(u.support_memberships, ref.memberships(u, support(u).array))
    assert not u.support_memberships.flags.writeable


OFFSETS = (0.5 * TOL, TOL, 2 * TOL)


def with_offset_points(space):
    """The space and a map from a point array and an offset index to points
    that far from those points: in Euclidean mode shifted along the first
    axis, in finite mode one more copy of the indices per offset, each copy
    at its offset from its original and that much farther from every other
    index."""
    if space.mode != "finite":
        return space, lambda pts, k: pts + np.eye(1, space.dim)[0] * OFFSETS[k]
    m, n = space.matrix_array, len(space.matrix_array)
    base, off = np.tile(np.arange(n), len(OFFSETS) + 1), np.repeat([0.0, *OFFSETS], n)
    big = m[np.ix_(base, base)] + off[:, None] + off[None, :]
    np.fill_diagonal(big, 0.0)
    return MetricSpace.finite(big), lambda pts, k: pts + n * (k + 1)


@given(st.data())
@settings(max_examples=150)
def test_memberships_match_bottom_up_scan(data):
    # declared sets, on their supports, on the oracle's bases (the union of
    # two supports) and on points off every cut but 0.5*TOL, TOL or 2*TOL
    # from a support point, which the cut holds, holds or does not
    space, point, _ = data.draw(scenes(SERIES_KINDS))
    space, offset = with_offset_points(space)
    raws = []
    for _ in range(2):
        raw = data.draw(point_lists(point, max_size=12))
        k1 = data.draw(st.integers(1, len(raw)))
        raws.append(nested_levels(raw, k1, data.draw(st.integers(k1, len(raw)))))
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            u, v = (build(space, r) for r in raws)
            supports = [support(u).array, support(v).array]
            queries = [*supports, union_family([support(u), support(v)]).array,
                       *(offset(pts, k) for pts in supports for k in range(len(OFFSETS)))]
            for w in (u, v):
                assert_known_memberships(w)
                for pts in queries:
                    assert np.array_equal(memberships(w, pts), ref.memberships(w, pts))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("box", [(0.0, 1.0), (-2.0, 3.5), (0.0, 1e-10)], ids=["unit", "wide", "tiny"])
def test_random_members_match_per_level_construction(dim, box):
    # in the tiny box every point is a duplicate of the first, so dedup drops
    # every later point and each level after the first reuses the cut above
    space = MetricSpace.euclidean(dim)
    reused = 0
    for seed in range(6):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for max_levels, max_points in ((4, 6), (6, 9), (3, 1), (5, 2)):
            for _ in range(10):
                u = random_fuzzy(space, rng, box, max_levels, max_points)
                v = ref.random_fuzzy(space, rng_ref, box, max_levels, max_points)
                assert u.alphas == v.alphas and len(u.levels) == len(v.levels)
                assert all(np.array_equal(cu.array, cv.array) for (_, cu), (_, cv) in zip(u.levels, v.levels))
                assert_known_memberships(u)
                # a level that drew only duplicates: the reference built a new cut
                cuts, cuts_ref = [c for _, c in u.levels], [c for _, c in v.levels]
                reused += sum(a is b and a_ref is not b_ref
                              for a, b, a_ref, b_ref in zip(cuts, cuts[1:], cuts_ref, cuts_ref[1:]))
        # both generators leave the stream at the same place
        assert rng.random() == rng_ref.random()
    assert (reused > 0) == (box[1] < TOL)


@pytest.mark.parametrize("max_levels", [1, 4, 2**31 + 1, 2**32, 2**32 + 1, 2**62 + 1, 2**63 - 1])
@pytest.mark.parametrize("buffered", [False, True], ids=["no-half", "half-buffered"])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM], ids=["PCG64", "PCG64DXSM"])
def test_random_members_read_the_scalar_stream_on_every_integer_branch(bit_generator, buffered, max_levels):
    # the level count is drawn below max_levels + 1, over a range of
    # max_levels - 1 beyond its low end: 0 draws nothing, 3 and 2**31 read
    # 32-bit halves (2**31 rejects about half of them), 2**32 - 1 takes a
    # half as it is, and the wider ranges read whole words (2**62 rejects
    # about a quarter); the point counts read halves, and one integer drawn
    # first leaves the high half of a word buffered in the bit generator
    space = MetricSpace.euclidean(2)
    for seed in range(6):
        rng, rng_ref = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        if buffered:
            assert rng.integers(7) == rng_ref.integers(7)
        for _ in range(6):
            u = random_fuzzy(space, rng, (-1.0, 2.0), max_levels, 7)
            v = ref.random_fuzzy(space, rng_ref, (-1.0, 2.0), max_levels, 7)
            assert u.alphas == v.alphas
            assert [c.array.tobytes() for _, c in u.levels] == [c.array.tobytes() for _, c in v.levels]
        # the whole state: the word position, the half buffer and its flag
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_random_members_read_the_scalar_stream_across_whole_chunks():
    # in dimension 300 one level's points reserve up to 600 coordinates,
    # more than a chunk of raw words, and the last member's may end beyond
    # the words read so far
    space = MetricSpace.euclidean(300)
    for seed in range(4):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            u = random_fuzzy(space, rng, (0.0, 1.0), 4, 7)
            v = ref.random_fuzzy(space, rng_ref, (0.0, 1.0), 4, 7)
            assert u.alphas == v.alphas
            assert [c.array.tobytes() for _, c in u.levels] == [c.array.tobytes() for _, c in v.levels]
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("box", [(0.0, 1.0), (-2.0, 3.5), (0.0, 1e-10), (0.0, 3e-9)],
                         ids=["unit", "wide", "tiny", "near-tol"])
def test_random_family_matches_members_drawn_one_at_a_time(dim, box):
    # the family deduplicates all members' points in one pass; in the tiny
    # box every pair of points, of one member or of two, lies within TOL,
    # and only pairs of one member may merge
    space = MetricSpace.euclidean(dim)
    for seed in range(4):
        for max_levels, max_points in ((4, 6), (6, 9), (3, 1), (5, 2)):
            rng = np.random.default_rng(seed)
            expected = [ref.random_fuzzy(space, rng, box, max_levels, max_points) for _ in range(25)]
            for cap in CAPS:
                with mock.patch.object(space_module, "BLOCK_BYTES", cap):
                    fam = random_family(space, 25, seed, box, max_levels, max_points)
                for u, v in zip(fam.members, expected, strict=True):
                    assert u.alphas == v.alphas
                    cuts, cuts_ref = [c for _, c in u.levels], [c for _, c in v.levels]
                    assert [c.array.tobytes() for c in cuts] == [c.array.tobytes() for c in cuts_ref]
                    # a cut is reused exactly when its level kept no new point
                    assert [a is b for a, b in zip(cuts, cuts[1:])] == [
                        len(a) == len(b) for a, b in zip(cuts_ref, cuts_ref[1:])]
                    assert u.support_memberships.tobytes() == ref.memberships(v, support(v).array).tobytes()
                    assert not u.support_memberships.flags.writeable
                    assert not any(c.array.flags.writeable for c in cuts)
                if box[1] < TOL:
                    assert all(len(support(u)) == 1 for u in fam.members)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("far", [1.0, 0.25 + 0.5 * TOL], ids=["apart", "within-tol"])
def test_collapse_members_share_their_cuts_and_know_their_memberships(dim, far):
    fam = collapse_family(MetricSpace.euclidean(dim), 8, base=0.25, far=far)
    core, pair = fam.members[1].levels[0][1], fam.members[1].levels[1][1]
    assert len(pair) == (2 if far == 1.0 else 1)
    assert fam.members[0].levels == ((1.0, pair),)
    for n, u in enumerate(fam.members[1:], start=2):
        assert u.levels[0][1] is core and u.levels[1][1] is pair
        assert u.alphas == (1.0, 1.0 / n)
        assert_known_memberships(u)
    assert_known_memberships(fam.members[0])


def planted_metric(seed, n, ties, violations):
    """L1 distances, in eighths, between n distinct cells of a 32 x 32 grid,
    with `ties` entries raised to exactly the bound the triangle check
    allows, min over j of d(i, j) + d(j, k), plus TOL, and then
    `violations` entries raised to the next float above it."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(32 * 32, n, replace=False)
    x, y = cells // 32, cells % 32
    m = (np.abs(x[:, None] - x) + np.abs(y[:, None] - y)) / 8
    for t in range(ties + violations):
        i, k = map(int, rng.choice(n, 2, replace=False))
        via = [j for j in range(n) if j not in (i, k)]
        j = via[int(np.argmin(m[i, via] + m[via, k]))]
        bound = m[i, j] + m[j, k] + TOL
        m[i, k] = m[k, i] = bound if t < ties else np.nextafter(bound, np.inf)
    return m


@pytest.mark.parametrize("n", [3, 4, 7, 40, 150])
@pytest.mark.parametrize("seed", range(4))
def test_triangle_check_matches_per_row_reference(n, seed):
    # raising an entry only lengthens the paths through it, so a tie stays
    # a tie and the matrix with ties alone is a metric within TOL
    for ties, violations in ((n, 0), (n, 1), (0, 3)):
        m = planted_metric(seed, n, ties, violations)
        expected = ref.triangle_witness(m)
        assert (expected is None) == (violations == 0)
        for cap in CAPS:
            with mock.patch.object(space_module, "BLOCK_BYTES", cap):
                cert = validate_metric(MetricSpace.finite(m))
            assert cert.witness == expected
            assert cert.verdict is (Verdict.PASS if expected is None else Verdict.FAIL)


# Every count of stored levels from 1.0 alone to 1.0 and all of LEVELS, so
# the cut table pads every set shorter than the tallest; and the sides that
# the level profile, the Γ sandwich and a mix of all three rows read.
TALLEST = len(LEVELS) + 1
SIDES = ([(2, False)], [(1, True), (0, False)], [(0, False), (1, False), (2, True)])


@st.composite
def padded_cut_sequences(draw, kinds=SERIES_KINDS):
    """A space, a sequence and a limit whose sets hold 1 to TALLEST stored
    levels, their cuts runs of one chain of nested cut objects (two of which
    may hold the same points), and a grid drawn from GRID."""
    space, point, _ = draw(scenes(kinds))
    raw = draw(point_lists(point, max_size=12))
    chain = [finite_set(space, raw[:k])
             for k in sorted(draw(st.lists(st.integers(1, len(raw)), min_size=1, max_size=TALLEST)))]

    def fuzzy():
        count = draw(st.integers(1, len(chain)))
        lo = draw(st.integers(0, len(chain) - count))
        below = draw(st.lists(st.sampled_from(LEVELS), min_size=count - 1, max_size=count - 1, unique=True))
        return make_fuzzy(list(zip([1.0] + sorted(below, reverse=True), chain[lo:lo + count])))

    pool = [fuzzy() for _ in range(draw(st.integers(1, 5)))]
    seq = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    alphas = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=len(GRID), unique=True))
    return space, seq, fuzzy(), tuple(alphas)


def level_classes(seq, limit, alphas) -> list[tuple[int, int]]:
    """Each alpha's class: the counts of the distinct stored levels of the
    members and the limit below it and at or below it. Alphas of one class
    read the same cut and the same strict cut of every set."""
    stored = sorted({a for u in (*seq, limit) for a, _ in u.levels})
    return [(bisect.bisect_left(stored, a), bisect.bisect_right(stored, a)) for a in alphas]


def assert_level_series_match(seq, limit, alphas):
    """The level series on every side list: tuples, bit for bit those of the
    per-alpha reference, and per side one tuple object for all the alphas
    of one class."""
    classes = level_classes(seq, limit, alphas)
    for sides in SIDES:
        got = metrics_module._level_series(seq, limit, alphas, sides)
        want = ref.level_series(seq, limit, alphas, sides)
        assert all(type(s) is tuple and len(s) == len(seq) for side in got for s in side)
        assert [[np.array(s).tobytes() for s in side] for side in got] == \
            [[np.array(s).tobytes() for s in side] for side in want]
        for side in got:
            shared: dict = {}
            assert all(shared.setdefault(c, s) is s for c, s in zip(classes, side))


@given(padded_cut_sequences())
@settings(max_examples=200)
def test_level_series_match_the_per_alpha_reference_bit_for_bit(scene):
    _, seq, limit, alphas = scene
    assert_level_series_match(seq, limit, alphas)


@given(padded_cut_sequences(), st.data())
@settings(max_examples=200)
def test_level_series_next_to_stored_levels_and_in_one_gap_match_the_reference(scene, data):
    # unsorted grids of the stored levels of the members and the limit with
    # their neighbours one ulp below and above, where a class holds the one
    # level alone; and grids of levels strictly between two consecutive
    # stored levels (or 0.0 and the lowest), which fall in one class
    _, seq, limit, alphas = scene
    stored = sorted({0.0} | {a for u in (*seq, limit) for a, _ in u.levels})
    near = {float(b) for a in stored for b in (np.nextafter(a, 0.0), a, np.nextafter(a, 1.0)) if 0.0 < b < 1.0}
    assert_level_series_match(seq, limit, tuple(data.draw(st.permutations(sorted(near | set(alphas))))))
    lo, hi = data.draw(st.sampled_from(list(zip(stored, stored[1:]))))
    gap = tuple(lo + (hi - lo) * t for t in data.draw(st.permutations([0.5, 0.1, 0.9, 0.3, 0.7])))
    assert len(set(level_classes(seq, limit, gap))) == 1
    assert_level_series_match(seq, limit, gap)


def stepped(space, points, alphas):
    """A step set whose k-th level holds the first k + 1 points."""
    return make_fuzzy([(a, finite_set(space, points[:k + 1])) for k, a in enumerate(alphas)])


@pytest.mark.parametrize("space", [SP1, SP2, ASYMMETRIC_CYCLE], ids=["1d", "2d", "finite"])
def test_level_series_at_the_limits_platform_levels_match_the_reference(space):
    # a limit with four cuts, read at its platform levels, where the strict
    # cut and the cut part ways, between them and on one-level grids;
    # members of one to four levels, padded in the table
    if space.mode == "finite":
        points = list(range(len(space.matrix_array)))
    else:
        points = np.random.default_rng(7).uniform(-1.0, 2.0, size=(6, space.dim)).tolist()
    limit = stepped(space, points[::-1], (1.0, 0.7, 0.4, 0.2))
    assert platform_points(limit) == (0.2, 0.4, 0.7)
    seq = [stepped(space, points[s:], (1.0, 0.7, 0.55, 0.2)[:count])
           for count in range(1, 5) for s in range(len(points) - count + 1)]
    for alphas in ((0.2, 0.4, 0.7), (0.1, 0.3, 0.4, 0.55, 0.7, 0.9), (0.4,), (0.55,)):
        assert_level_series_match(seq, limit, alphas)


def test_level_series_of_the_collapse_family_match_the_reference():
    # 1,500 members that share two cuts, against a limit with a platform at
    # 0.5, on the default grid and on a grid that holds the platform level
    seq = collapse_family(SP1, 1500, base=0.0, far=1.0).members
    limit = make_fuzzy([(1.0, finite_set(SP1, [0.0])), (0.5, finite_set(SP1, [0.0, 1.0]))])
    for alphas in (default_alpha_grid(limit), tuple(k / 20 for k in range(1, 20)), (0.5,)):
        assert_level_series_match(seq, limit, alphas)
    # a reversed grid; the platform level and 1/3 with their neighbours one
    # ulp off; and five levels between 1/3 and 0.5, all of one class
    for alphas in (default_alpha_grid(limit)[::-1],
                   tuple(float(np.nextafter(a, t)) for a in (0.5, 1 / 3) for t in (0.0, a, 1.0)),
                   (0.45, 0.35, 0.49, 0.4, 0.34)):
        assert_level_series_match(seq, limit, alphas)


@pytest.mark.parametrize("family", ["random", "collapse", "intervals"])
def test_tb_end_cut_ids_match_the_per_alpha_table(family):
    # the (grid x members) id table of one at() call, on a grid in (0,1]
    # that ends at 1.0, row for row the per-alpha table's ids, over the
    # same distinct cuts
    fam = {"random": lambda: random_family(SP2, 60, 3, (0.0, 1.0), 6, 5),
           "collapse": lambda: collapse_family(SP1, 40),
           "intervals": lambda: crisp_interval_family(SP1, 0.0, 1.0, 0.1)}[family]()
    alphas = tuple(k / 101 for k in range(1, 102))
    table, want = metrics_module._CutTable(fam.members), ref.PointwiseCutTable(fam.members)
    assert table.cuts == want.cuts and all(a is b for a, b in zip(table.cuts, want.cuts))
    ids = table.at(alphas)
    assert ids.shape == (len(alphas), len(fam.members))
    assert ids.tolist() == [want.at(a).tolist() for a in alphas]
    strict = alphas[:-1]
    assert table.at(strict, strict=True).tolist() == [want.at(a, strict=True).tolist() for a in strict]
