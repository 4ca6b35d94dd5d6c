"""Differential checks of the array point-set layer against the plain-Python
per-point reference in reference_pointwise.py, on 1-D, 2-D and finite-mode
sets, at the default row-block cap and at a cap that forces one row per
block. The incremental prefix unions and nets are checked against unions and
nets rebuilt from scratch, the one-matrix graph metrics against the closed
form taken one direction at a time, the per-coordinate Euclidean kernel
against the last-axis reduction it replaced, the oracles against their
level-by-level sampling, the convergence series and the metric matrices
(the endograph and sendograph ones also from one pass per column) batched
over a whole sequence against the same distances taken one pair at a time,
the generated members, built from one deduplicated support with their
memberships known, against cuts deduplicated level by level and memberships
measured, the memberships measured from 1.0 down against the scan from the
lowest level up, and the blocked triangle check of validate_metric against
the check one row at a time."""

import math
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import reference_pointwise as ref
from fuzzymetrics import (
    TOL,
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
    finite_set,
    fuzzy_family,
    gamma_diagnostic,
    hausdorff,
    levelwise_profile,
    make_fuzzy,
    metric_matrix,
    same_representation,
    send_decomposition_check,
    sendograph_metric,
    sendograph_oracle,
    strict_cut_closure,
    support,
    union_family,
    validate_metric,
)
from fuzzymetrics import metrics as metrics_module
from fuzzymetrics import space as space_module
from fuzzymetrics.fuzzy import memberships
from fuzzymetrics.metrics import graph_matrices
from fuzzymetrics.generators import collapse_family, random_fuzzy
from fuzzymetrics.sets import prefix_net_sizes
from fuzzymetrics.space import dist_matrix
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
        # within TOL, so each distance must be read in its own orientation
        matrix = [[x + 1e-10 * ((3 * i + j) % 8) * (i < j) for j, x in enumerate(row)] for i, row in enumerate(matrix)]
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


@given(st.data())
@settings(max_examples=150)
def test_eps_net_matches_reference(data):
    space, point, radii = data.draw(scenes())
    raw = data.draw(point_lists(point))
    eps = data.draw(st.sampled_from(radii))
    expected = ref.eps_net(space, ref.finite_set(space, raw), eps)
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert ref.points(eps_net(finite_set(space, raw), eps)) == expected


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


@given(st.data())
@settings(max_examples=150)
def test_prefix_net_sizes_match_from_scratch_nets(data):
    space, point, radii = data.draw(scenes())
    raws = data.draw(st.lists(point_lists(point, max_size=12), min_size=1, max_size=6))
    eps = data.draw(st.sampled_from(radii))
    expected = ref.prefix_net_sizes(space, [ref.finite_set(space, r) for r in raws], eps)
    for cap in CAPS:
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


@st.composite
def fuzzy_sequences(draw, min_size=2, max_size=2, kinds=KINDS):
    """A space and a list of (raw levels, reference levels) of nested sets."""
    space, point, _ = draw(scenes(kinds))
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        raw = draw(point_lists(point, max_size=10))
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
    # longer axes pairwise
    space = MetricSpace.euclidean(dim)
    rng = np.random.default_rng(dim)
    sizes = [tuple(rng.integers(1, 40, size=2)) for _ in range(12)] + [(1, 1), (300, 700)]
    assert space.block_rows(700) < 300  # the last size spans row blocks at the default cap
    for n, m in sizes:
        a = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3)
        b = rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-3, 3)
        shared = min(n, m) // 3
        b[:shared] = a[:shared]  # pairs at distance exactly 0
        for cap in CAPS:
            with mock.patch.object(space_module, "BLOCK_BYTES", cap):
                got = dist_matrix(space, a, b)
                want = ref.dist_matrix_reduction(space, a, b)
            if dim <= 7:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), resolution=st.sampled_from((0.1, 0.05, 0.025, 0.01, 0.007)))
@settings(max_examples=60)
def test_oracles_match_level_by_level_sampling(kind, data, resolution):
    space, [(raw_u, _), (raw_v, _)] = data.draw(fuzzy_sequences(kinds=(kind,)))
    u, v = build(space, raw_u), build(space, raw_v)

    def oracles():
        return [f(x, y, resolution) for f in (endograph_oracle, sendograph_oracle) for x, y in ((u, v), (v, u))]

    got = oracles()
    with mock.patch.object(metrics_module, "_directed_sampled", ref.directed_sampled):
        assert got == oracles()


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
    alphas = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=6))
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
    u_first = space.mode == "finite"  # the asymmetric matrices agree with the symmetric only within TOL
    end = tuple(ref.graph_distance(space, ref_levels(u), ref_levels(limit), True, u_first) for u in seq)
    send = tuple(ref.graph_distance(space, ref_levels(u), ref_levels(limit), False, u_first) for u in seq)
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


def test_closedness_distances_keep_the_one_pair_orientation_of_an_asymmetric_matrix():
    # d(0, 1) exceeds d(1, 0) by 5e-10: metric(candidate, member) reads d(0, 1)
    # from the candidate's side and d(1, 0) from the member's
    space = MetricSpace.finite([[0.0, 1.0 + 5e-10, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    u, v = (make_fuzzy([(1.0, finite_set(space, [k]))]) for k in range(2))
    assert closedness_witness(fuzzy_family([v, u]), u, "send", 1e-3).evidence["distance"] == (1.0 + 5e-10, 0.0)
    assert closedness_witness(fuzzy_family([u, v]), v, "send", 1e-3).evidence["distance"] == (1.0, 0.0)


def test_batched_kernel_calls_stay_within_one_row_chunk():
    # 300 members of one to three points and one member of 100 points against
    # a limit with cuts of 500 and 2000 points: a row chunk against the
    # support holds block_rows(2000) = 65 rows, so there the big member takes
    # a chunk of its own, no larger than its per-pair matrix, and every other
    # chunk stays within the cap
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

    def recording(space, a, b):
        shapes.append((len(a), len(b)))
        return dist_matrix(space, a, b)

    alphas = (0.3, 0.45, 0.5, 0.7)
    with mock.patch.object(metrics_module, "dist_matrix", recording):
        profile = levelwise_profile(seq, limit, alphas, window=5)
        diag = gamma_diagnostic(seq, limit, alphas, window=5)
        cert = send_decomposition_check(seq, limit, window=5)
    # (chunk rows, target size) of each call; the targets are the limit cuts
    chunks = [(n, m) for a, b in shapes for n, m in ((a, b), (b, a)) if m in (500, 2000) and n not in (500, 2000)]
    assert len(chunks) == len(shapes)
    assert all(n <= SP1.block_rows(m) for n, m in chunks if (n, m) != (100, 2000))
    assert (100, 2000) in chunks
    for i, a in enumerate(alphas):
        assert part_series(profile)[i] == tuple(hausdorff(alpha_cut(u, a), alpha_cut(limit, a)) for u in seq)
        assert part_series(diag)[i] == tuple(
            directed_hausdorff(strict_cut_closure(limit, a), alpha_cut(u, a)) for u in seq)
        assert part_series(diag, 1)[i] == tuple(directed_hausdorff(alpha_cut(u, a), alpha_cut(limit, a)) for u in seq)
    assert cert.evidence["end"] == tuple(endograph_metric(u, limit) for u in seq)
    assert cert.evidence["cut0"] == tuple(hausdorff(support(u), support(limit)) for u in seq)


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
    # the one-pair calls, each in the orientation of entry (i, j) with i < j
    upper = {(i, j): ONE_PAIR[kind](sets[i], sets[j]) for j in range(len(sets)) for i in range(j)}
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
            matrices = graph_matrices(sets)
        for kind, d in zip(("end", "send"), matrices):
            assert d.shape == (len(sets), len(sets))
            assert all(d[i, i] == 0.0 for i in range(len(sets)))
            assert all(d[i, j] == d[j, i] == ONE_PAIR[kind](sets[i], sets[j])
                       for j in range(len(sets)) for i in range(j))


def test_metric_matrix_keeps_the_one_pair_orientation_of_an_asymmetric_matrix():
    # d(0, 1) exceeds d(1, 0) by 5e-10: a metric within TOL, whose sendograph
    # distance between the crisp points reads d(0, 1) from u and d(1, 0) from v
    space = MetricSpace.finite([[0.0, 1.0 + 5e-10, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    u, v, w = (make_fuzzy([(1.0, finite_set(space, [k]))]) for k in range(3))
    assert sendograph_metric(u, v) == 1.0 + 5e-10 and sendograph_metric(v, u) == 1.0
    for kind in ("send", "level"):
        d = metric_matrix([u, v, w], kind, 1.0)
        assert d[0, 1] == d[1, 0] == 1.0 + 5e-10
        d = metric_matrix([v, u, w], kind, 1.0)
        assert d[0, 1] == d[1, 0] == 1.0
    assert graph_matrices([u, v, w])[1][1, 0] == 1.0 + 5e-10 and graph_matrices([v, u, w])[1][1, 0] == 1.0
    assert cauchy_tail_profile([u, v, w], "send", window=1).evidence["residual"][0] == 2.0
    assert cauchy_tail_profile([u, w, v], "send", window=1).evidence["residual"][0] == 2.0
    assert cauchy_tail_profile([u, v, u], "send", window=1).evidence["residual"][1] == 1.0
    assert cauchy_tail_profile([v, u, v], "send", window=1).evidence["residual"][1] == 1.0 + 5e-10


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
    m, n = space.matrix_array, len(space.matrix)
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
