"""Differential checks of the near-pair search `space._near` and of the
identity decisions at TOL built on it: dedup (finite_set, union_family and
the prefix unions), nestedness (make_fuzzy) and memberships. Each is
compared with the full kernel matrix, or with the dense references in
reference_pointwise.py, at the default BLOCK_BYTES and at a cap that leaves
one candidate pair per chunk. Last, two checks that the search's memory
stays within a multiple of BLOCK_BYTES."""

import tracemalloc
from datetime import timedelta
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import reference_pointwise as ref
from fuzzymetrics import TOL, InputError, MetricSpace, finite_set, make_fuzzy, union_family
from fuzzymetrics import space as space_module
from fuzzymetrics.fuzzy import memberships
from fuzzymetrics.sets import _prefix_unions
from fuzzymetrics.space import COORD_MAX, _cells, _near, dist_matrix
from helpers import CAPS, SP2

ULP = 2.0 ** -52

# Base values of a coordinate: zero, powers of two and their neighbours,
# and the extremes COORD_MAX allows. Each point adds an offset to them, so
# cells fall at exactly TOL, one ulp either side of it, or well apart.
BASES = (0.0, 0.3, 1.0, -1.0, 2.0 ** 20, np.nextafter(2.0 ** 20, np.inf), np.nextafter(1.0, 0.0),
         2.0 ** -3, COORD_MAX, -COORD_MAX, np.nextafter(COORD_MAX, 0.0))
OFFSETS = (0.0, TOL, TOL * (1 + ULP), TOL * (1 - ULP), 0.5 * TOL, 2 * TOL, 0.25)
RADII = (TOL, TOL * (1 + ULP), TOL * (1 - ULP), 0.25, 1.0)

# At the smallest cap every candidate pair is a chunk of its own, so an
# example of 20 points on one sort coordinate takes about 0.2 s on a desktop
# core, around Hypothesis's default deadline; the limit is set well above it.
DEADLINE = timedelta(seconds=5)

coordinate = st.tuples(st.sampled_from(BASES), st.sampled_from(OFFSETS)).map(lambda t: t[0] + t[1])


@st.composite
def scenes(draw):
    """A space and two lists of its points for the near-pair search."""
    kind = draw(st.sampled_from(("1d", "2d", "3d", "line", "finite", "asymmetric")))
    if kind in ("finite", "asymmetric"):
        n = draw(st.integers(1, 10))
        pool = st.sampled_from((0.0, TOL * (1 - ULP), TOL, TOL * (1 + ULP), 0.5, 1.0))
        m = np.array(draw(st.lists(pool, min_size=n * n, max_size=n * n))).reshape(n, n)
        if kind == "finite":
            m = np.triu(m, 1) + np.triu(m, 1).T
        np.fill_diagonal(m, 0.0)
        space = MetricSpace.finite(m.tolist())
        points = st.lists(st.integers(0, n - 1), min_size=1, max_size=20)
        return space, draw(points), draw(points)
    dim = {"1d": 1, "2d": 2, "3d": 3, "line": 3}[kind]
    point = st.tuples(*[coordinate] * dim)
    if kind == "line":
        # every point on one sort coordinate: every window holds every point
        shared = draw(coordinate)
        point = point.map(lambda p: (shared,) + p[1:])
    points = st.lists(point, min_size=1, max_size=20)
    return MetricSpace.euclidean(dim), draw(points), draw(points)


def near_pairs(space, a, b, radius):
    pairs = [np.stack(ij, axis=1) for ij in _near(space, a, b, radius)]
    return sorted(map(tuple, np.concatenate(pairs).tolist())) if pairs else []


def dense_pairs(space, a, b, radius):
    return sorted(zip(*map(np.ndarray.tolist, np.nonzero(dist_matrix(space, a, b) <= radius))))


@given(scenes(), st.sampled_from(RADII))
@settings(max_examples=300, deadline=DEADLINE)
def test_near_pairs_match_the_full_matrix(scene, radius):
    space, ra, rb = scene
    a, b = space.point_array(ra), space.point_array(rb)
    expected = dense_pairs(space, a, b, radius)
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert near_pairs(space, a, b, radius) == expected
            # the dedup resolves rows in the order the chunks give them
            rows = np.concatenate([i for i, _ in _near(space, a, b, radius)] or [np.zeros(0, int)])
            assert np.all(np.diff(rows) >= 0)


def test_one_candidate_pair_per_chunk_at_the_smallest_cap():
    pts = np.zeros((4, 2))
    with mock.patch.object(space_module, "BLOCK_BYTES", 8):
        chunks = list(_near(SP2, pts, pts, TOL))
    assert len(chunks) == 16 and all(len(i) == 1 for i, _ in chunks)


@pytest.mark.parametrize("dim", range(1, 10))
def test_candidate_cells_are_bit_equal_to_the_kernel(dim):
    space = MetricSpace.euclidean(dim)
    rng = np.random.default_rng(100 + dim)
    a = rng.normal(size=(40, dim)) * 10.0 ** rng.uniform(-3, 3)
    b = rng.normal(size=(30, dim)) * 10.0 ** rng.uniform(-3, 3)
    b[:10] = a[:10]
    b[10:20, 0] = a[10:20, 0]  # shared sort coordinates
    d = dist_matrix(space, a, b)
    i, j = (x.ravel() for x in np.indices(d.shape))
    assert _cells(a.T, b.T, i, j).tobytes() == d[i, j].tobytes()
    # at a radius equal to a cell, the search marks that cell and all below it
    for radius in rng.choice(d[d >= 1e-150], size=8):
        for cap in CAPS:
            with mock.patch.object(space_module, "BLOCK_BYTES", cap):
                assert near_pairs(space, a, b, radius) == dense_pairs(space, a, b, radius)


@given(scenes())
@settings(max_examples=200, deadline=DEADLINE)
def test_dedup_and_unions_match_the_dense_scan(scene):
    space, ra, rb = scene
    a, b = space.point_array(ra), space.point_array(rb)
    expected_a, expected_b = a[ref.dense_keep_first(space, a)], b[ref.dense_keep_first(space, b)]
    unions = ref.dense_prefix_unions(space, [expected_a, expected_b, expected_a])
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            sa, sb = finite_set(space, ra), finite_set(space, rb)
            assert sa.array.tobytes() == expected_a.tobytes()
            assert sb.array.tobytes() == expected_b.tobytes()
            assert union_family([sa, sb]).array.tobytes() == unions[1].tobytes()
            before = 0
            for (union, fresh), expected in zip(_prefix_unions([sa, sb, sa]), unions):
                assert union.array.tobytes() == expected.tobytes()
                assert fresh.tobytes() == expected[before:].tobytes()
                before = len(expected)


def fuzzy_or_none(levels):
    try:
        return make_fuzzy(levels)
    except InputError:
        return None


@given(scenes(), st.data())
@settings(max_examples=200, deadline=DEADLINE)
def test_nestedness_and_memberships_match_the_dense_checks(scene, data):
    space, ra, rb = scene
    # the lower cut either extends the upper one or is drawn on its own
    lower = ra + rb if data.draw(st.booleans()) else rb
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            hi, lo = finite_set(space, ra), finite_set(space, lower)
            u = fuzzy_or_none([(1.0, hi), (0.5, lo)])
            assert (u is not None) == ref.dense_subset(space, hi.array, lo.array)
            if u is not None:
                queries = space.point_array(ra + rb)
                assert memberships(u, queries).tolist() == ref.memberships(u, queries).tolist()
                assert u.support_memberships.tolist() == ref.memberships(u, lo.array).tolist()


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while fn(*args) runs, beyond what was live
    before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A dedup holds two kinds of memory: the candidate chunks of the search,
# sized to fit BLOCK_BYTES with a few temporaries beyond, and arrays of a
# few words per point (the validated points, their sorted and transposed
# copies, the windows and the masks), which stay within 8 times the bytes
# of the point array. Measuring every candidate pair at once would take
# 25M pairs on the second input.
@pytest.mark.parametrize("points", [
    np.random.default_rng(0).uniform(0.0, 1.0, size=(30_000, 2)),
    # every point on one sort coordinate: every window holds all 5,000
    np.column_stack([np.full(5_000, 0.5), np.random.default_rng(1).uniform(0.0, 1.0, size=5_000)]),
], ids=["uniform-30k", "one-sort-coordinate-5k"])
def test_dedup_memory_stays_within_two_blocks_plus_the_input(points):
    raw = [tuple(p) for p in points.tolist()]
    peak = traced_peak(finite_set, SP2, raw)
    assert peak <= 2 * space_module.BLOCK_BYTES + 8 * points.nbytes
