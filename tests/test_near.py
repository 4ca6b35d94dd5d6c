"""Differential checks of the near-pair search `space._near` and of the
decisions built on it: the keep-first scan at TOL and at eps on layouts of
copies, shared coordinates, block edges and extreme radii, dedup
(finite_set, union_family, the prefix unions, and the dedup within runs
through `space._window`), nestedness (make_fuzzy) and memberships. Each is
compared with the full kernel matrix, or with the dense references in reference_pointwise.py, at
the default BLOCK_BYTES and at a cap that leaves one candidate pair per
chunk. Last, two checks that the search's memory
stays within a multiple of BLOCK_BYTES."""

from datetime import timedelta
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import reference_pointwise as ref
from fuzzymetrics import TOL, FiniteSet, InputError, MetricSpace, eps_net, finite_set, make_fuzzy, union_family
from fuzzymetrics import space as space_module
from fuzzymetrics.fuzzy import memberships, support
from fuzzymetrics.generators import crisp_interval_family
from fuzzymetrics.sets import _dedup_runs, _keep_first, _prefix_unions
from fuzzymetrics.space import COORD_MAX, _near, _window, dist_matrix
from helpers import CAPS, SP1, SP2, traced_peak

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
    # every row's window is all of b; the root of a key is its cell
    walk = _window(space, a, b, np.zeros(len(a), int), np.full(len(a), len(b)))
    i, j, cells = map(np.concatenate, zip(*[(i, j, np.sqrt(keys)) for i, j, keys in walk]))
    assert (i * len(b) + j).tolist() == list(range(d.size))
    assert cells.tobytes() == d[i, j].tobytes()
    # at a radius equal to a cell, the search marks that cell and all below it
    for radius in rng.choice(d[d >= 1e-150], size=8):
        for cap in CAPS:
            with mock.patch.object(space_module, "BLOCK_BYTES", cap):
                assert near_pairs(space, a, b, radius) == dense_pairs(space, a, b, radius)


# 30 nested grids [0, x] as crisp_interval_family builds them, each member
# repeating every point of the one before it exactly: a dedup of their
# union clears the copies of the rows below a chunk's first row at once
GRIDS = [support(u).array[:, 0].tolist() for u in crisp_interval_family(SP1, 0.25, 1.0, 0.025).members]
# points 0.6 TOL apart, each within TOL of its neighbours only: a dedup
# decides each from the one before it in the same chunk, in pair order
CHAIN = [1.0 + 0.6 * TOL * k for k in range(20)]


@given(scenes())
@example((SP1, *GRIDS))
@example((SP1, CHAIN, CHAIN[::-1]))
@settings(max_examples=200, deadline=DEADLINE)
def test_dedup_and_unions_match_the_dense_scan(scene):
    # the members are the scene's point lists, then its first one again
    space, *raws = scene
    expected = [a[ref.dense_keep_first(space, a)] for a in map(space.point_array, raws)]
    unions = ref.dense_prefix_unions(space, expected + expected[:1])
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            sets = [finite_set(space, r) for r in raws]
            assert [s.array.tobytes() for s in sets] == [e.tobytes() for e in expected]
            assert union_family(sets).array.tobytes() == unions[-2].tobytes()
            _, union, sizes = _prefix_unions(sets + sets[:1])
            assert len(sizes) == len(unions)
            before = 0
            for size, expected_union in zip(sizes.tolist(), unions):
                assert union[:size].tobytes() == expected_union.tobytes()
                # the points each member adds to the union
                assert union[before:size].tobytes() == expected_union[before:].tobytes()
                before = size


@st.composite
def runs(draw):
    """A Euclidean space, points and the lengths of consecutive runs of
    them, runs of one point among them; shared coordinates put
    near-duplicates within runs and across them."""
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=20))
    lengths = []
    while sum(lengths) < len(points):
        lengths.append(min(draw(st.integers(1, 6)), len(points) - sum(lengths)))
    return MetricSpace.euclidean(dim), points, lengths


@given(runs())
@settings(max_examples=300, deadline=DEADLINE)
def test_run_dedup_matches_the_dense_scan_of_each_run(scene):
    space, raw, lengths = scene
    pts = space.point_array(raw)
    ends = np.cumsum(lengths)
    expected = np.concatenate([ref.dense_keep_first(space, pts[end - n:end]) for n, end in zip(lengths, ends)])
    for cap in CAPS:
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert _dedup_runs(space, pts, np.array(lengths)).tolist() == expected.tolist()


def test_run_dedup_keeps_duplicates_of_other_runs():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, TOL], [0.0, 0.0], [TOL, 0.0], [5.0, 5.0]])
    assert _dedup_runs(SP2, pts, np.array([2, 1, 3])).tolist() == [True, False, True, True, False, True]
    assert _dedup_runs(SP2, pts, np.ones(6, dtype=int)).all()
    assert _keep_first(SP2, pts, TOL).tolist() == [True, False, False, False, False, True]


# The support union of 70 nested grids, 4,655 points of which 101 are
# distinct: each copy is measured against the kept rows of its window only.
# Measuring every copy against every copy of its grid point walked 268,695
# candidate cells.
def test_copies_cost_the_kept_rows_in_their_windows():
    pts = np.concatenate([support(u).array for u in crisp_interval_family(SP1, 0.3, 1.0, 0.01).members])
    cells = []

    def counted(space, a, b, first, counts):
        cells.append(int(counts.sum()))
        return _window(space, a, b, first, counts)

    with mock.patch.object(space_module, "_window", counted):
        kept = _keep_first(SP1, pts, TOL)
    assert (len(pts), int(kept.sum())) == (4655, 101)
    assert sum(cells) <= 10 * len(pts)


# Layouts that meet the edge cases of the keep-first scan: copies and
# near-copies, which no lone-row step keeps; one shared first coordinate,
# where every window holds every row; copies on the edges of the doubling
# row blocks; coordinates at +-COORD_MAX; and repeated finite indices. At
# radius 1e-200 a window is 2e-150 wide either side, at 1e308 unbounded.
def edge_copies():
    # a chain 0.6 TOL apart of 1,000 points, all within TOL of a neighbour,
    # whose row at each block edge (of the default cap, a one-row cap and a
    # three-row cap) is a copy of the row before it
    pts = 1.0 + 0.6 * TOL * np.arange(1000)[:, None]
    for rows in (SP1.block_rows(1000), 1, 3):
        edges = rows * 2 ** np.arange(12)
        edges = edges[edges < 1000]
        pts[edges] = pts[edges - 1]
    return SP1, pts


def extremes():
    values = np.array([COORD_MAX, -COORD_MAX, np.nextafter(COORD_MAX, 0.0), 0.0, TOL, 1.0])
    return SP2, np.random.default_rng(7).choice(values, size=(200, 2))


def finite_repeats():
    cells = [(x, y) for x in range(4) for y in range(3)]
    space = MetricSpace.finite([[(abs(xa - xb) + abs(ya - yb)) / 8 for xb, yb in cells] for xa, ya in cells])
    return space, np.random.default_rng(8).integers(0, len(cells), size=150)


def copies():
    base = np.random.default_rng(4).uniform(0.0, 1.0, size=(40, 2))
    return SP2, base[np.random.default_rng(5).integers(0, 40, size=300)]


def near_copies():
    rng = np.random.default_rng(6)
    base = rng.uniform(0.0, 1.0, size=(40, 2))[rng.integers(0, 40, size=300)]
    return SP2, base + rng.choice(OFFSETS[:-1], size=base.shape)


def shared_first_coordinate():
    rng = np.random.default_rng(9)
    return SP2, np.column_stack([np.full(300, 0.3), rng.integers(0, 40, size=300) / 32 + rng.choice(OFFSETS, 300)])


LAYOUTS = {f.__name__: f for f in (copies, near_copies, shared_first_coordinate, edge_copies, extremes, finite_repeats)}


# np.float64(1e308) doubles past the float maximum as a numpy scalar
@pytest.mark.parametrize("radius", [TOL, 1e-200, 0.05, np.float64(1e308)])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_keep_first_matches_the_dense_scan_on_hard_layouts(layout, radius):
    space, pts = LAYOUTS[layout]()
    expected = ref.dense_keep_first(space, pts, radius)
    # the default cap, one-row blocks and three-row blocks
    for cap in CAPS + (8 * 3 * len(pts),):
        with mock.patch.object(space_module, "BLOCK_BYTES", cap):
            assert _keep_first(space, pts, radius).tolist() == expected.tolist()
            assert eps_net(FiniteSet(space, pts.copy()), radius).array.tobytes() == pts[expected].tobytes()


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
