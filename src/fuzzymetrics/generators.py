"""Deterministic generators for parametrized families and sequences.

Every generator is seeded (where randomness is involved) and tags the family
it produces, so trend-based certificates can reason about the member order.
All generators target Euclidean spaces. Each family generator `<name>_family`
has a check `<name>_count` that takes the same arguments, raises the
InputError the generator would raise and returns the member count without
drawing a member; the generator calls it first. The checks hold every rule
on the parameters, size bounds included.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .common import InputError, check_integer, fmt, real
from .families import FuzzyFamily, GeneratorTag, fuzzy_family
from .fuzzy import StepFuzzySet, _prefix_fuzzy, crisp, make_fuzzy, support
from .sets import FiniteSet, _dedup_runs, finite_set
from .space import COORD_MAX, EUCLIDEAN, MetricSpace

# Bounds that let every family of a document that loads be built: members,
# and coordinates of the member point sets, each member counted at the most
# points its kind can give it. A random member's level count is drawn as
# numpy's int64 integers draws it, below max_levels + 1, at most 2**63, and
# of at most _RANDOM_LEVELS levels each adds at most two points.
MAX_MEMBERS = 100_000
MAX_COORDINATES = 10**6
MAX_LEVELS = 2**63 - 1
_RANDOM_LEVELS = 1001


def _require_euclidean(space: MetricSpace) -> None:
    if space.mode != EUCLIDEAN:
        raise InputError("generators support euclidean spaces only")


def _check_size(space: MetricSpace, count: int, points: int) -> None:
    """Reject a family of more than MAX_MEMBERS members, or whose members,
    at `points` points each, hold more than MAX_COORDINATES coordinates."""
    if count > MAX_MEMBERS:
        raise InputError(f"{count} members exceed the bound of {MAX_MEMBERS}")
    if count * points * space.dim > MAX_COORDINATES:
        raise InputError(f"{count} members of up to {points} points in dimension {space.dim} exceed the bound "
                         f"of {MAX_COORDINATES} coordinates")


def _check_box(box: tuple[float, float]) -> tuple[float, float]:
    """The box as two floats low < high of magnitude at most COORD_MAX: the
    random points skip point_array, so its coordinate bound is checked here."""
    try:
        lo, hi = (real("'box' entry", x) for x in box)
        if abs(lo) <= COORD_MAX and abs(hi) <= COORD_MAX and lo < hi:
            return lo, hi
    except (TypeError, ValueError):
        pass
    raise InputError(f"'box' must be two numbers low < high with magnitude at most {COORD_MAX:g}, got {box!r}")


def _grid_steps(span: float) -> int:
    """The number of whole steps nearest to a span measured in steps."""
    if not math.isfinite(span):
        raise InputError(f"need a finite number of grid steps, got {span}")
    return int(round(span))


def _axis_points(space: MetricSpace, xs: list[float]) -> np.ndarray:
    """The (len(xs), dim) coordinates of the points at first coordinates xs
    on the first axis, unchecked: point_array or finite_set checks them."""
    points = np.zeros((len(xs), space.dim))
    points[:, 0] = xs
    return points


def translates_count(space: MetricSpace, count: int, start: float = 1.0, step: float = 1.0) -> int:
    """Check the parameters of translates_family: its member count. The
    offsets are monotone in k, so the first and the last bound them all."""
    _require_euclidean(space)
    check_integer("'count'", count, 1)
    _check_size(space, count, 1)
    start, step = real("'start'", start), real("'step'", step)
    space.point_array(_axis_points(space, [start + k * step for k in (0, count - 1)]))
    return count


def translates_family(
    space: MetricSpace, count: int, start: float = 1.0, step: float = 1.0
) -> FuzzyFamily:
    """Crisp singletons marching along the first axis: start, start+step, ..."""
    translates_count(space, count, start, step)
    # translates_count checked the coordinates and a singleton needs no dedup:
    # each member is a row of one read-only array, with one shared membership
    start, step = float(start), float(step)
    offsets = [start + k * step for k in range(count)]
    points, ones = _axis_points(space, offsets), np.ones(1)
    points.flags.writeable = ones.flags.writeable = False
    members = [_prefix_fuzzy(((1.0, FiniteSet(space, points[k:k + 1])),), ones) for k in range(count)]
    names = [f"t[{k + 1}]" for k in range(count)]
    return fuzzy_family(members, names, GeneratorTag("translates", tuple(offsets)))


def collapse_count(space: MetricSpace, count: int, base: float = 0.0, far: float = 1.0) -> int:
    """Check the parameters of collapse_family: its member count."""
    _require_euclidean(space)
    check_integer("'count'", count, 1)
    _check_size(space, count, 2)
    space.point_array(_axis_points(space, [real("'base'", base), real("'far'", far)]))
    return count


def collapse_family(
    space: MetricSpace, count: int, base: float = 0.0, far: float = 1.0
) -> FuzzyFamily:
    """Members whose far point survives only up to level 1/n.

    Member n holds the base point at membership 1 and the far point at
    membership 1/n (for n = 1 the two levels coincide and the member is the
    crisp pair). Cuts at every positive level stay inside {base, far}, but
    the supports refuse to settle: the 0-cut distance to the crisp base
    singleton is constantly |far - base|.
    """
    collapse_count(space, count, base, far)
    # cuts are immutable, so every member shares the same two; dedup keeps
    # the base point first, so core is a prefix of pair and, with 1 > 1/n,
    # every member is a valid step set without make_fuzzy checking it again;
    # member n's memberships are 1 and 1/n, cut to len(pair) (1 if far ~ base)
    points = _axis_points(space, [base, far])
    core, pair = finite_set(space, points[:1]), finite_set(space, points)
    values = np.column_stack([np.ones(count), 1.0 / np.arange(1, count + 1)])[:, :len(pair)]
    values.flags.writeable = False
    members = [_prefix_fuzzy(((1.0, core), (1.0 / n, pair)) if n > 1 else ((1.0, pair),), values[n - 1])
               for n in range(1, count + 1)]
    names = [f"c[{n}]" for n in range(1, count + 1)]
    params = tuple(1.0 / n for n in range(1, count + 1))
    return fuzzy_family(members, names, GeneratorTag("collapse", params))


def crisp_interval(space: MetricSpace, low: float, high: float, step: float = 0.01) -> StepFuzzySet:
    """Crisp set sampling the interval [low, high] on the first axis at the
    given step (endpoint included)."""
    _require_euclidean(space)
    low, high, step = real("'low'", low), real("'high'", high), real("'step'", step)
    if high < low or step <= 0:
        raise InputError("need low <= high and step > 0")
    n = _grid_steps((high - low) / step)
    _check_size(space, 1, n + 2)
    xs = [low + k * step for k in range(n + 1)]
    if xs[-1] < high - 1e-12:
        xs.append(high)
    return crisp(space, _axis_points(space, xs))


def crisp_interval_count(space: MetricSpace, low: float = 0.3, high: float = 1.0, step: float = 0.01) -> int:
    """Check the parameters of crisp_interval_family: its member count. The
    widest interval [0, x] holds the points of every member: its grid up to
    n*step and x itself."""
    _require_euclidean(space)
    low, high, step = real("'low'", low), real("'high'", high), real("'step'", step)
    if not (0.0 <= low < high and step > 0):
        raise InputError("need 0 <= low < high and step > 0")
    count = _grid_steps((high - low) / step)
    if count < 1:
        raise InputError(f"the grid ({low}, {high}] at step {step} holds no point")
    x = low + count * step
    widest = _grid_steps(x / step)
    _check_size(space, count, widest + 2)
    space.point_array(_axis_points(space, [0.0 + widest * step, x]))
    return count


def crisp_interval_family(
    space: MetricSpace, low: float = 0.3, high: float = 1.0, step: float = 0.01
) -> FuzzyFamily:
    """Discretized intervals [0, x] for x on the grid (low, high] at `step`, named iv[fmt(x)]."""
    count = crisp_interval_count(space, low, high, step)
    low, step = float(low), float(step)
    xs = [low + k * step for k in range(1, count + 1)]
    members = [crisp_interval(space, 0.0, x, step) for x in xs]
    names = [f"iv[{fmt(x)}]" for x in xs]
    return fuzzy_family(members, names, GeneratorTag("crisp_intervals", tuple(xs)))


class _PCG64Draws:
    """numpy's scalar draws from a Generator on PCG64 or PCG64DXSM, read
    bit for bit from bulk raw words of its bit generator, a chunk at a time.

    `uniform` reads a double from the top 53 bits of a word; `integers`
    uses Lemire's rejection on 32-bit halves, the low half of a word first
    and its high half buffered across calls as the bit generator buffers
    it, or on whole words for a wider range. `reserve(k)` reserves k doubles
    that `close` computes in one pass; `close` also leaves the generator
    where the scalar draws would have left it. That takes a bit generator
    whose `advance` counts raw words: Philox's counts blocks, SFC64 has
    none, and MT19937's raw words are 32 bits wide.
    """

    CHUNK = 256

    def __init__(self, rng) -> None:
        if not (isinstance(rng, np.random.Generator)
                and isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM))):
            raise InputError(f"'rng' must be a numpy Generator on PCG64 or PCG64DXSM, as "
                             f"np.random.default_rng gives, got {rng!r}")
        self._bits, self._state = rng.bit_generator, rng.bit_generator.state
        self._has_half, self._half = self._state["has_uint32"], self._state["uinteger"]
        self._chunks, self._words, self._base, self._read = [], [], -self.CHUNK, 0
        self._reserved = array("q")  # the word of each reserved double

    def _fetch(self, n: int) -> None:
        while len(self._chunks) * self.CHUNK < n:
            self._chunks.append(self._bits.random_raw(self.CHUNK))

    def _word(self) -> int:
        i = self._read - self._base
        if i >= self.CHUNK:
            self._fetch(self._read + 1)
            self._base = (len(self._chunks) - 1) * self.CHUNK
            self._words, i = self._chunks[-1].tolist(), self._read - self._base
        self._read += 1
        return self._words[i]

    def _half_word(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        w = self._word()
        self._has_half, self._half = 1, w >> 32
        return w & 0xFFFFFFFF

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._word() >> 11) * 2**-53)

    def integers(self, low: int, high: int) -> int:
        r = high - 1 - low
        if r == 0:
            return low
        bits, draw = (32, self._half_word) if r <= 0xFFFFFFFF else (64, self._word)
        mask = (1 << bits) - 1
        threshold = (mask - r) % (r + 1)
        m = draw() * (r + 1)
        while m & mask < threshold:
            m = draw() * (r + 1)
        return low + (m >> bits)

    def reserve(self, k: int) -> None:
        self._reserved.extend(range(self._read, self._read + k))
        self._read += k

    def close(self, low: float, high: float) -> np.ndarray:
        """The reserved doubles in [low, high), in order."""
        self._fetch(self._read)
        self._bits.state = self._state
        self._bits.advance(self._read)  # which clears the half buffer
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        self._bits.state = state
        words = np.concatenate(self._chunks)[np.frombuffer(self._reserved, dtype=np.int64)]
        return low + (high - low) * ((words >> 11) * 2**-53)


def _random_members(space: MetricSpace, rng: np.random.Generator, count: int, box: tuple[float, float],
                    max_levels: int, max_points: int) -> list[StepFuzzySet]:
    """`count` random step fuzzy sets with cuts inside the box, drawn one
    after another from rng, as its scalar draws would draw them, and built
    in one pass.

    Levels below 1.0 are drawn in (0.05, 0.95) with pairwise gaps of at least
    0.02; a level may add no new points, which keeps non-platform stored
    levels in the mix.
    """
    lo, hi = _check_box(box)
    draws = _PCG64Draws(rng)
    members, sizes = [], []
    for _ in range(count):
        n_levels = draws.integers(1, max_levels + 1)
        alphas = [1.0]
        for _ in range(_RANDOM_LEVELS - 1):
            if len(alphas) == n_levels:
                break
            a = draws.uniform(0.05, 0.95)
            if all(abs(a - b) >= 0.02 for b in alphas):
                alphas.append(a)
        alphas = [1.0] + sorted(alphas[1:], reverse=True)
        end = 0
        for i in range(len(alphas)):
            cap = min(2, max_points - end)
            n_new = draws.integers(1 if i == 0 else 0, cap + 1) if cap > 0 else 0
            draws.reserve(n_new * space.dim)
            sizes.append(n_new)
            end += n_new
        members.append((alphas, end))
    # keep-first dedup within each member keeps of each prefix of it what
    # the prefix alone keeps, so every cut is a prefix of the member's
    # support and the set is valid as built
    pts = draws.close(lo, hi).reshape(-1, space.dim)
    kept = _dedup_runs(space, pts, np.array([end for _, end in members]))
    supp, values = pts[kept], np.repeat([a for alphas, _ in members for a in alphas], sizes)[kept]
    supp.flags.writeable = values.flags.writeable = False
    kept_before = np.concatenate([[0], np.cumsum(kept)])[np.cumsum([0] + sizes)].tolist()
    out, level = [], 0
    for alphas, _ in members:
        start = size = kept_before[level]
        levels = []
        for a in alphas:
            level += 1
            if kept_before[level] > size:
                size = kept_before[level]
                cut = FiniteSet(space=space, array=supp[start:size])
            levels.append((a, cut))
        out.append(_prefix_fuzzy(tuple(levels), values[start:size]))
    return out


def random_fuzzy(
    space: MetricSpace,
    rng: np.random.Generator,
    box: tuple[float, float] = (0.0, 1.0),
    max_levels: int = 4,
    max_points: int = 6,
) -> StepFuzzySet:
    """One random step fuzzy set inside the box, checked as random_family is, from rng, a Generator on
    PCG64 or PCG64DXSM; see _random_members."""
    random_count(space, 1, 0, box, max_levels, max_points)
    return _random_members(space, rng, 1, box, max_levels, max_points)[0]


def random_count(
    space: MetricSpace,
    count: int,
    seed: int = 0,
    box: tuple[float, float] = (0.0, 1.0),
    max_levels: int = 4,
    max_points: int = 6,
) -> int:
    """Check the parameters of random_family: its member count."""
    _require_euclidean(space)
    check_integer("'count'", count, 1)
    check_integer("'seed'", seed, 0)
    _check_box(box)
    check_integer("'max_levels'", max_levels, 1, MAX_LEVELS)
    check_integer("'max_points'", max_points, 1)
    _check_size(space, count, min(max_points, 2 * min(max_levels, _RANDOM_LEVELS)))
    return count


def random_family(
    space: MetricSpace,
    count: int,
    seed: int = 0,
    box: tuple[float, float] = (0.0, 1.0),
    max_levels: int = 4,
    max_points: int = 6,
) -> FuzzyFamily:
    """Seeded family of random step fuzzy sets inside the box."""
    random_count(space, count, seed, box, max_levels, max_points)
    members = _random_members(space, np.random.default_rng(seed), count, box, max_levels, max_points)
    names = [f"r[{k + 1}]" for k in range(count)]
    params = tuple(float(k + 1) for k in range(count))
    return fuzzy_family(members, names, GeneratorTag("random", params))


def contracting_sequence(limit: StepFuzzySet, count: int, scale: float = 0.02) -> list[StepFuzzySet]:
    """Sequence converging to `limit`: member n contracts every cut point
    toward the support centroid by a factor scale/n, keeping the level
    structure. Every point moves by at most (scale/n) * diameter, so all
    levelwise, endograph and sendograph distances to the limit are bounded
    by that amount."""
    _require_euclidean(limit.space)
    check_integer("'count'", count, 1)
    scale = real("'scale'", scale)
    if not (math.isfinite(scale) and scale >= 0):
        raise InputError(f"'scale' must be finite and >= 0, got {scale}")
    space = limit.space
    supp = support(limit)
    center = supp.array.mean(axis=0)
    out = []
    for n in range(1, count + 1):
        t = scale / n
        levels = []
        for a, cut in limit.levels:
            moved = cut.array + t * (center - cut.array)
            levels.append((a, finite_set(space, moved)))
        out.append(make_fuzzy(levels))
    return out
