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

import numpy as np

from .common import TOL, InputError, check_integer, real
from .families import FuzzyFamily, GeneratorTag, fuzzy_family
from .fuzzy import StepFuzzySet, _prefix_fuzzy, crisp, make_fuzzy, support
from .sets import FiniteSet, _keep_first, finite_set
from .space import COORD_MAX, EUCLIDEAN, MetricSpace

# Bounds that let every family of a document that loads be built: members,
# and coordinates of the member point sets, each member counted at the most
# points its kind can give it. numpy draws a random member's level count
# below max_levels + 1, at most 2**63 for an int64, and of at most
# _RANDOM_LEVELS levels each adds at most two points.
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


def _axis_point(space: MetricSpace, x: float) -> tuple[float, ...]:
    return (x,) + (0.0,) * (space.dim - 1)


def _check_axis_points(space: MetricSpace, xs: list[float]) -> None:
    """Reject first-axis points beyond the coordinate bound, as point_array does."""
    space.point_array([_axis_point(space, x) for x in xs])


def translates_count(space: MetricSpace, count: int, start: float = 1.0, step: float = 1.0) -> int:
    """Check the parameters of translates_family: its member count. The
    offsets are monotone in k, so the first and the last bound them all."""
    _require_euclidean(space)
    check_integer("'count'", count, 1)
    _check_size(space, count, 1)
    start, step = real("'start'", start), real("'step'", step)
    _check_axis_points(space, [start + k * step for k in (0, count - 1)])
    return count


def translates_family(
    space: MetricSpace, count: int, start: float = 1.0, step: float = 1.0
) -> FuzzyFamily:
    """Crisp singletons marching along the first axis: start, start+step, ..."""
    translates_count(space, count, start, step)
    start, step = float(start), float(step)
    offsets = [start + k * step for k in range(count)]
    members = [crisp(space, [_axis_point(space, x)]) for x in offsets]
    names = [f"t[{k + 1}]" for k in range(count)]
    return fuzzy_family(members, names, GeneratorTag("translates", tuple(offsets)))


def collapse_count(space: MetricSpace, count: int, base: float = 0.0, far: float = 1.0) -> int:
    """Check the parameters of collapse_family: its member count."""
    _require_euclidean(space)
    check_integer("'count'", count, 1)
    _check_size(space, count, 2)
    _check_axis_points(space, [real("'base'", base), real("'far'", far)])
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
    # every member is a valid step set without make_fuzzy checking it again
    core = finite_set(space, [_axis_point(space, base)])
    pair = finite_set(space, [_axis_point(space, base), _axis_point(space, far)])
    members = [_prefix_fuzzy(((1.0, core), (1.0 / n, pair)) if n > 1 else ((1.0, pair),)) for n in range(1, count + 1)]
    names = [f"c[{n}]" for n in range(1, count + 1)]
    params = tuple(1.0 / n for n in range(1, count + 1))
    return fuzzy_family(members, names, GeneratorTag("collapse", params))


def crisp_interval(space: MetricSpace, low: float, high: float, step: float = 0.01) -> StepFuzzySet:
    """Crisp set sampling the interval [low, high] on the first axis at the
    given step (endpoint included)."""
    _require_euclidean(space)
    if high < low or step <= 0:
        raise InputError("need low <= high and step > 0")
    n = _grid_steps((high - low) / step)
    xs = [low + k * step for k in range(n + 1)]
    if xs[-1] < high - 1e-12:
        xs.append(high)
    return crisp(space, [_axis_point(space, x) for x in xs])


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
    _check_axis_points(space, [0.0 + widest * step, x])
    return count


def crisp_interval_family(
    space: MetricSpace, low: float = 0.3, high: float = 1.0, step: float = 0.01
) -> FuzzyFamily:
    """Discretized intervals [0, x] for x on the grid (low, high] at `step`."""
    count = crisp_interval_count(space, low, high, step)
    low, step = float(low), float(step)
    xs = [low + k * step for k in range(1, count + 1)]
    members = [crisp_interval(space, 0.0, x, step) for x in xs]
    names = [f"iv[{x:.4g}]" for x in xs]
    return fuzzy_family(members, names, GeneratorTag("crisp_intervals", tuple(xs)))


def random_fuzzy(
    space: MetricSpace,
    rng: np.random.Generator,
    box: tuple[float, float] = (0.0, 1.0),
    max_levels: int = 4,
    max_points: int = 6,
) -> StepFuzzySet:
    """One random step fuzzy set with cuts inside the box.

    Levels below 1.0 are drawn in (0.05, 0.95) with pairwise gaps of at least
    0.02; a level may add no new points, which keeps non-platform stored
    levels in the mix.
    """
    _require_euclidean(space)
    lo, hi = _check_box(box)
    n_levels = int(rng.integers(1, max_levels + 1))
    alphas = [1.0]
    for _ in range(_RANDOM_LEVELS - 1):
        if len(alphas) == n_levels:
            break
        a = float(rng.uniform(0.05, 0.95))
        if all(abs(a - b) >= 0.02 for b in alphas):
            alphas.append(a)
    alphas = [1.0] + sorted(alphas[1:], reverse=True)
    blocks, ends = [], [0]
    for i in range(len(alphas)):
        cap = min(2, max_points - ends[-1])
        n_new = int(rng.integers(1 if i == 0 else 0, cap + 1)) if cap > 0 else 0
        blocks.append(rng.uniform(lo, hi, size=(n_new, space.dim)))  # the values scalar draws give
        ends.append(ends[-1] + n_new)
    # keep-first dedup keeps of each prefix what the prefix alone keeps, so
    # every cut is a prefix of the support and the set is valid as built
    pts = np.concatenate(blocks)
    kept = _keep_first(space, pts, TOL)
    kept_before, supp = [0] + kept.cumsum().tolist(), pts[kept]
    levels, size = [], 0
    for a, end in zip(alphas, ends[1:]):
        if kept_before[end] > size:
            size = kept_before[end]
            cut = FiniteSet(space=space, array=supp[:size])
        levels.append((a, cut))
    return _prefix_fuzzy(tuple(levels))


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
    rng = np.random.default_rng(seed)
    members = [random_fuzzy(space, rng, box, max_levels, max_points) for _ in range(count)]
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
