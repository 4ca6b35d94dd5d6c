"""Finite level-step representation of normal upper semi-continuous fuzzy sets.

A StepFuzzySet stores strictly decreasing positive levels with nested finite
cut sets, the first level being 1.0 (normality). Membership lives on the
stored levels only; there is no interpolation between levels, which keeps
alpha-cuts exact and platform points decidable.

As a function of alpha the cut map is constant on the half-open interval
between adjacent stored levels and left-continuous at each stored level, so
every discontinuity of the cut map sits at a stored level, where the limit
from above is the strict cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .common import TOL, InputError, real
from .sets import FiniteSet, _held, finite_set, hausdorff
from .space import MetricSpace

# Sorted ascending tuple of levels in (0,1).
PlatformSet = tuple[float, ...]


@dataclass(frozen=True)
class StepFuzzySet:
    """Levels as (alpha, cut) pairs, alphas strictly decreasing from 1.0.

    Use make_fuzzy (or crisp) to construct; the dataclass itself does not
    re-validate.
    """

    levels: tuple[tuple[float, FiniteSet], ...]

    @property
    def space(self) -> MetricSpace:
        return self.levels[0][1].space

    @cached_property
    def alphas(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.levels)

    @cached_property
    def support_memberships(self) -> np.ndarray:
        """Membership value of every support point, aligned with support order."""
        out = memberships(self, self.levels[-1][1].array)
        out.flags.writeable = False
        return out


def _is_subset(a: FiniteSet, b: FiniteSet) -> bool:
    return bool(_held(a.space, a.array, b.array).all())


def make_fuzzy(levels: Sequence[tuple[float, FiniteSet]]) -> StepFuzzySet:
    """Validated constructor; violations are reported with the offending pair.

    Requirements: each alpha is a real number (not a bool or a string), the
    first is exactly 1.0 with a nonempty cut, alphas are strictly decreasing
    in (0,1], cuts share one space and are nested (each higher-level cut
    contained in every lower-level cut).
    """
    if not levels:
        raise InputError("a fuzzy set needs at least the level 1.0")
    pairs = [(real("level alpha", a), cut) for a, cut in levels]
    if pairs[0][0] != 1.0:
        raise InputError(f"first level must be 1.0, got {pairs[0][0]}")
    space = pairs[0][1].space
    for a, cut in pairs:
        if not 0.0 < a <= 1.0:
            raise InputError(f"level {a} outside (0,1]")
        if not isinstance(cut, FiniteSet):
            raise InputError(f"cut at level {a} is not a FiniteSet")
        if cut.space != space:
            raise InputError(f"cut at level {a} lives in a different space")
        if len(cut) == 0:
            raise InputError(f"empty cut at level {a}")
    for (a_hi, cut_hi), (a_lo, cut_lo) in zip(pairs, pairs[1:]):
        if not a_hi > a_lo:
            raise InputError(f"levels not strictly decreasing at pair ({a_hi}, {a_lo})")
        if not _is_subset(cut_hi, cut_lo):
            raise InputError(
                f"nestedness violated at pair ({a_hi}, {a_lo}): "
                f"cut at {a_hi} is not contained in cut at {a_lo}"
            )
    return StepFuzzySet(levels=tuple(pairs))


def _prefix_fuzzy(levels: tuple[tuple[float, FiniteSet], ...]) -> StepFuzzySet:
    """Unchecked step set of decreasing levels whose cuts are prefixes of the
    deduplicated support: each level is the membership of the points it adds."""
    values: list[float] = []
    for a, cut in levels:
        values += [a] * (len(cut.array) - len(values))
    u = StepFuzzySet(levels=levels)
    u.__dict__["support_memberships"] = out = np.array(values)
    out.flags.writeable = False
    return u


def crisp(space: MetricSpace, points) -> StepFuzzySet:
    """The crisp fuzzy set of a point set: membership 1 on it, 0 elsewhere."""
    return make_fuzzy([(1.0, finite_set(space, points))])


def memberships(u: StepFuzzySet, points: np.ndarray) -> np.ndarray:
    """Membership value at each point of a point array: the highest stored
    level whose cut contains it, 0 outside every cut. One pass over the
    levels from 1.0 down, each level measuring only the points that no
    higher level holds."""
    out = np.zeros(len(points))
    left = np.arange(len(points))
    for a, cut in u.levels:
        held = _held(cut.space, points[left], cut.array)
        out[left[held]] = a
        left = left[~held]
    return out


def alpha_cut(u: StepFuzzySet, alpha: float) -> FiniteSet:
    """The cut {membership >= alpha} for alpha in (0,1]: the stored cut at the
    smallest stored level >= alpha."""
    if not 0.0 < alpha <= 1.0:
        raise InputError(f"alpha {alpha} outside (0,1]")
    for a, cut in reversed(u.levels):
        if a >= alpha:
            return cut
    raise AssertionError("unreachable: level 1.0 always qualifies")


def support(u: StepFuzzySet) -> FiniteSet:
    """The 0-cut: the stored cut at the lowest level (closure is identity on
    finite sets)."""
    return u.levels[-1][1]


def strict_cut_closure(u: StepFuzzySet, alpha: float) -> FiniteSet:
    """Closure of {membership > alpha} for alpha in (0,1): the stored cut at
    the smallest stored level above alpha."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha {alpha} outside (0,1)")
    for a, cut in reversed(u.levels):
        if a > alpha:
            return cut
    raise AssertionError("unreachable: level 1.0 exceeds any alpha < 1")


def platform_points(u: StepFuzzySet) -> PlatformSet:
    """Levels alpha in (0,1) where the strict cut is strictly inside the cut.

    For a step set these are exactly the stored levels in (0,1) whose cut
    gains a point over the next-higher cut.
    """
    out = []
    for i in range(1, len(u.levels)):
        a, cut = u.levels[i]
        if a >= 1.0:
            continue
        _, above = u.levels[i - 1]
        if not _is_subset(cut, above):
            out.append(a)
    return tuple(sorted(out))


def p0_points(u: StepFuzzySet) -> PlatformSet:
    """Levels in (0,1) where the cut map is Hausdorff-discontinuous.

    Computed from the one-sided limits of the step structure: probe the cut
    map strictly between adjacent stored levels on both sides and compare in
    Hausdorff distance. The cut map is constant between stored levels, so
    only stored levels can be discontinuities. Agrees with platform_points
    on every valid StepFuzzySet.
    """
    alphas = u.alphas
    out = []
    for i in range(1, len(u.levels)):
        a, cut = u.levels[i]
        if a >= 1.0:
            continue
        above_probe = (a + alphas[i - 1]) / 2.0
        below = alphas[i + 1] if i + 1 < len(alphas) else 0.0
        below_probe = (a + below) / 2.0
        jump = max(
            hausdorff(alpha_cut(u, above_probe), cut),
            hausdorff(alpha_cut(u, below_probe), cut),
        )
        if jump > TOL:
            out.append(a)
    return tuple(sorted(out))


def same_representation(u: StepFuzzySet, v: StepFuzzySet) -> bool:
    """Exact representation equality: same levels, equal cuts at tolerance."""
    if u.space != v.space or len(u.levels) != len(v.levels):
        return False
    for (a, cut_u), (b, cut_v) in zip(u.levels, v.levels):
        if abs(a - b) > 1e-12:
            return False
        if not (_is_subset(cut_u, cut_v) and _is_subset(cut_v, cut_u)):
            return False
    return True
