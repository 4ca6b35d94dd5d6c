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

from .common import TOL, InputError, check_alpha_grid, real
from .sets import FiniteSet, _segment_extrema, finite_set
from .space import FINITE, MetricSpace, _near

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
    return bool(memberships(StepFuzzySet(levels=((1.0, b),)), a.array).all())


def make_fuzzy(levels: Sequence[tuple[float, FiniteSet]]) -> StepFuzzySet:
    """Validated constructor; violations are reported with the offending pair.

    Requirements: each alpha is a real number (not a bool or a string), the
    first is exactly 1.0, alphas are strictly decreasing in (0,1], cuts
    (nonempty, as every FiniteSet is) share one space and are nested (each
    higher-level cut contained in every lower-level cut).
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
    for (a_hi, cut_hi), (a_lo, cut_lo) in zip(pairs, pairs[1:]):
        if not a_hi > a_lo:
            raise InputError(f"levels not strictly decreasing at pair ({a_hi}, {a_lo})")
        if not _is_subset(cut_hi, cut_lo):
            raise InputError(
                f"nestedness violated at pair ({a_hi}, {a_lo}): "
                f"cut at {a_hi} is not contained in cut at {a_lo}"
            )
    return StepFuzzySet(levels=tuple(pairs))


def _prefix_fuzzy(levels: tuple[tuple[float, FiniteSet], ...], values: np.ndarray) -> StepFuzzySet:
    """Unchecked step set of decreasing levels whose cuts are prefixes of the
    deduplicated support, with `values`, a read-only view, as its support
    memberships: each level is the membership of the points it adds."""
    u = StepFuzzySet(levels=levels)
    u.__dict__["support_memberships"] = values
    return u


def crisp(space: MetricSpace, points) -> StepFuzzySet:
    """The crisp fuzzy set of a point set: membership 1 on it, 0 elsewhere."""
    return make_fuzzy([(1.0, finite_set(space, points))])


def memberships(u: StepFuzzySet, points: np.ndarray) -> np.ndarray:
    """Membership value at each point of a point array: the highest stored
    level whose cut contains it, 0 outside every cut, read from one near-pair
    search against all cuts, as the largest level among a point's pairs. A
    finite search reads whole matrix rows, so it takes each index once, at
    its first and so highest level: a cell depends only on its two indices."""
    cuts = np.concatenate([cut.array for _, cut in u.levels])
    level = np.repeat(u.alphas, [len(cut) for _, cut in u.levels])
    if u.space.mode == FINITE:
        cuts, first = np.unique(cuts, return_index=True)
        level = level[first]
    out = np.zeros(len(points))
    for i, j in _near(u.space, points, cuts, TOL):
        np.maximum.at(out, i, level[j])
    return out


def _stored_cut(u: StepFuzzySet, alpha, strict: bool) -> FiniteSet:
    """The stored cut at the smallest stored level >= alpha, or > alpha when
    `strict`. Alpha is a real number in (0,1], or in (0,1) when `strict`
    (check_alpha_grid's rule), so level 1.0 always qualifies."""
    (alpha,) = check_alpha_grid([alpha], closed=not strict)
    return next(cut for a, cut in reversed(u.levels) if a > alpha or a == alpha and not strict)


def alpha_cut(u: StepFuzzySet, alpha: float) -> FiniteSet:
    """The cut {membership >= alpha} for alpha in (0,1]: _stored_cut."""
    return _stored_cut(u, alpha, False)


def support(u: StepFuzzySet) -> FiniteSet:
    """The 0-cut: the stored cut at the lowest level (closure is identity on
    finite sets)."""
    return u.levels[-1][1]


def strict_cut_closure(u: StepFuzzySet, alpha: float) -> FiniteSet:
    """Closure of {membership > alpha}, alpha in (0,1): strict _stored_cut."""
    return _stored_cut(u, alpha, True)


def platform_points(u: StepFuzzySet) -> PlatformSet:
    """Levels alpha in (0,1) where the strict cut is strictly inside the cut.

    For a step set these are exactly the stored levels in (0,1) whose cut
    gains a point over the next-higher cut.
    """
    out = []
    for i in range(1, len(u.levels)):
        a, cut = u.levels[i]
        _, above = u.levels[i - 1]
        if not _is_subset(cut, above):
            out.append(a)
    return tuple(sorted(out))


def p0_points(u: StepFuzzySet) -> PlatformSet:
    """Levels in (0,1) where the cut map is Hausdorff-discontinuous.

    Computed from the one-sided limits of the step structure. The cut map is
    constant between stored levels, so only stored levels can be
    discontinuities, and it is left-continuous there: a probe strictly
    between a level and the next lower one returns the level's own cut. So
    each level below 1.0 is compared in Hausdorff distance with a probe
    halfway to the next level above. Agrees with platform_points on every
    valid StepFuzzySet.
    """
    out = []
    for i in range(1, len(u.levels)):
        a, cut = u.levels[i]
        above = alpha_cut(u, (a + u.alphas[i - 1]) / 2.0)
        if _segment_extrema(u.space, [above.array], cut.array).max() > TOL:
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
