"""Endograph and sendograph metrics, levelwise profiles and convergence
diagnostics.

The endograph of u is {(x,t) : t <= u(x)} in space x [0,1], which includes
the whole zero sheet space x {0}; the sendograph is its restriction to
supp(u) x [0,1]. Both are compact for step fuzzy sets, and the Hausdorff
distance between them under the lifted metric collapses to a closed form
over support points:

  directed(u -> v) = max over x in supp(u) of
      min( u(x),  min over y in supp(v) of d(x,y) + max(0, u(x) - v(y)) )

with the outer truncation at u(x) present only for the endograph variant
(matching down to the shared zero sheet caps the cost at the height of the
source point). The sendograph variant drops the truncation because
sendographs carry no zero sheet outside the supports.

The closed forms are validated against sampling oracles that enumerate
lifted grid points of both graphs and compute the Hausdorff distance of the
samples directly; the oracle value is within one resolution step of the true
metric, so closed form and oracle must agree within twice the resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .certificates import (
    Certificate,
    Verdict,
    check_window,
    combine_verdicts,
    tail_verdict,
)
from .common import InputError, fmt
from .fuzzy import (
    StepFuzzySet,
    alpha_cut,
    memberships,
    platform_points,
    strict_cut_closure,
    support,
)
from .sets import FiniteSet, directed_hausdorff, hausdorff, union_family
from .space import dist_matrix


def _check_same_space(u: StepFuzzySet, v: StepFuzzySet) -> None:
    if u.space != v.space:
        raise InputError("fuzzy sets live in different spaces")


def _graph_distances(u: StepFuzzySet, v: StepFuzzySet) -> tuple[float, float]:
    """Endograph and sendograph distances from one support-to-support
    matrix. Each direction reads the matrix with its source points as rows
    (the reverse one through the transpose: d(x, y) and d(y, x) agree bit for
    bit in Euclidean mode and for a symmetric matrix, and within TOL for any
    finite matrix that passes validate_metric), and the endograph truncates
    the same inner minimum that the sendograph takes whole."""
    _check_same_space(u, v)
    mu = u.support_memberships
    mv = v.support_memberships
    d = dist_matrix(u.space, support(u).array, support(v).array)
    inner_u = (d + np.maximum(0.0, mu[:, None] - mv[None, :])).min(axis=1)
    inner_v = (d.T + np.maximum(0.0, mv[:, None] - mu[None, :])).min(axis=1)
    end = max(np.minimum(mu, inner_u).max(), np.minimum(mv, inner_v).max())
    send = max(inner_u.max(), inner_v.max())
    return float(end), float(send)


def endograph_metric(u: StepFuzzySet, v: StepFuzzySet) -> float:
    """Hausdorff distance between the endographs under the lifted metric."""
    return _graph_distances(u, v)[0]


def sendograph_metric(u: StepFuzzySet, v: StepFuzzySet) -> float:
    """Hausdorff distance between the sendographs under the lifted metric."""
    return _graph_distances(u, v)[1]


def _check_resolution(resolution: float) -> None:
    if not 0.0 < resolution <= 0.1:
        raise InputError(f"resolution {resolution} outside (0, 0.1]")


def _top_indices(u: StepFuzzySet, bases: FiniteSet, resolution: float) -> np.ndarray:
    """Index of the highest sample k with k*resolution <= membership, per base
    point (within 1e-9 slack against float division fuzz)."""
    return np.floor(memberships(u, bases.array) / resolution + 1e-9).astype(int)


def _directed_sampled(k_src: np.ndarray, k_tgt: np.ndarray, d: np.ndarray, resolution: float) -> float:
    """Directed Hausdorff distance between two sampled graphs.

    Column i of the source holds lifted samples (x_i, k*resolution) for
    k = 0..k_src[i]; likewise for the target. Both columns share the grid
    step, so the nearest target sample in column j to source level k sits at
    index min(k, k_tgt[j]); the level gap is max(k - k_tgt[j], 0)*resolution.
    That cost is nondecreasing in k, and so is its minimum over j, so the
    maximum over the samples of column i is reached at its top, k = k_src[i].
    """
    gap = np.maximum(k_src[:, None] - k_tgt[None, :], 0) * resolution
    return float((d + gap).min(axis=1).max())


def endograph_oracle(u: StepFuzzySet, v: StepFuzzySet, resolution: float) -> float:
    """Sampled endograph distance: brute force over lifted grid points.

    Each point x of the union of both supports contributes samples
    (x, k*resolution) for every k with k*resolution <= membership(x); points
    outside a support contribute that set's zero-sheet sample (x, 0). The
    value is within `resolution` of the true endograph metric.
    """
    _check_same_space(u, v)
    _check_resolution(resolution)
    bases = union_family([support(u), support(v)])
    ku = _top_indices(u, bases, resolution)
    kv = _top_indices(v, bases, resolution)
    d = dist_matrix(u.space, bases.array, bases.array)
    return max(
        _directed_sampled(ku, kv, d, resolution),
        _directed_sampled(kv, ku, d, resolution),
    )


def sendograph_oracle(u: StepFuzzySet, v: StepFuzzySet, resolution: float) -> float:
    """Sampled sendograph distance; samples only over each set's own support."""
    _check_same_space(u, v)
    _check_resolution(resolution)
    su, sv = support(u), support(v)
    ku = _top_indices(u, su, resolution)
    kv = _top_indices(v, sv, resolution)
    d = dist_matrix(u.space, su.array, sv.array)
    return max(
        _directed_sampled(ku, kv, d, resolution),
        _directed_sampled(kv, ku, d.T, resolution),
    )


def levelwise_distance(u: StepFuzzySet, v: StepFuzzySet, alpha: float) -> float:
    """Hausdorff distance between the alpha-cuts, alpha in (0,1]."""
    _check_same_space(u, v)
    return hausdorff(alpha_cut(u, alpha), alpha_cut(v, alpha))


def default_alpha_grid(limit: StepFuzzySet | None = None, n: int = 101) -> tuple[float, ...]:
    """n evenly spaced levels in (0,1); with a limit given, grid points that
    hit one of its platform levels are bisected toward the previous grid
    point until they sit in a non-platform gap."""
    if n < 1:
        raise InputError(f"grid size {n} must be positive")
    base = [k / (n + 1) for k in range(1, n + 1)]
    if limit is None:
        return tuple(base)
    plat = platform_points(limit)
    out: list[float] = []
    for i, g in enumerate(base):
        lo = base[i - 1] if i > 0 else 0.0
        val = g
        while any(abs(val - p) <= 1e-12 for p in plat):
            val = (val + lo) / 2.0
        out.append(val)
    return tuple(out)


@dataclass(frozen=True)
class LevelProfile:
    """Per-level Hausdorff distance series across a fuzzy-set sequence."""

    alphas: tuple[float, ...]
    distances: tuple[tuple[float, ...], ...]
    window: int
    tol: float
    alpha_verdicts: tuple[Verdict, ...]
    verdict: Verdict


def _validated_alphas(alphas, limit, necessity: bool) -> tuple[float, ...]:
    if alphas is None:
        return default_alpha_grid(limit)
    alphas = tuple(float(a) for a in alphas)
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise InputError(f"alpha {a} outside (0,1)")
    if necessity:
        plat = platform_points(limit)
        for a in alphas:
            if any(abs(a - p) <= 1e-12 for p in plat):
                raise InputError(f"alpha {fmt(a)} is a platform point of the limit")
    return alphas


def levelwise_profile(
    seq: Sequence[StepFuzzySet],
    limit: StepFuzzySet,
    alphas: Sequence[float] | None = None,
    window: int | None = None,
    tol: float = 1e-3,
    necessity: bool = False,
) -> LevelProfile:
    """Distance series H(cut(u_n, a), cut(limit, a)) per level with tail
    verdicts.

    With no explicit alphas the default grid avoiding the limit's platform
    levels is used. In necessity mode explicit alphas colliding with a
    platform level of the limit are rejected, naming the colliding alpha.
    A cut map changes only at stored levels, so each distinct (member cut,
    limit cut) pair is measured once.
    """
    if not seq:
        raise InputError("empty sequence")
    for u in seq:
        _check_same_space(u, limit)
    alphas = _validated_alphas(alphas, limit, necessity)
    window = check_window(len(seq), window)
    dist = cache(hausdorff)
    distances = []
    verdicts = []
    for a in alphas:
        cut_lim = alpha_cut(limit, a)
        series = tuple(dist(alpha_cut(u, a), cut_lim) for u in seq)
        v, _ = tail_verdict(series, window, tol)
        distances.append(series)
        verdicts.append(v)
    return LevelProfile(
        alphas=alphas,
        distances=tuple(distances),
        window=window,
        tol=tol,
        alpha_verdicts=tuple(verdicts),
        verdict=combine_verdicts(verdicts),
    )


@dataclass(frozen=True)
class GammaDiagnostic:
    """Two-sided per-level sandwich evidence for endograph set convergence.

    deficits[i][n] measures how far the strict cut of the limit is from being
    reached by cut(u_n, a); excesses[i][n] measures how far cut(u_n, a)
    sticks out of cut(limit, a). The sandwich is asymmetric on purpose: the
    inner side is measured against the strict cut, the outer side against
    the full cut.
    """

    alphas: tuple[float, ...]
    deficits: tuple[tuple[float, ...], ...]
    excesses: tuple[tuple[float, ...], ...]
    window: int
    tol: float
    alpha_verdicts: tuple[Verdict, ...]
    verdict: Verdict


def gamma_diagnostic(
    seq: Sequence[StepFuzzySet],
    limit: StepFuzzySet,
    alphas: Sequence[float] | None = None,
    window: int | None = None,
    tol: float = 1e-3,
) -> GammaDiagnostic:
    """Per-level sandwich tails; platform collisions are allowed here since
    the sandwich holds at every level. Each distinct pair of cuts is measured
    once."""
    if not seq:
        raise InputError("empty sequence")
    for u in seq:
        _check_same_space(u, limit)
    alphas = _validated_alphas(alphas, limit, necessity=False)
    window = check_window(len(seq), window)
    directed = cache(directed_hausdorff)
    deficits = []
    excesses = []
    verdicts = []
    for a in alphas:
        inner = strict_cut_closure(limit, a)
        outer = alpha_cut(limit, a)
        cuts = [alpha_cut(u, a) for u in seq]
        d_series = tuple(directed(inner, c) for c in cuts)
        e_series = tuple(directed(c, outer) for c in cuts)
        _, m1 = tail_verdict(d_series, window, tol)
        _, m2 = tail_verdict(e_series, window, tol)
        v, _ = tail_verdict((max(m1, m2),), 1, tol)
        deficits.append(d_series)
        excesses.append(e_series)
        verdicts.append(v)
    return GammaDiagnostic(
        alphas=alphas,
        deficits=tuple(deficits),
        excesses=tuple(excesses),
        window=window,
        tol=tol,
        alpha_verdicts=tuple(verdicts),
        verdict=combine_verdicts(verdicts),
    )


def send_decomposition_check(
    seq: Sequence[StepFuzzySet],
    limit: StepFuzzySet,
    window: int | None = None,
    tol: float = 1e-3,
) -> Certificate:
    """Check the verdict identity: sendograph convergence holds exactly when
    endograph convergence and 0-cut convergence both hold.

    Computes the three tails and PASSes iff send-verdict equals
    (end-verdict AND cut0-verdict); INCONCLUSIVE if any component tail is
    inconclusive.
    """
    if not seq:
        raise InputError("empty sequence")
    for u in seq:
        _check_same_space(u, limit)
    window = check_window(len(seq), window)
    end_series, send_series = zip(*(_graph_distances(u, limit) for u in seq))
    cut0_lim = support(limit)
    cut0_series = tuple(hausdorff(support(u), cut0_lim) for u in seq)
    v_send, _ = tail_verdict(send_series, window, tol)
    v_end, _ = tail_verdict(end_series, window, tol)
    v_cut0, _ = tail_verdict(cut0_series, window, tol)
    evidence = {"send": send_series, "end": end_series, "cut0": cut0_series}
    note = f"send={v_send.value} end={v_end.value} cut0={v_cut0.value}"
    if Verdict.INCONCLUSIVE in (v_send, v_end, v_cut0):
        return Certificate(
            kind="SEND_DECOMP", verdict=Verdict.INCONCLUSIVE, evidence=evidence, note=note
        )
    expected = Verdict.PASS if (v_end is Verdict.PASS and v_cut0 is Verdict.PASS) else Verdict.FAIL
    if v_send is expected:
        return Certificate(kind="SEND_DECOMP", verdict=Verdict.PASS, evidence=evidence, note=note)
    return Certificate(
        kind="SEND_DECOMP",
        verdict=Verdict.FAIL,
        evidence=evidence,
        witness=f"send tail is {v_send.value} but end AND cut0 gives {expected.value}",
        note=note,
    )
