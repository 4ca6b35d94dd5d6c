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

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .certificates import Certificate, Verdict, tail_certificate
from .common import InputError, check_grid_size, fmt
from .fuzzy import (
    StepFuzzySet,
    alpha_cut,
    memberships,
    platform_points,
    support,
)
from .sets import FiniteSet, union_family
from .space import MetricSpace, dist_matrix


def _check_same_space(u: StepFuzzySet, v: StepFuzzySet) -> None:
    if u.space != v.space:
        raise InputError("fuzzy sets live in different spaces")


def _check_sequence(seq: Sequence[StepFuzzySet], limit: StepFuzzySet) -> None:
    if not seq:
        raise InputError("empty sequence")
    for u in seq:
        _check_same_space(u, limit)


def _segment_extrema(
    space: MetricSpace,
    blocks: Sequence[np.ndarray],
    target: np.ndarray,
    lifts: tuple[Sequence[np.ndarray], np.ndarray] | None = None,
    transposed: bool = False,
) -> np.ndarray:
    """Directed distances between each of many point arrays and one target.

    The blocks are concatenated into row chunks of at most
    space.block_rows(len(target)) rows (a block larger than that is a chunk
    of its own), each chunk is measured against the target by one dist_matrix
    call, and each block's values come from segment reductions over its rows.
    Row 0 of the result holds, per block, the max over its points x of the
    min over the target points y of c(x, y); row 1 the max over y of the min
    over x of c'(y, x). The kernel is read as d(x, y), or with `transposed` as
    d(y, x) from dist_matrix(target, block), so each direction can keep the
    orientation of its per-pair form. With lifts = (block heights, target
    heights), c(x, y) adds max(0, h(x) - h(y)) to the distance and c'(y, x)
    adds max(0, h(y) - h(x)), as in the graph closed forms, and rows 2 and 3
    repeat rows 0 and 1 with each inner minimum capped at its source height.
    """
    sizes = np.fromiter(map(len, blocks), np.intp, len(blocks))
    ends = np.cumsum(sizes)
    cap = space.block_rows(len(target))
    out = np.empty((2 if lifts is None else 4, len(blocks)))
    lo = 0
    while lo < len(blocks):
        base = ends[lo] - sizes[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        starts = ends[lo:hi] - sizes[lo:hi] - base
        rows = np.concatenate(blocks[lo:hi])
        d = dist_matrix(space, target, rows).T if transposed else dist_matrix(space, rows, target)
        if lifts is None:
            inner, inner_back = d.min(axis=1), np.minimum.reduceat(d, starts, axis=0)
        else:
            h, ht = np.concatenate(lifts[0][lo:hi]), lifts[1]
            inner = (d + np.maximum(0.0, h[:, None] - ht[None, :])).min(axis=1)
            inner_back = np.minimum.reduceat(d + np.maximum(0.0, ht[None, :] - h[:, None]), starts, axis=0)
            out[2, lo:hi] = np.maximum.reduceat(np.minimum(h, inner), starts)
            out[3, lo:hi] = np.minimum(ht, inner_back).max(axis=1)
        out[0, lo:hi] = np.maximum.reduceat(inner, starts)
        out[1, lo:hi] = inner_back.max(axis=1)
        lo = hi
    return out


def _distinct(items) -> tuple[list, list[int]]:
    """The distinct items in first-occurrence order and each item's index
    among them."""
    index: dict = {}
    ids = [index.setdefault(x, len(index)) for x in items]
    return list(index), ids


def graph_series(
    seq: Sequence[StepFuzzySet], limit: StepFuzzySet, transposed: bool = False
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Endograph and sendograph distance from each member to the limit.

    One lifted pass of _segment_extrema over the distinct members' supports
    against the limit support: each direction reads the kernel with the
    member points as rows, as the one-pair metric(member, limit) does, or
    with `transposed` the limit points, as metric(limit, member) does; the
    endograph caps the same inner minimum that the sendograph takes whole.
    """
    _check_sequence(seq, limit)
    members, ids = _distinct(seq)
    ext = _segment_extrema(
        limit.space,
        [support(u).array for u in members],
        support(limit).array,
        ([u.support_memberships for u in members], limit.support_memberships),
        transposed,
    )
    end = np.maximum(ext[2], ext[3]).tolist()
    send = np.maximum(ext[0], ext[1]).tolist()
    return tuple(map(end.__getitem__, ids)), tuple(map(send.__getitem__, ids))


def endograph_metric(u: StepFuzzySet, v: StepFuzzySet) -> float:
    """Hausdorff distance between the endographs under the lifted metric."""
    return graph_series([u], v)[0][0]


def sendograph_metric(u: StepFuzzySet, v: StepFuzzySet) -> float:
    """Hausdorff distance between the sendographs under the lifted metric."""
    return graph_series([u], v)[1][0]


def endograph_convergence(
    seq: Sequence[StepFuzzySet],
    limit: StepFuzzySet,
    window: int | None = None,
    tol: float = 1e-3,
) -> Certificate:
    """Tail decision on the endograph distance from each member of a
    sequence to the limit: one part, "end", whose series is evidence "end"."""
    series = graph_series(seq, limit)[0]
    return tail_certificate("END_TAIL", [("end", {"end": series})], window, tol)


def _mirrored(upper: np.ndarray) -> np.ndarray:
    """A square matrix filled above the diagonal, copied below it."""
    i, j = np.triu_indices(len(upper), 1)
    upper[j, i] = upper[i, j]
    return upper


def graph_matrices(sets: Sequence[StepFuzzySet]) -> tuple[np.ndarray, np.ndarray]:
    """The endograph and the sendograph matrix of metric_matrix, both from
    one lifted pass per column."""
    end, send = np.zeros((len(sets), len(sets))), np.zeros((len(sets), len(sets)))
    for j in range(1, len(sets)):
        end[:j, j], send[:j, j] = graph_series(sets[:j], sets[j])
    return _mirrored(end), _mirrored(send)


def metric_matrix(sets: Sequence[StepFuzzySet], kind: str, alpha: float | None = None) -> np.ndarray:
    """Matrix of one metric over a list of fuzzy sets of one space: "end",
    "send" or "level", the Hausdorff distance between the alpha-cuts.

    Column j is one batched pass of sets[:j] against sets[j], so entry
    (i, j) with i < j reads the kernel as the one-pair metric(sets[i],
    sets[j]) does, bit for bit, and entry (j, i) repeats it.
    """
    if kind in ("end", "send"):
        return graph_matrices(sets)[kind == "send"]
    if kind != "level":
        raise InputError(f"unknown metric kind {kind!r}")
    if alpha is None:
        raise InputError("the level metric needs an alpha")
    cuts = [alpha_cut(u, alpha).array for u in sets]
    out = np.zeros((len(sets), len(sets)))
    for j in range(1, len(sets)):
        _check_sequence(sets[:j], sets[j])
        out[:j, j] = _segment_extrema(sets[j].space, cuts[:j], cuts[j]).max(axis=0)
    return _mirrored(out)


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


def default_alpha_grid(limit: StepFuzzySet | None = None, n: int = 101) -> tuple[float, ...]:
    """n evenly spaced levels in (0,1); with a limit given, grid points that
    hit one of its platform levels are bisected toward the previous grid
    point until they sit in a non-platform gap, or an InputError names the
    grid point once a halving no longer moves it."""
    check_grid_size(n)
    base = [k / (n + 1) for k in range(1, n + 1)]
    if limit is None:
        return tuple(base)
    plat = platform_points(limit)
    out: list[float] = []
    for i, g in enumerate(base):
        lo = base[i - 1] if i > 0 else 0.0
        val = g
        while any(abs(val - p) <= 1e-12 for p in plat):
            if (val + lo) / 2.0 == val:
                raise InputError(f"default alpha grid point {i} ({fmt(g)}) cannot leave the limit's platform levels")
            val = (val + lo) / 2.0
        out.append(val)
    return tuple(out)


class _CutTable:
    """The cut maps of some fuzzy sets as one table: their distinct cuts (by
    identity), and per set its stored levels, zero-padded, with the index of
    each level's cut among the distinct cuts. Row k of `levels` holds every
    set's k-th level."""

    def __init__(self, sets: Sequence[StepFuzzySet]) -> None:
        index: dict[FiniteSet, int] = {}
        rows = [[(a, index.setdefault(cut, len(index))) for a, cut in u.levels] for u in sets]
        pad = [(0.0, 0)] * max(map(len, rows))
        table = np.array([r + pad[len(r):] for r in rows]).transpose(2, 1, 0)
        self.cuts = list(index)
        self.levels = np.ascontiguousarray(table[0])
        self._ids = table[1].astype(np.intp).T.ravel()
        self._first = np.arange(len(rows)) * len(pad)

    def at(self, alpha: float, strict: bool = False) -> np.ndarray:
        """Index of each set's cut at alpha in (0,1): the cut at the smallest
        stored level >= alpha, as alpha_cut takes it, or > alpha with
        `strict`, as strict_cut_closure does. Levels decrease, so that cut
        sits at the count of qualifying levels; the padding never qualifies."""
        count = (self.levels > alpha if strict else self.levels >= alpha).sum(axis=0)
        return self._ids[self._first + count - 1]


def _level_series(
    seq: Sequence[StepFuzzySet],
    limit: StepFuzzySet,
    alphas: tuple[float, ...],
    sides: Sequence[tuple[Callable[[list[np.ndarray], np.ndarray], np.ndarray], bool]],
) -> list[list[tuple[float, ...]]]:
    """For each side (measure, strict) and each alpha, the series
    measure(member cut at alpha, limit cut at alpha) over the members, the
    limit cut being the strict one when `strict`.

    A first pass over the grid marks which distinct member cuts meet which
    limit cut; `measure` then takes those cuts' arrays and the limit cut's
    array, once per limit cut, and returns one value per cut. A second pass
    reads the series through the table: entries share the float objects of
    the distinct values, and no (grid x members) array is built.
    """
    members, lim = _CutTable(seq), _CutTable([limit])

    def rows():
        for a in alphas:
            yield members.at(a), [int(lim.at(a, strict)[0]) for _, strict in sides]

    meets = np.zeros((len(sides), len(lim.cuts), len(members.cuts)), dtype=bool)
    for ids, ks in rows():
        for side, k in enumerate(ks):
            meets[side, k, ids] = True
    values = np.empty(meets.shape, dtype=object)
    for side, (measure, _) in enumerate(sides):
        for k, target in enumerate(lim.cuts):
            sel = np.flatnonzero(meets[side, k])
            if sel.size:
                found = measure([members.cuts[i].array for i in sel], target.array)
                values[side, k, sel] = found.astype(object)
    out: list[list[tuple[float, ...]]] = [[] for _ in sides]
    for ids, ks in rows():
        for side, k in enumerate(ks):
            out[side].append(tuple(values[side, k, ids].tolist()))
    return out


def _validated_alphas(alphas, limit, necessity: bool) -> tuple[float, ...]:
    if alphas is None:
        return default_alpha_grid(limit)
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise InputError("empty alpha grid")
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
) -> Certificate:
    """Distance series H(cut(u_n, a), cut(limit, a)) per level with tail
    verdicts: one part per alpha, keyed and with its series named
    "alpha=<a>". The evidence also holds the grid ("alpha_grid") and the
    limit's platform levels ("platform"), which level convergence need not
    reach.

    With no explicit alphas the default grid avoiding the limit's platform
    levels is used. In necessity mode explicit alphas colliding with a
    platform level of the limit are rejected, naming the colliding alpha.
    A cut map changes only at stored levels, so each distinct (member cut,
    limit cut) pair is measured once.
    """
    _check_sequence(seq, limit)
    alphas = _validated_alphas(alphas, limit, necessity)
    space = limit.space
    (distances,) = _level_series(seq, limit, alphas, [
        (lambda cuts, t: _segment_extrema(space, cuts, t).max(axis=0), False),
    ])
    keys = [f"alpha={fmt(a)}" for a in alphas]
    return tail_certificate(
        "LEVEL_PROFILE", [(k, {k: s}) for k, s in zip(keys, distances)], window, tol,
        alpha_grid=alphas, platform=platform_points(limit),
    )


def gamma_diagnostic(
    seq: Sequence[StepFuzzySet],
    limit: StepFuzzySet,
    alphas: Sequence[float] | None = None,
    window: int | None = None,
    tol: float = 1e-3,
) -> Certificate:
    """Two-sided per-level sandwich evidence for endograph set convergence:
    one part per alpha, keyed "alpha=<a>", decided on the larger tail of
    its series "deficit[alpha=<a>]" and "excess[alpha=<a>]"; the evidence
    also holds the grid ("alpha_grid").

    The deficit at member n measures how far the strict cut of the limit is
    from being reached by cut(u_n, a); the excess how far cut(u_n, a) sticks
    out of cut(limit, a). The sandwich is asymmetric on purpose: the inner
    side is measured against the strict cut, the outer side against the full
    cut. Platform collisions are allowed here since the sandwich holds at
    every level. Each directed distance reads the kernel in the orientation
    of directed_hausdorff: deficits as d(strict limit cut, member cut),
    excesses as d(member cut, limit cut). Each distinct pair of cuts is
    measured once."""
    _check_sequence(seq, limit)
    alphas = _validated_alphas(alphas, limit, necessity=False)
    space = limit.space
    deficits, excesses = _level_series(seq, limit, alphas, [
        (lambda cuts, t: _segment_extrema(space, cuts, t, transposed=True)[1], True),
        (lambda cuts, t: _segment_extrema(space, cuts, t)[0], False),
    ])
    parts = [(f"alpha={fmt(a)}", {f"deficit[alpha={fmt(a)}]": d, f"excess[alpha={fmt(a)}]": e})
             for a, d, e in zip(alphas, deficits, excesses)]
    return tail_certificate("GAMMA_SANDWICH", parts, window, tol, alpha_grid=alphas)


def send_decomposition_check(
    seq: Sequence[StepFuzzySet],
    limit: StepFuzzySet,
    window: int | None = None,
    tol: float = 1e-3,
) -> Certificate:
    """Check the verdict identity: sendograph convergence holds exactly when
    endograph convergence and 0-cut convergence both hold.

    Decides the three tails, as the parts "send", "end" and "cut0" with the
    series of the same names, and PASSes iff send-verdict equals
    (end-verdict AND cut0-verdict); INCONCLUSIVE if any component tail is
    inconclusive. The end and send series come from one lifted pass over
    the members, the 0-cut series from one pass over their distinct supports.
    """
    _check_sequence(seq, limit)
    end_series, send_series = graph_series(seq, limit)
    supports, ids = _distinct(support(u) for u in seq)
    cut0 = _segment_extrema(limit.space, [s.array for s in supports], support(limit).array).max(axis=0).tolist()
    tails = tail_certificate("SEND_DECOMP", [
        (key, {key: s}) for key, s in
        (("send", send_series), ("end", end_series), ("cut0", tuple(map(cut0.__getitem__, ids))))
    ], window, tol)
    v_send, v_end, v_cut0 = (p.verdict for p in tails.parts)
    expected = Verdict.PASS if (v_end is Verdict.PASS and v_cut0 is Verdict.PASS) else Verdict.FAIL
    verdict, witness = Verdict.PASS, None
    if Verdict.INCONCLUSIVE in (v_send, v_end, v_cut0):
        verdict = Verdict.INCONCLUSIVE
    elif v_send is not expected:
        verdict = Verdict.FAIL
        witness = f"send tail is {v_send.value} but end AND cut0 gives {expected.value}"
    note = f"send={v_send.value} end={v_end.value} cut0={v_cut0.value}"
    return replace(tails, verdict=verdict, witness=witness, note=note)
