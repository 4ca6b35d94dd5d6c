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

The closed forms are validated against sampling oracles, the Hausdorff
distance between lifted grid samples of both graphs: one lifted reduction
over the top sample of each base point. The oracle value is within one
resolution step of the true metric, so the two must agree within twice it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .certificates import Certificate, Verdict, tail_certificate
from .common import TOL, InputError, check_alpha_grid, check_grid_size, fmt, real
from .fuzzy import (
    StepFuzzySet,
    alpha_cut,
    memberships,
    platform_points,
    support,
)
from .sets import _segment_extrema
from .space import _one_space


def _check_sequence(seq: Sequence[StepFuzzySet], limit: StepFuzzySet) -> None:
    if not seq:
        raise InputError("empty sequence")
    _one_space([limit, *seq], "fuzzy sets")


def _distinct(items) -> tuple[list, list[int]]:
    """The distinct items in first-occurrence order and each item's index
    among them."""
    index: dict = {}
    ids = [index.setdefault(x, len(index)) for x in items]
    return list(index), ids


def _graph_rows(members: Sequence[StepFuzzySet], limit: StepFuzzySet) -> tuple[np.ndarray, np.ndarray]:
    """Endograph and sendograph distance from each member to the limit: one
    lifted pass of _segment_extrema over the members' supports against the
    limit support; the endograph caps the same inner minimum that the
    sendograph takes whole."""
    ext = _segment_extrema(
        limit.space,
        [support(u).array for u in members],
        support(limit).array,
        ([u.support_memberships for u in members], limit.support_memberships),
    )
    return np.maximum(ext[2], ext[3]), np.maximum(ext[0], ext[1])


def graph_series(seq: Sequence[StepFuzzySet], limit: StepFuzzySet) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Endograph and sendograph distance from each member to the limit, one
    _graph_rows pass over the members as given."""
    _check_sequence(seq, limit)
    end, send = _graph_rows(seq, limit)
    return tuple(end.tolist()), tuple(send.tolist())


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


def metric_matrix(sets: Sequence[StepFuzzySet], kind: str, alpha: float | None = None) -> np.ndarray:
    """Matrix of one metric over a list of fuzzy sets of one space: "end",
    "send" or "level", the Hausdorff distance between the alpha-cuts.

    Column j is one batched pass of sets[:j] against sets[j], so entry
    (i, j) with i < j is the one-pair metric(sets[i], sets[j]), bit for bit,
    and entry (j, i) repeats it: d + d.T adds the +0.0 lower triangle.
    """
    if kind not in ("end", "send", "level"):
        raise InputError(f"unknown metric kind {kind!r}")
    if kind == "level":
        if alpha is None:
            raise InputError("the level metric needs an alpha")
        (alpha,) = check_alpha_grid([alpha], closed=True)
        cuts = [alpha_cut(u, alpha).array for u in sets]
    if len(sets) > 1:
        _one_space(sets, "fuzzy sets")
    d = np.zeros((len(sets), len(sets)))
    for j in range(1, len(sets)):
        if kind == "level":
            d[:j, j] = _segment_extrema(sets[j].space, cuts[:j], cuts[j]).max(axis=0)
        else:
            d[:j, j] = _graph_rows(sets[:j], sets[j])[kind == "send"]
    return d + d.T


def _sampled_graphs(u: StepFuzzySet, v: StepFuzzySet, resolution: float, shared: bool) -> float:
    """Hausdorff distance between the sampled graphs of u and v, both on the
    two supports as given when `shared` (min and max ignore copies and order,
    so u and v commute bit for bit), else each on its own support.

    Column x holds the samples (x, k*r) for k = 0..K(x), K(x) the highest
    k with k*r <= membership(x) (within 1e-9 slack against float division
    fuzz). Both sets share the grid step r, so the nearest sample of column
    y to (x, k*r) sits at min(k, K(y)), at cost d(x, y) + max(0, k*r - K(y)*r).
    That cost is nondecreasing in k, and so is its minimum over y, so the
    maximum over column x is reached at its top, height K(x)*r. The
    distance of the samples is thus rows 0 and 1 of one lifted
    _segment_extrema pass over the tops, bit for bit.
    """
    _one_space((u, v), "fuzzy sets")
    # below TOL the closed form and the oracle would have to agree closer
    # than points are told apart
    if not TOL <= real("resolution", resolution) <= 0.1:
        raise InputError(f"resolution {resolution} outside [{TOL}, 0.1]")
    su, sv = support(u).array, support(v).array
    if shared:
        su = sv = np.concatenate([su, sv])
    hu, hv = (np.floor(memberships(w, s) / resolution + 1e-9) * resolution for w, s in ((u, su), (v, sv)))
    return float(_segment_extrema(u.space, [su], sv, ([hu], hv))[:2].max())


def endograph_oracle(u: StepFuzzySet, v: StepFuzzySet, resolution: float) -> float:
    """Sampled endograph distance: brute force over lifted grid points.

    Each point x of either support contributes samples (x, k*resolution)
    for every k with k*resolution <= membership(x); points outside a support
    contribute that set's zero-sheet sample (x, 0). The value is within
    `resolution` of the true endograph metric and symmetric in u and v.
    """
    return _sampled_graphs(u, v, resolution, True)


def sendograph_oracle(u: StepFuzzySet, v: StepFuzzySet, resolution: float) -> float:
    """Sampled sendograph distance; samples only over each set's own support."""
    return _sampled_graphs(u, v, resolution, False)


def _on_platform(alpha: float, plat: Sequence[float]) -> bool:
    return any(abs(alpha - p) <= 1e-12 for p in plat)


def default_alpha_grid(limit: StepFuzzySet | None = None, n: int = 101) -> tuple[float, ...]:
    """n evenly spaced levels in (0,1); with a limit given, grid points that
    hit one of its platform levels are bisected toward the previous grid
    point until they sit in a non-platform gap, or an InputError names the
    grid point once a halving would not move it or print it as the one below."""
    check_grid_size(n)
    base = [k / (n + 1) for k in range(1, n + 1)]
    if limit is None:
        return tuple(base)
    plat = platform_points(limit)
    out: list[float] = []
    for i, g in enumerate(base):
        lo = base[i - 1] if i > 0 else 0.0
        val = g
        while _on_platform(val, plat):
            mid = (val + lo) / 2.0
            if mid == val or fmt(mid) == fmt(lo):
                raise InputError(f"default alpha grid point {i} ({fmt(g)}) cannot leave the limit's platform levels")
            val = mid
        out.append(val)
    return tuple(out)


def closed_alpha_grid(n: int) -> tuple[float, ...]:
    """n evenly spaced levels in (0,1], k / n for k = 1..n."""
    return tuple(k / n for k in range(1, check_grid_size(n) + 1))


class _CutTable:
    """The cut maps of some fuzzy sets as one table: their distinct cuts (by
    identity), and per set its zero-padded stored levels with the int32 index
    of each level's cut. Row k of `levels` and `ids` holds every k-th level."""

    def __init__(self, sets: Sequence[StepFuzzySet]) -> None:
        flat = [pair for u in sets for pair in u.levels]
        counts = np.array([len(u.levels) for u in sets])
        held = np.arange(counts.max()) < counts[:, None]
        levels, ids = np.zeros(held.shape), np.zeros(held.shape, np.int32)
        levels[held] = [a for a, _ in flat]
        self.cuts, ids[held] = _distinct(cut for _, cut in flat)
        self.levels, self.ids = levels.T, ids.T

    def at(self, alphas: Sequence[float], strict: bool = False) -> np.ndarray:
        """The (grid x sets) table of each set's cut index at each alpha in
        (0,1]: the cut at the smallest stored level >= alpha, or > alpha
        with `strict`, as fuzzy._stored_cut takes it for one set. The
        levels that qualify are a prefix from 1.0 that padding never joins,
        so each level below 1.0 writes its ids where one comparison with the
        grid qualifies it."""
        grid = np.asarray(alphas, dtype=float)[:, None]
        out = np.repeat(self.ids[:1], len(grid), axis=0)
        for level, ids in zip(self.levels[1:], self.ids[1:]):
            np.copyto(out, ids, where=level > grid if strict else level >= grid)
        return out

    def classes(self, alphas: Sequence[float], *others: _CutTable) -> tuple[np.ndarray, np.ndarray]:
        """One alpha per class of the grid, and each alpha's class. With L the
        sorted stored levels here and in `others`, copies kept (np.unique
        would import numpy.ma), alphas of one (searchsorted(L, a, "left"),
        searchsorted(L, a, "right")) class read the same cut and strict cut
        of every set. Both counts grow with a, so their sum tells classes
        apart: at most 2|L| + 1 for |L| distinct levels, any grid size."""
        grid = np.asarray(alphas, dtype=float)
        stored = np.sort(np.concatenate([self.levels, *(t.levels for t in others)], axis=None))
        keys = np.searchsorted(stored, grid, "left") + np.searchsorted(stored, grid, "right")
        _, first, cls = np.unique(keys, return_index=True, return_inverse=True)
        return grid[first], cls


def _level_series(
    seq: Sequence[StepFuzzySet],
    limit: StepFuzzySet,
    alphas: tuple[float, ...],
    sides: Sequence[tuple[int, bool]],
) -> list[list[tuple[float, ...]]]:
    """For each side (row, strict) and each alpha, the series over the
    members of one distance between the member cut at alpha and the limit
    cut at alpha, the strict one when `strict`: row 0 of _segment_extrema
    (from the member cut into the limit cut), row 1 (from the limit cut into
    the member cut) or row 2, the larger of the two (the Hausdorff distance).

    The work runs on one alpha per _CutTable.classes class of the members'
    and the limit's levels: one at() call gives the (classes x members)
    table of member cut ids and one per side the limit's cut id per class. The sides mark the (limit cut, member cut) pairs they meet,
    one _segment_extrema call per limit cut measures its marked member
    cuts, and each side reads one tuple per class with one object gather
    through its row of the table: entries share the distinct values' float
    objects, and no entry makes its own. Each alpha then gets its class's
    tuple, the same object. Indexing casts the int32 ids in small buffers,
    so no intp copy of the table is made."""
    members, lim = _CutTable(seq), _CutTable([limit])
    reps, cls = members.classes(alphas, lim)
    ids = members.at(reps)
    ks = [lim.at(reps, strict)[:, 0] for _, strict in sides]
    meets = np.zeros((len(lim.cuts), len(members.cuts)), dtype=bool)
    for k in ks:
        meets[k[:, None], ids] = True
    values = np.empty((3,) + meets.shape, dtype=object)
    for k, target in enumerate(lim.cuts):
        sel = np.flatnonzero(meets[k])
        if sel.size:
            ext = _segment_extrema(limit.space, [members.cuts[i].array for i in sel], target.array)
            values[:, k, sel] = np.vstack([ext, ext.max(axis=0)]).astype(object)
    rows = [[tuple(values[row, k, i].tolist()) for k, i in zip(kc, ids)] for (row, _), kc in zip(sides, ks)]
    return [list(map(side.__getitem__, cls.tolist())) for side in rows]


def _validated_alphas(alphas, limit, necessity: bool) -> tuple[float, ...]:
    if alphas is None:
        return default_alpha_grid(limit)
    alphas = check_alpha_grid(alphas, closed=False)
    if necessity:
        plat = platform_points(limit)
        for a in alphas:
            if _on_platform(a, plat):
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
    limit cut) pair is measured once, and the series are read once per
    class of grid levels that read the same cuts (at most 2|L| + 1 for |L|
    distinct stored levels), so cost and memory follow the classes, not the
    grid size.
    """
    _check_sequence(seq, limit)
    alphas = _validated_alphas(alphas, limit, necessity)
    (distances,) = _level_series(seq, limit, alphas, [(2, False)])
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
    every level. Each limit cut is measured against every member cut it
    meets in one pass, which gives both directions. Both series are read
    once per class of grid levels that read the same cuts (at most 2|L| + 1
    for |L| distinct stored levels), so cost and memory follow the classes,
    not the grid size."""
    _check_sequence(seq, limit)
    alphas = _validated_alphas(alphas, limit, necessity=False)
    deficits, excesses = _level_series(seq, limit, alphas, [(1, True), (0, False)])
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
