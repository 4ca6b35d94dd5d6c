"""Family- and sequence-level certificates: total boundedness,
equi-right-continuity at 0, relative compactness, closedness witnesses and
Cauchy tail profiles.

Infinite families are represented by generator tags plus parameter sweeps;
"for all n" claims are decided as tail trends over the member order with the
same hysteresis rule as the convergence diagnostics. A fixed finite family is
always totally bounded and equi-right-continuous, so untagged families PASS
with their evidence recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .certificates import (
    Certificate,
    Verdict,
    check_window,
    combine_verdicts,
    tail_verdict,
    trend_verdict,
)
from .common import InputError, check_positive, fmt
from .fuzzy import StepFuzzySet, alpha_cut, same_representation, support
from .metrics import graph_series, metric_matrix
from .sets import FiniteSet, hausdorff, prefix_net_sizes


@dataclass(frozen=True)
class GeneratorTag:
    """Name and parameter sequence of a parametrized family."""

    kind: str
    params: tuple[float, ...]


@dataclass(frozen=True)
class FuzzyFamily:
    members: tuple[StepFuzzySet, ...]
    names: tuple[str, ...]
    generator: GeneratorTag | None = None


def fuzzy_family(
    members: Sequence[StepFuzzySet],
    names: Sequence[str] | None = None,
    generator: GeneratorTag | None = None,
) -> FuzzyFamily:
    """Validated family constructor: nonempty, one space, unique names."""
    members = tuple(members)
    if not members:
        raise InputError("family must be nonempty")
    space = members[0].space
    for u in members:
        if u.space != space:
            raise InputError("family members live in different spaces")
    if names is None:
        names = tuple(f"u{i + 1}" for i in range(len(members)))
    else:
        names = tuple(str(n) for n in names)
    if len(names) != len(members):
        raise InputError("names and members differ in length")
    if len(set(names)) != len(names):
        raise InputError("member names must be unique")
    return FuzzyFamily(members=members, names=names, generator=generator)


def _net_sizes(family: FuzzyFamily, cuts: Sequence[FiniteSet], eps: float) -> tuple[int, ...]:
    """Greedy net sizes of the member-cut unions: one per prefix for a
    generator-tagged family, the whole union's alone otherwise."""
    sizes = prefix_net_sizes(cuts, eps)
    return sizes if family.generator is not None else sizes[-1:]


def _family_verdict(
    family: FuzzyFamily, window: int | None, parts: Sequence[tuple[str, Sequence[float]]], failing: str, witness: str
) -> tuple[Verdict, str | None]:
    """The rule of the family certificates. An untagged family PASSes; a
    generator-tagged one decides each labelled series by its trend over the
    window, FAIL when `failing` ("increasing" or "decreasing") over it. The
    verdicts combine, and the first failing part fills in the witness
    template: its label, the generator kind, and the first and last member
    names of the window."""
    window = check_window(len(family.members), window)
    gen = family.generator
    verdicts = [Verdict.PASS if gen is None else trend_verdict(s, window, failing=failing) for _, s in parts]
    failed = [label for (label, _), v in zip(parts, verdicts) if v is Verdict.FAIL]
    if not failed:
        return combine_verdicts(verdicts), None
    return Verdict.FAIL, witness.format(label=failed[0], kind=gen.kind, first=family.names[-window],
                                        last=family.names[-1])


_GROWTH = "{label}: net size strictly increasing along {kind} (last member {last})"


def tb_end_report(
    family: FuzzyFamily, eps: float, alphas: Sequence[float], window: int | None = None
) -> Certificate:
    """Total-boundedness evidence for the endograph metric: per-level greedy
    net sizes of the union of member cuts.

    Generator-tagged families are judged by the trend of net sizes along the
    prefix unions: FAIL when strictly increasing over the last window, PASS
    when stabilized. Untagged families PASS with the union net size recorded.
    """
    check_positive("eps", eps)
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise InputError("empty alpha grid")
    # alpha_cut rejects an alpha outside (0,1]. The cut map of a member
    # changes only at its stored levels, so the grid alphas repeat few
    # distinct tuples of cuts; each gets one series
    series_of: dict[tuple[FiniteSet, ...], tuple[int, ...]] = {}
    parts = []
    for a in alphas:
        cuts = tuple(alpha_cut(u, a) for u in family.members)
        if cuts not in series_of:
            series_of[cuts] = _net_sizes(family, cuts, eps)
        parts.append((f"alpha={fmt(a)}", series_of[cuts]))
    verdict, witness = _family_verdict(family, window, parts, "increasing", _GROWTH)
    evidence = {f"net_size[{label}]": tuple(map(float, series)) for label, series in parts}
    return Certificate(kind="TB_END", verdict=verdict, evidence=evidence, witness=witness)


def tb_send_report(family: FuzzyFamily, eps: float, window: int | None = None) -> Certificate:
    """Total-boundedness evidence for the sendograph metric: greedy net sizes
    of the union of member supports (the 0-cuts), same stabilization rule."""
    check_positive("eps", eps)
    series = _net_sizes(family, [support(u) for u in family.members], eps)
    verdict, witness = _family_verdict(family, window, [("support union", series)], "increasing", _GROWTH)
    evidence = {"net_size[support]": tuple(map(float, series))}
    return Certificate(kind="TB_SEND", verdict=verdict, evidence=evidence, witness=witness)


def _member_modulus(u: StepFuzzySet, eps: float) -> float:
    """Largest stored level m such that every cut at a level <= m stays
    within eps of the support. The lowest level always qualifies."""
    supp = support(u)
    best = None
    for a, cut in reversed(u.levels):
        if hausdorff(cut, supp) < eps:
            best = a
        else:
            break
    assert best is not None
    return best


def erc_modulus(family: FuzzyFamily, eps: float, window: int | None = None) -> Certificate:
    """Equi-right-continuity at 0: per-member modulus series and the family
    modulus (their minimum).

    Generator-tagged families FAIL when the modulus series is strictly
    decreasing over the last window (tending to 0 along the parameter)."""
    check_positive("eps", eps)
    moduli = tuple(_member_modulus(u, eps) for u in family.members)
    verdict, witness = _family_verdict(family, window, [("modulus", moduli)], "decreasing",
                                       "modulus strictly decreasing along {kind} (members {first}..{last})")
    evidence = {"modulus": moduli, "family_modulus": (min(moduli),)}
    return Certificate(kind="ERC", verdict=verdict, evidence=evidence, witness=witness)


_COMPLETENESS_NOTE = (
    "total boundedness certifies relative compactness only when the ambient "
    "space is complete"
)


def rel_compact_send_report(family: FuzzyFamily, eps: float, window: int | None = None) -> Certificate:
    """Relative-compactness surrogate for the sendograph metric: conjunction
    of the support total-boundedness report and the equi-right-continuity
    modulus. FAIL carries whichever witness failed."""
    tb = tb_send_report(family, eps, window)
    erc = erc_modulus(family, eps, window)
    verdict = combine_verdicts([tb.verdict, erc.verdict])
    failed = [f"{label}: {c.witness}" for label, c in (("TB", tb), ("ERC", erc)) if c.verdict is Verdict.FAIL]
    witness = "; ".join(failed) or None
    evidence = {f"tb_{k}": v for k, v in tb.evidence.items()}
    evidence.update({f"erc_{k}": v for k, v in erc.evidence.items()})
    return Certificate(
        kind="REL_COMPACT_SEND",
        verdict=verdict,
        evidence=evidence,
        witness=witness,
        note=_COMPLETENESS_NOTE,
    )


def closedness_witness(
    family: FuzzyFamily, candidate: StepFuzzySet, metric: str, tol: float
) -> Certificate:
    """Witness non-closedness: a candidate within tol of the family under the
    chosen metric ("end" or "send") that is not a member in exact
    representation. PASS means no witness was produced, never a closedness
    proof."""
    if metric not in ("end", "send"):
        raise InputError(f"metric must be 'end' or 'send', got {metric!r}")
    check_positive("tol", tol)
    if candidate.space != family.members[0].space:
        raise InputError("candidate lives in a different space")
    # transposed, each distance reads the kernel as metric(candidate, u) does
    distances = graph_series(family.members, candidate, transposed=True)[metric == "send"]
    best = min(distances)
    nearest = family.names[distances.index(best)]
    is_member = any(same_representation(candidate, u) for u in family.members)
    evidence = {"distance": distances, "min_distance": (best,)}
    note = None
    gen = family.generator
    if gen is not None and gen.kind == "crisp_intervals" and len(gen.params) >= 2:
        evidence["discretization_bound"] = ((gen.params[1] - gen.params[0]) / 2.0,)
        note = "interval members discretized; H error at most the recorded discretization_bound"
    witness = f"candidate within {fmt(best)} of member {nearest} but not a member"
    failed = best <= tol and not is_member
    return Certificate(kind="CLOSEDNESS_WITNESS", verdict=Verdict.FAIL if failed else Verdict.PASS, evidence=evidence,
                       witness=witness if failed else None, note=note)


def cauchy_tail_profile(
    seq: Sequence[StepFuzzySet],
    metric: str,
    window: int | None = None,
    tol: float = 1e-3,
) -> Certificate:
    """Cauchy evidence for a fuzzy-set sequence under "end" or "send".

    residual[n] = max distance from member n to any later member. PASS when
    residuals are nonincreasing and the last member sits within tol of the
    tail window; FAIL when the last member stays 2*tol away from the tail or
    residuals increase.
    """
    if len(seq) < 3:
        raise InputError("need at least 3 members")
    if metric not in ("end", "send"):
        raise InputError(f"metric must be 'end' or 'send', got {metric!r}")
    window = check_window(len(seq), window)
    n = len(seq)
    d = metric_matrix(seq, metric)
    residuals = [float(d[i, i + 1:].max()) for i in range(n - 1)] + [0.0]
    bad = next((i for i, (a, b) in enumerate(zip(residuals, residuals[1:])) if b > a + 1e-9), None)
    verdict, prox = tail_verdict(d[-1].tolist(), window, tol)
    witness = None
    if bad is not None:
        verdict, witness = Verdict.FAIL, f"residual increases at step {bad + 1}"
    elif verdict is Verdict.FAIL:
        witness = f"last member stays {fmt(prox)} away from the tail window"
    evidence = {"residual": tuple(residuals), "tail_proximity": (prox,)}
    return Certificate(kind="CAUCHY_LIMIT", verdict=verdict, evidence=evidence, witness=witness)
