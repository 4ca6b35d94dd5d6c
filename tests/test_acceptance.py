"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from fuzzymetrics import (
    Verdict,
    cauchy_limit_construct,
    cauchy_tail_profile,
    closedness_witness,
    default_alpha_grid,
    default_window,
    endograph_metric,
    endograph_oracle,
    finite_set,
    gamma_diagnostic,
    hausdorff,
    kuratowski_tail_diagnostic,
    levelwise_profile,
    make_fuzzy,
    p0_points,
    platform_points,
    rel_compact_send_report,
    send_decomposition_check,
    sendograph_metric,
    sendograph_oracle,
    support,
    tail_verdict,
    tb_end_report,
    tb_send_report,
)
from fuzzymetrics.generators import (
    collapse_family,
    contracting_sequence,
    crisp_interval,
    crisp_interval_family,
    random_fuzzy,
    translates_family,
)
from helpers import SP1, SP2, singleton


def _pair_corpus(count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(count):
        space = SP1 if k % 2 == 0 else SP2
        u = random_fuzzy(space, rng, box=(0.0, 2.0), max_levels=4, max_points=5)
        v = random_fuzzy(space, rng, box=(0.0, 2.0), max_levels=4, max_points=5)
        pairs.append((u, v))
    return pairs


def test_criterion_1_oracle_agreement():
    started = time.perf_counter()
    res = 1e-3
    worst = 0.0
    for u, v in _pair_corpus(200, seed=777):
        d_end = abs(endograph_metric(u, v) - endograph_oracle(u, v, res))
        d_send = abs(sendograph_metric(u, v) - sendograph_oracle(u, v, res))
        worst = max(worst, d_end, d_send)
        assert d_end <= 2 * res
        assert d_send <= 2 * res
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 1 (oracle agreement, 200 pairs, worst diff {worst:.2e}, {elapsed:.1f}s): PASS")


def test_criterion_2_metric_axioms():
    rng = np.random.default_rng(2024)
    checked_pairs = 0
    for k in range(200):
        space = SP1 if k % 2 == 0 else SP2
        triple = [
            random_fuzzy(space, rng, box=(0.0, 2.0), max_levels=4, max_points=5)
            for _ in range(3)
        ]
        sets = [support(u) for u in triple]
        for dist, values in ((hausdorff, sets), (endograph_metric, triple), (sendograph_metric, triple)):
            a, b, c = values
            assert dist(a, a) <= 1e-9
            assert dist(a, b) == dist(b, a)
            assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9
        for u, v in ((triple[0], triple[1]), (triple[0], triple[2]), (triple[1], triple[2])):
            assert endograph_metric(u, v) <= sendograph_metric(u, v) + 1e-12
            checked_pairs += 1
    print(f"criterion 2 (metric axioms on 200 triples, dominance on {checked_pairs} pairs): PASS")


def test_criterion_3_send_decomposition_on_collapse():
    n = 1500
    seq = list(collapse_family(SP1, n).members)
    limit = singleton(0.0)
    cert = send_decomposition_check(seq, limit)
    assert cert.evidence["end"] == tuple(1.0 / k for k in range(1, n + 1))
    assert set(cert.evidence["send"]) == {1.0}
    assert set(cert.evidence["cut0"]) == {1.0}
    assert "send=FAIL" in cert.note and "end=PASS" in cert.note and "cut0=FAIL" in cert.note
    assert cert.verdict is Verdict.PASS
    print("criterion 3 (sendograph decomposition identity on the collapse family): PASS")


def _convergent_family(seed):
    rng = np.random.default_rng(seed)
    limit = random_fuzzy(SP2, rng, box=(0.0, 1.0), max_levels=4, max_points=6)
    return limit, contracting_sequence(limit, 50, scale=0.02)


def _divergent_family(seed):
    rng = np.random.default_rng(seed)
    limit = random_fuzzy(SP2, rng, box=(0.0, 0.7), max_levels=4, max_points=6)
    shifted = make_fuzzy(
        [
            (a, finite_set(SP2, [(p[0] + 0.25, p[1]) for p in cut.array.tolist()]))
            for a, cut in limit.levels
        ]
    )
    return limit, [shifted] * 50


def test_criterion_4_level_decomposition_equivalence():
    tol = 1e-3
    disagreements = 0
    for seed in range(100, 120):
        limit, seq = _convergent_family(seed)
        grid = default_alpha_grid(limit)
        assert len(grid) == 101
        end_series = [endograph_metric(u, limit) for u in seq]
        v_end, _ = tail_verdict(end_series, default_window(len(seq)), tol)
        v_level = levelwise_profile(seq, limit, grid, tol=tol).verdict
        v_gamma = gamma_diagnostic(seq, limit, grid, tol=tol).verdict
        if not (v_end == v_level == v_gamma == Verdict.PASS):
            disagreements += 1
    # the three verdicts must also agree when convergence fails
    for seed in range(200, 205):
        limit, seq = _divergent_family(seed)
        grid = default_alpha_grid(limit)
        end_series = [endograph_metric(u, limit) for u in seq]
        v_end, _ = tail_verdict(end_series, default_window(len(seq)), tol)
        v_level = levelwise_profile(seq, limit, grid, tol=tol).verdict
        v_gamma = gamma_diagnostic(seq, limit, grid, tol=tol).verdict
        if not (v_end == v_level == v_gamma == Verdict.FAIL):
            disagreements += 1
    assert disagreements == 0
    print("criterion 4 (endograph/levelwise/sandwich equivalence, 20+5 families, 0 disagreements): PASS")


def test_criterion_5_platform_equals_discontinuity_levels():
    rng = np.random.default_rng(55)
    for k in range(1000):
        space = SP1 if k % 2 == 0 else SP2
        u = random_fuzzy(space, rng, box=(0.0, 2.0), max_levels=5, max_points=6)
        plat = platform_points(u)
        assert p0_points(u) == plat
        assert isinstance(plat, tuple) and len(plat) < len(u.levels)
    print("criterion 5 (platform set equals discontinuity set on 1000 sets): PASS")


def test_criterion_6_cauchy_construction_and_profiles():
    prefix = [finite_set(SP1, [1.0 - 2.0 ** -n]) for n in range(1, 21)]
    _, _, residuals = cauchy_limit_construct(prefix)
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] == 0.0

    crisp_geo = [singleton(1.0 - 2.0 ** -n) for n in range(1, 21)]
    fuzzy_geo = [
        make_fuzzy(
            [
                (1.0, finite_set(SP1, [1.0 - 2.0 ** -n])),
                (0.5, finite_set(SP1, [1.0 - 2.0 ** -n, 0.75 - 2.0 ** -n])),
            ]
        )
        for n in range(1, 21)
    ]
    for seq in (crisp_geo, fuzzy_geo):
        assert cauchy_tail_profile(seq, "send").verdict is Verdict.PASS
        assert cauchy_tail_profile(seq, "end").verdict is Verdict.PASS
    alternating = [singleton(0.0) if n % 2 == 0 else singleton(1.0) for n in range(20)]
    assert cauchy_tail_profile(alternating, "send").verdict is Verdict.FAIL
    assert cauchy_tail_profile(alternating, "end").verdict is Verdict.FAIL
    print("criterion 6 (constructive Cauchy limits and tail profiles): PASS")


def test_criterion_7_totally_bounded_but_not_closed():
    family = crisp_interval_family(SP1, low=0.3, high=1.0, step=0.01)
    assert tb_send_report(family, eps=0.4).verdict is Verdict.PASS
    candidate = crisp_interval(SP1, 0.0, 0.3, 0.01)
    cert = closedness_witness(family, candidate, "send", tol=0.02)
    assert cert.verdict is Verdict.FAIL
    assert cert.evidence["min_distance"][0] <= 0.02
    print("criterion 7 (interval family: totally bounded, closedness witness fails): PASS")


def test_criterion_8_total_boundedness_separation():
    grid = tuple(k / 101 for k in range(1, 102))
    collapse = collapse_family(SP1, 50)
    tb_end_cert = tb_end_report(collapse, eps=0.4, alphas=grid)
    assert tb_end_cert.verdict is Verdict.PASS
    rel_cert = rel_compact_send_report(collapse, eps=0.5)
    assert rel_cert.verdict is Verdict.FAIL
    assert rel_cert.witness.startswith("ERC:")
    assert rel_cert.evidence["erc_modulus"] == tuple(1.0 / n for n in range(1, 51))

    translates = translates_family(SP1, 50)
    t_end = tb_end_report(translates, eps=0.4, alphas=(0.5,))
    t_rel = rel_compact_send_report(translates, eps=0.4)
    assert t_end.verdict is Verdict.FAIL
    assert t_rel.verdict is Verdict.FAIL
    assert t_end.evidence["net_size[alpha=0.5]"] == tuple(float(k) for k in range(1, 51))
    assert t_rel.evidence["tb_net_size[support]"] == tuple(float(k) for k in range(1, 51))
    print("criterion 8 (endograph vs sendograph total-boundedness separation): PASS")


def test_criterion_9_hausdorff_tail_implies_kuratowski():
    rng = np.random.default_rng(99)
    window, tol = 6, 1e-3
    non_vacuous = 0
    for k in range(60):
        space = SP1 if k % 2 == 0 else SP2
        target = support(random_fuzzy(space, rng, box=(0.0, 2.0), max_points=5))
        center = target.array.mean(axis=0)
        style = k % 3
        prefix = []
        for n in range(1, 61):
            if style == 0:  # contracting toward the target
                t = 1.0 / n ** 2
                prefix.append(
                    finite_set(
                        space,
                        [tuple(c + t * (m - c) for c, m in zip(p, center)) for p in target.array.tolist()],
                    )
                )
            elif style == 1:  # constant
                prefix.append(target)
            else:  # drifting away
                prefix.append(
                    finite_set(space, [tuple(c + 0.5 for c in p) for p in target.array.tolist()])
                )
        series = [hausdorff(c, target) for c in prefix]
        if max(series[-window:]) < tol:
            diag = kuratowski_tail_diagnostic(prefix, target, window=window, tol=tol)
            assert diag.verdict is Verdict.PASS
            non_vacuous += 1
    assert non_vacuous >= 40
    print(f"criterion 9 (Hausdorff tail implies set-convergence tail, {non_vacuous} sequences): PASS")
