import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzymetrics import (
    InputError,
    Verdict,
    default_alpha_grid,
    endograph_convergence,
    endograph_metric,
    endograph_oracle,
    finite_set,
    gamma_diagnostic,
    kuratowski_tail_diagnostic,
    levelwise_profile,
    make_fuzzy,
    metric_matrix,
    send_decomposition_check,
    sendograph_metric,
    sendograph_oracle,
)
from fuzzymetrics.generators import collapse_family, contracting_sequence
from helpers import SP1, fuzzy_corpus, part_series, singleton, two_level


def test_endograph_identity():
    u = two_level()
    assert endograph_metric(u, u) == 0.0


def test_endograph_truncation_dominates_separated_singletons():
    # far-apart crisp singletons match down to the zero sheet at cost 1
    assert endograph_metric(singleton(0.0), singleton(3.0)) == 1.0


def test_endograph_two_level_vs_singleton():
    assert endograph_metric(two_level(), singleton(0.0)) == 0.5


def test_sendograph_identity():
    assert sendograph_metric(two_level(), two_level()) == 0.0


def test_sendograph_singletons_reduce_to_base_distance():
    assert sendograph_metric(singleton(0.0), singleton(3.0)) == 3.0


def test_sendograph_two_level_vs_singleton():
    assert sendograph_metric(two_level(), singleton(0.0)) == 1.0


def test_space_mismatch():
    from helpers import SP2
    from fuzzymetrics import crisp

    with pytest.raises(InputError):
        endograph_metric(singleton(0.0), crisp(SP2, [(0.0, 0.0)]))


def test_endograph_oracle_values():
    assert 0.999 <= endograph_oracle(singleton(0.0), singleton(3.0), 1e-3) <= 1.001
    assert endograph_oracle(two_level(), two_level(), 1e-3) == 0.0
    assert 0.499 <= endograph_oracle(two_level(), singleton(0.0), 1e-3) <= 0.501


def test_sendograph_oracle_values():
    assert abs(sendograph_oracle(singleton(0.0), singleton(3.0), 1e-3) - 3.0) <= 2e-3
    assert sendograph_oracle(two_level(), two_level(), 1e-3) == 0.0
    assert abs(sendograph_oracle(two_level(), singleton(0.0), 1e-3) - 1.0) <= 2e-3


def test_oracle_resolution_range():
    with pytest.raises(InputError):
        endograph_oracle(two_level(), two_level(), 0.0)
    with pytest.raises(InputError):
        sendograph_oracle(two_level(), two_level(), 0.2)


def test_oracle_agreement_on_seeded_pairs():
    corpus = fuzzy_corpus(40, seed=7)
    res = 0.01
    for u, v in zip(corpus[::2], corpus[1::2]):
        assert abs(endograph_metric(u, v) - endograph_oracle(u, v, res)) <= 2 * res
        assert abs(sendograph_metric(u, v) - sendograph_oracle(u, v, res)) <= 2 * res


def test_dominance_end_below_send():
    corpus = fuzzy_corpus(30, seed=8)
    for u, v in zip(corpus[::2], corpus[1::2]):
        assert endograph_metric(u, v) <= sendograph_metric(u, v) + 1e-12


def test_metric_axioms_small_sample():
    corpus = fuzzy_corpus(18, seed=9)
    triples = list(zip(corpus[::3], corpus[1::3], corpus[2::3]))
    for dist in (endograph_metric, sendograph_metric):
        for u, v, w in triples:
            assert dist(u, u) <= 1e-9
            assert dist(u, v) == dist(v, u)
            assert dist(u, w) <= dist(u, v) + dist(v, w) + 1e-9


def test_levelwise_distance_examples():
    u, s = two_level(), singleton(0.0)
    assert metric_matrix([u, s], "level", 0.7)[0, 1] == 0.0
    assert metric_matrix([u, s], "level", 0.5)[0, 1] == 1.0
    assert metric_matrix([u, u], "level", 0.3)[0, 1] == 0.0


def test_default_alpha_grid_plain():
    grid = default_alpha_grid()
    assert len(grid) == 101
    assert grid[0] == pytest.approx(1 / 102)
    assert all(0.0 < a < 1.0 for a in grid)


def test_default_alpha_grid_avoids_platform_levels():
    u = two_level()
    grid = default_alpha_grid(u)
    assert len(grid) == 101
    assert 0.5 not in grid
    assert all(abs(a - 0.5) > 1e-12 for a in grid)
    # the replacement sits in the gap just below the platform level
    replaced = [a for a in grid if 50 / 102 < a < 51 / 102]
    assert len(replaced) == 1


def halving_chain_limit():
    """A limit whose platform levels are 2/102, every midpoint that halving
    2/102 toward 1/102 reaches, and 1/102 itself: the default grid point 1
    (2/102) halves toward grid point 0 (1/102) and never leaves them."""
    lo, val = 1 / 102, 2 / 102
    alphas = [1.0, val]
    while (val + lo) / 2 != val:
        val = (val + lo) / 2
        alphas.append(val)
    assert alphas[-1] == lo and len(alphas) == 55
    return make_fuzzy([(a, finite_set(SP1, [float(k) for k in range(i + 1)])) for i, a in enumerate(alphas)])


def test_default_alpha_grid_rejects_a_point_halving_cannot_move():
    limit = halving_chain_limit()
    with pytest.raises(InputError, match=r"default alpha grid point 1 \(0\.0196078431\)"):
        default_alpha_grid(limit)
    # on 50 levels, grid point 0 (1/51 = 2/102) halves toward 0.0, past
    # 1/102, and leaves the chain at 1/204
    assert default_alpha_grid(limit, 50)[0] == 1 / 204


def test_converge_level_rejects_a_point_halving_cannot_move(tmp_path):
    limit = halving_chain_limit()
    doc = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [
            {"name": "lim", "levels": [{"alpha": a, "points": cut.array.tolist()} for a, cut in limit.levels]},
            {"name": "u0", "levels": [{"alpha": 1.0, "points": [[0.0]]}]},
        ],
        "sequences": [{"name": "s", "members": ["u0", "lim"]}],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "fuzzymetrics.cli", "converge", str(path), "--sequence", "s",
                           "--limit", "lim", "--mode", "level"], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: default alpha grid point 1 (0.0196078431) cannot leave the limit's platform levels"]


def test_levelwise_profile_reciprocal_sequence():
    seq = [singleton(1.0 / n) for n in range(1, 101)]
    prof = levelwise_profile(seq, singleton(0.0), alphas=[0.25, 0.5, 0.75], window=10, tol=0.05)
    assert prof.verdict is Verdict.PASS
    for series in part_series(prof):
        assert series[0] == 1.0
        assert max(series[-10:]) == pytest.approx(1 / 91, abs=1e-12)


def test_levelwise_profile_constant_sequence_zero():
    u = two_level()
    prof = levelwise_profile([u] * 20, u, alphas=[0.3, 0.6])
    assert prof.verdict is Verdict.PASS
    assert all(set(s) == {0.0} for s in part_series(prof))


def test_levelwise_profile_detects_failure():
    seq = [singleton(0.0)] * 20
    prof = levelwise_profile(seq, two_level(), alphas=[0.4])
    assert prof.verdict is Verdict.FAIL
    assert set(part_series(prof)[0]) == {1.0}


def test_levelwise_profile_platform_collision_named():
    seq = [singleton(0.0)] * 20
    with pytest.raises(InputError, match="0.5"):
        levelwise_profile(seq, two_level(), alphas=[0.5], necessity=True)
    # without necessity mode the level is accepted
    levelwise_profile(seq, two_level(), alphas=[0.5])


def test_gamma_diagnostic_reciprocal_sequence():
    seq = [singleton(1.0 / n) for n in range(1, 101)]
    diag = gamma_diagnostic(seq, singleton(0.0), alphas=[0.5], window=10, tol=0.05)
    assert diag.verdict is Verdict.PASS
    assert part_series(diag)[0][0] == 1.0
    assert part_series(diag, 1)[0][9] == pytest.approx(0.1, abs=1e-12)


def test_gamma_diagnostic_constant_sequence():
    u = two_level()
    diag = gamma_diagnostic([u] * 20, u, alphas=[0.25, 0.5, 0.75])
    assert diag.verdict is Verdict.PASS
    assert all(set(s) == {0.0} for s in part_series(diag))
    assert all(set(s) == {0.0} for s in part_series(diag, 1))


def test_gamma_diagnostic_excess_failure():
    seq = [two_level()] * 20
    diag = gamma_diagnostic(seq, singleton(0.0), alphas=[0.4])
    assert diag.verdict is Verdict.FAIL
    assert set(part_series(diag, 1)[0]) == {1.0}


def test_metric_matrix_rejects_an_unknown_kind_or_a_level_without_alpha():
    sets = [singleton(0.0), two_level()]
    with pytest.raises(InputError, match="unknown metric kind 'lifted'"):
        metric_matrix(sets, "lifted")
    with pytest.raises(InputError, match="needs an alpha"):
        metric_matrix(sets, "level")
    with pytest.raises(InputError, match="outside"):
        metric_matrix(sets, "level", 1.5)
    assert metric_matrix(sets, "level", 0.5).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_tail_diagnostics_share_the_certificate_shape():
    seq = [singleton(1.0 / n) for n in range(1, 21)]
    level = levelwise_profile(seq, two_level(), alphas=[0.25, 0.75], window=4, tol=0.05)
    assert (level.kind, [p.key for p in level.parts]) == ("LEVEL_PROFILE", ["alpha=0.25", "alpha=0.75"])
    assert list(level.evidence) == ["alpha=0.25", "alpha=0.75", "window", "tol", "alpha_grid", "platform"]
    assert (level.evidence["window"], level.evidence["tol"]) == ((4,), (0.05,))
    assert (level.evidence["alpha_grid"], level.evidence["platform"]) == ((0.25, 0.75), (0.5,))
    # the cut at 0.25 holds the point 1, which the members 1/n move away from
    assert [p.verdict for p in level.parts] == [Verdict.FAIL, Verdict.INCONCLUSIVE]
    assert level.verdict is Verdict.FAIL and level.witness == "alpha=0.25: tail max 0.95 at or above 2*tol"
    gamma = gamma_diagnostic(seq, singleton(0.0), alphas=[0.5], window=4, tol=0.05)
    assert (gamma.kind, [dict(p.tail_max) for p in gamma.parts]) == (
        "GAMMA_SANDWICH", [{"deficit[alpha=0.5]": 1 / 17, "excess[alpha=0.5]": 1 / 17}])
    assert list(gamma.evidence) == ["deficit[alpha=0.5]", "excess[alpha=0.5]", "window", "tol", "alpha_grid"]
    end = endograph_convergence(seq, singleton(0.0), window=4, tol=0.02)
    assert (end.kind, end.verdict, end.parts[0].key, end.parts[0].tail_max) == (
        "END_TAIL", Verdict.FAIL, "end", {"end": 1 / 17})
    assert list(end.evidence) == ["end", "window", "tol"]
    assert end.witness == "end: tail max 0.0588235294 at or above 2*tol"
    send = send_decomposition_check(seq, singleton(0.0), window=4, tol=0.05)
    assert [p.key for p in send.parts] == ["send", "end", "cut0"]
    assert list(send.evidence) == ["send", "end", "cut0", "window", "tol"]


def test_send_decomposition_all_converge():
    seq = [singleton(1.0 / n) for n in range(1, 301)]
    cert = send_decomposition_check(seq, singleton(0.0), tol=0.01)
    assert cert.verdict is Verdict.PASS
    assert "send=PASS" in cert.note and "end=PASS" in cert.note and "cut0=PASS" in cert.note


def test_send_decomposition_constant_sequence():
    u = two_level()
    cert = send_decomposition_check([u] * 20, u)
    assert cert.verdict is Verdict.PASS


def test_send_decomposition_collapse_identity():
    seq = list(collapse_family(SP1, 200).members)
    cert = send_decomposition_check(seq, singleton(0.0), tol=0.01)
    assert cert.verdict is Verdict.PASS
    assert "send=FAIL" in cert.note and "end=PASS" in cert.note and "cut0=FAIL" in cert.note
    n = len(seq)
    assert cert.evidence["end"][-1] == pytest.approx(1.0 / n, abs=1e-12)
    assert set(cert.evidence["send"]) == {1.0}
    assert set(cert.evidence["cut0"]) == {1.0}


def test_sufficiency_and_necessity_on_contracting_families():
    # levelwise PASS on a dense grid, endograph PASS and gamma PASS agree
    from fuzzymetrics.generators import random_fuzzy
    import numpy as np

    for seed in range(4):
        rng = np.random.default_rng(500 + seed)
        limit = random_fuzzy(SP1, rng, box=(0.0, 1.0))
        seq = contracting_sequence(limit, 50, scale=0.02)
        grid = default_alpha_grid(limit)
        prof = levelwise_profile(seq, limit, grid)
        assert prof.verdict is Verdict.PASS
        end_series = [endograph_metric(u, limit) for u in seq]
        assert max(end_series[-5:]) < 1e-3
        diag = gamma_diagnostic(seq, limit, grid)
        assert diag.verdict is Verdict.PASS
        # necessity: levels off the platform set also pass individually
        prof2 = levelwise_profile(seq, limit, grid, necessity=True)
        assert prof2.verdict is Verdict.PASS


def test_levelwise_pass_lifts_to_kuratowski():
    limit = two_level()
    seq = contracting_sequence(limit, 50, scale=0.02)
    grid = (0.25, 0.75)
    prof = levelwise_profile(seq, limit, grid)
    assert prof.verdict is Verdict.PASS
    from fuzzymetrics import alpha_cut

    for a in grid:
        diag = kuratowski_tail_diagnostic(
            [alpha_cut(u, a) for u in seq], alpha_cut(limit, a),
            window=prof.evidence["window"][0], tol=prof.evidence["tol"][0],
        )
        assert diag.verdict is Verdict.PASS
