import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fuzzymetrics import (
    TOL,
    InputError,
    Verdict,
    default_alpha_grid,
    endograph_convergence,
    endograph_metric,
    endograph_oracle,
    finite_set,
    gamma_diagnostic,
    hausdorff,
    kuratowski_tail_diagnostic,
    levelwise_profile,
    make_fuzzy,
    metric_matrix,
    send_decomposition_check,
    sendograph_metric,
    sendograph_oracle,
    support,
)
from fuzzymetrics import metrics as metrics_module
from fuzzymetrics import space as space_module
from fuzzymetrics.certificates import tail_certificate
from fuzzymetrics.cli import main
from fuzzymetrics.common import MAX_GRID_LEVELS, fmt
from fuzzymetrics.generators import collapse_family, contracting_sequence
from fuzzymetrics.metrics import _CutTable, closed_alpha_grid, graph_series
from helpers import SP1, SP2, CountingSeries, fuzzy_corpus, part_series, singleton, traced_peak, two_level


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
    # below TOL, membership / resolution overflowed the sample indices
    # (from about 1e-19) and gave garbage oracle values; a string or bytes
    # raised a bare TypeError
    for resolution in (0.0, 0.2, 1e-300, 1e-20, TOL / 2, "0.01", b"0.01"):
        with pytest.raises(InputError):
            endograph_oracle(two_level(), two_level(), resolution)
        with pytest.raises(InputError):
            sendograph_oracle(two_level(), two_level(), resolution)
    demo = str(Path(__file__).resolve().parent.parent / "demo" / "demo.json")
    assert main(["oracle", demo, "--resolution", "1e-300"]) == 2
    for resolution in (TOL, 0.1):
        assert abs(endograph_oracle(two_level(), singleton(0.0), resolution) - 0.5) <= 2 * resolution


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


@pytest.mark.parametrize("n", [1, 101, MAX_GRID_LEVELS])
def test_closed_alpha_grid_is_the_grid_compact_tb_end_reads(n):
    assert closed_alpha_grid(n) == tuple(k / n for k in range(1, n + 1))
    assert closed_alpha_grid(n)[-1] == 1.0


@pytest.mark.parametrize("n", [0, MAX_GRID_LEVELS + 1, 2.5])
def test_closed_alpha_grid_rejects_a_size_out_of_range(n):
    with pytest.raises(InputError, match="alpha grid size"):
        closed_alpha_grid(n)


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


def midpoint_chain_limit():
    """A limit whose platform levels are 51/102 and the next 27 midpoints that
    halving it toward 50/102 reaches: the default grid point 50 (51/102) halves
    to the 28th midpoint, 50/102 + 2**-28/102, which prints as 0.490196078, as
    grid point 49 (50/102) does."""
    lo, val = 50 / 102, 51 / 102
    alphas = [1.0]
    for _ in range(28):
        alphas.append(val)
        val = (val + lo) / 2
    assert fmt(val) == fmt(lo) != fmt(alphas[-1])
    return make_fuzzy([(a, finite_set(SP1, [float(k) for k in range(i + 1)])) for i, a in enumerate(alphas)])


def test_default_alpha_grid_rejects_a_point_that_would_print_as_the_one_below(tmp_path):
    # two grid levels that print alike would key one report series twice
    limit = midpoint_chain_limit()
    message = "default alpha grid point 50 (0.5) cannot leave the limit's platform levels"
    with pytest.raises(InputError, match=re.escape(message)):
        default_alpha_grid(limit)
    with pytest.raises(InputError, match=re.escape(message)):
        levelwise_profile([limit], limit)
    levels = [{"alpha": a, "points": cut.array.tolist()} for a, cut in limit.levels]
    doc = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [{"name": "lim", "levels": levels}],
        "sequences": [{"name": "s", "members": ["lim", "lim"]}],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["converge", str(path), "--sequence", "s", "--limit", "lim", "--mode", "level"]) == 2


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


@pytest.mark.parametrize("kind, alpha", [("end", None), ("send", None), ("level", 0.5)])
def test_a_metric_matrix_checks_the_space_once(kind, alpha):
    sets = fuzzy_corpus(6, 0)
    with mock.patch.object(metrics_module, "_one_space", wraps=metrics_module._one_space) as check:
        d = metric_matrix(sets, kind, alpha)
    assert check.call_count == 1
    assert d[0, 5] == metric_matrix(sets[:1] + sets[5:], kind, alpha)[0, 1]
    for n in (0, 1):
        assert metric_matrix(sets[:n], kind, alpha).tolist() == np.zeros((n, n)).tolist()
    with pytest.raises(InputError, match="^fuzzy sets live in different spaces$"):
        metric_matrix(sets[:3] + [singleton(0.0, SP2)], kind, alpha)


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


def test_tail_certificate_reads_each_distinct_series_once():
    # all grid levels of one class share their series objects: 101 parts
    # over 3 objects read 3 windows, and equal values in distinct objects
    # are read apart
    objects = [CountingSeries((0.5, 1e-4, 2e-4)), CountingSeries((0.5, 0.3, 0.1)), CountingSeries((0.5, 0.3, 0.1))]
    parts = [(f"alpha={k}", {f"deficit[{k}]": objects[k % 3], f"excess[{k}]": objects[(k + 1) % 3]})
             for k in range(101)]
    cert = tail_certificate("K", parts, 2, 1e-3)
    assert [s.slices for s in objects] == [1, 1, 1]
    assert [p.verdict for p in cert.parts[:3]] == [Verdict.FAIL] * 3
    assert cert.parts[0].tail_max == {"deficit[0]": 2e-4, "excess[0]": 0.3}
    assert cert.witness == "alpha=0: tail max 0.3 at or above 2*tol"
    assert len(cert.parts) == 101 and cert.evidence["excess[100]"] is objects[2]


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


# Every kernel call measures at most block_rows(m) rows against m target
# points, so a pass holds at most a kernel block, the kernel's scratch
# buffer and one reduction of the block at once, each within BLOCK_BYTES.
KERNEL_PASS_BYTES = 3 * space_module.BLOCK_BYTES + (1 << 20)


def test_graph_series_memory_stays_within_one_kernel_block():
    # three-level sets of 400 and 800 points: the lifts are added to minima
    # per height group, and no array of n x m cells is built
    def three_level(n, seed):
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2)).tolist()
        return make_fuzzy([(a, finite_set(SP2, pts[:k])) for a, k in ((1.0, n // 4), (0.6, n // 2), (0.3, n))])

    u, v = three_level(400, 0), three_level(800, 1)
    assert len(u.support_memberships) == 400 and len(v.support_memberships) == 800  # measured before tracing
    assert traced_peak(graph_series, [u], v) <= KERNEL_PASS_BYTES


def test_one_pair_metrics_and_oracles_stay_within_one_kernel_pass_at_large_n():
    # two-level 2-D sets of 2,000 and 3,000 points: a full 2,000 x 3,000
    # matrix alone would take 48 MB, a bases x bases one 200 MB
    def two_level_2d(n, seed):
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2)).tolist()
        return make_fuzzy([(1.0, finite_set(SP2, pts[:n // 2])), (0.5, finite_set(SP2, pts))])

    u, v = two_level_2d(2000, 2), two_level_2d(3000, 3)
    assert len(u.support_memberships) == 2000 and len(v.support_memberships) == 3000  # measured before tracing
    su, sv = support(u), support(v)
    for call, *args in ((hausdorff, su, sv), (graph_series, [u], v), (endograph_oracle, u, v, 0.05),
                        (sendograph_oracle, u, v, 0.05)):
        assert traced_peak(call, *args) <= KERNEL_PASS_BYTES, call.__name__


def test_gamma_series_memory_is_the_evidence_plus_one_id_table():
    # 1,500 two-level members that share two cuts, at a 101-level grid: the
    # series are tuples of pointers to the few distinct distances, so the
    # peak is their 2 x 101 x 1,500 pointers, one (grid x members) table of
    # 8-byte ids and at most 1 MiB more, and the id table alone takes one
    # such table and 1 MiB. One Python float per entry (24 bytes each) or
    # an 8-byte (levels x grid x members) temporary exceeds them
    seq = collapse_family(SP1, 1501).members[1:]
    limit = two_level()
    grid = default_alpha_grid(limit)
    assert all(len(u.levels) == 2 for u in seq) and len(grid) == 101
    table = len(grid) * len(seq) * 8  # bytes of one (grid x members) table of pointers or ids
    assert traced_peak(gamma_diagnostic, seq, limit, grid) <= 2 * table + table + (1 << 20)
    assert traced_peak(_CutTable(seq).at, grid) <= table + (1 << 20)


def test_level_and_gamma_series_memory_follows_the_level_classes_not_the_grid():
    # 1,500 collapse members at a 2,000-level grid: with the members' stored
    # levels 1/n and the limit's, the grid falls into at most 100 classes
    # that read the same cuts, so the peak is one tuple of 1,500 pointers
    # per class and side, what the same call takes on one member (the
    # grid-length lists, parts and keys) and 1 MiB. One tuple per grid
    # level and side would take 24 MB a side
    seq = collapse_family(SP1, 1501).members[1:]
    limit = two_level()
    grid = default_alpha_grid(limit, 2000)
    stored = np.unique([a for u in (*seq, limit) for a, _ in u.levels])
    classes = len(set(zip(np.searchsorted(stored, grid, "left"), np.searchsorted(stored, grid, "right"))))
    assert classes <= 100
    for call, sides in ((gamma_diagnostic, 2), (levelwise_profile, 1)):
        per_grid = traced_peak(call, seq[:1], limit, grid)
        assert traced_peak(call, seq, limit, grid) <= sides * classes * len(seq) * 8 + per_grid + (1 << 20)
