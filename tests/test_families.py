import tracemalloc
from unittest import mock

import numpy as np
import pytest

from fuzzymetrics import (
    InputError,
    MetricSpace,
    Verdict,
    cauchy_tail_profile,
    closedness_witness,
    crisp,
    eps_net,
    erc_modulus,
    finite_set,
    fuzzy_family,
    make_fuzzy,
    rel_compact_send_report,
    same_representation,
    support,
    tb_end_report,
    tb_send_report,
    union_family,
)
from fuzzymetrics.generators import (
    collapse_family,
    crisp_interval,
    crisp_interval_family,
    random_family,
    translates_family,
)
from fuzzymetrics import families as families_module
from fuzzymetrics import sets as sets_module
from fuzzymetrics.common import fmt
from fuzzymetrics.metrics import _CutTable, closed_alpha_grid
from helpers import SP1, SP2, CountingSeries, family_union_cut, singleton, traced_peak, two_level


def xs(s):
    return sorted(s.array[:, 0].tolist())


GRID10 = tuple(k / 10 for k in range(1, 11))


def test_family_union_cut():
    fam1 = fuzzy_family([singleton(0.0)])
    assert xs(family_union_cut(fam1, 0.5)) == [0.0]
    fam2 = fuzzy_family([singleton(0.0), singleton(3.0)])
    assert xs(family_union_cut(fam2, 0.5)) == [0.0, 3.0]
    fam3 = fuzzy_family([two_level(), singleton(3.0)])
    assert xs(family_union_cut(fam3, 0.5)) == [0.0, 1.0, 3.0]


def test_family_requires_unique_names():
    with pytest.raises(InputError):
        fuzzy_family([singleton(0.0), singleton(1.0)], names=["a", "a"])


def test_tb_end_translates_fails_with_alpha_witness():
    fam = translates_family(SP1, 50)
    cert = tb_end_report(fam, 0.4, [0.5])
    assert cert.verdict is Verdict.FAIL
    assert "alpha=0.5" in cert.witness
    series = cert.evidence["net_size[alpha=0.5]"]
    assert series == tuple(float(k) for k in range(1, 51))


def test_tb_end_random_family_stabilizes():
    fam = random_family(SP1, 50, seed=0, box=(0.0, 1.0))
    cert = tb_end_report(fam, 0.5, [0.25, 0.5, 0.75])
    assert cert.verdict is Verdict.PASS
    for series in cert.evidence.values():
        assert series[-1] <= 3


def test_tb_end_alphas_of_one_cut_tuple_share_one_evidence_object():
    fam = random_family(SP1, 30, seed=0, box=(0.0, 1.0))
    alphas = closed_alpha_grid(101)
    cert = tb_end_report(fam, 0.5, alphas)
    ids = [tuple(row) for row in _CutTable(fam.members).at(alphas).tolist()]
    series = [cert.evidence[f"net_size[alpha={fmt(a)}]"] for a in alphas]
    first = {}
    for k, key in enumerate(ids):
        first.setdefault(key, k)
        assert series[k] is series[first[key]]
    assert 1 < len(first) < len(alphas)
    assert len({id(s) for s in series}) == len(first)


def test_tb_end_reads_the_cut_table_once_per_class_of_grid_levels():
    # 300 members store the 300 levels 1/n, so a 2,000-level grid falls into
    # at most 2 * 300 + 1 classes of levels that read the same cuts, and
    # one at() call reads one row per class
    fam = collapse_family(SP1, 300)
    at, rows = _CutTable.at, []

    def counting_at(self, alphas, strict=False):
        rows.append(len(alphas))
        return at(self, alphas, strict)

    with mock.patch.object(_CutTable, "at", counting_at):
        tb_end_report(fam, 0.5, closed_alpha_grid(2000))
    assert len(rows) == 1 and rows[0] <= 2 * 300 + 1


def test_tb_end_memory_follows_the_classes_not_the_grid():
    # a (grid x members) cut-id table of 5,000 collapse members at 2,000
    # levels, read as member-length tuples, peaked near 115 MB
    fam = collapse_family(SP1, 5000)
    assert traced_peak(tb_end_report, fam, 0.5, closed_alpha_grid(2000)) <= 32 << 20


def test_family_verdict_decides_each_distinct_series_once():
    fam = translates_family(SP1, 5)
    objects = [CountingSeries((1.0, 2.0, 2.0, 2.0, 2.0)), CountingSeries((1.0, 2.0, 3.0, 4.0, 5.0)),
               CountingSeries((1.0, 2.0, 3.0, 4.0, 5.0))]
    parts = [(f"alpha={k}", objects[k % 3]) for k in range(101)]
    cert = families_module._family_certificate("TB_END", fam, 3, parts, "increasing", families_module._GROWTH, {})
    assert [s.slices for s in objects] == [1, 1, 1]
    assert cert.verdict is Verdict.FAIL
    assert cert.witness == "alpha=1: net size strictly increasing along translates (last member t[5])"


def test_tb_end_singleton_family():
    fam = fuzzy_family([two_level()])
    cert = tb_end_report(fam, 0.3, GRID10)
    assert cert.verdict is Verdict.PASS
    for series in cert.evidence.values():
        assert len(series) == 1


def test_tb_send_translates_fails():
    fam = translates_family(SP1, 50)
    cert = tb_send_report(fam, 0.4)
    assert cert.verdict is Verdict.FAIL
    assert cert.evidence["net_size[support]"] == tuple(float(k) for k in range(1, 51))


def test_tb_send_bounded_family_passes():
    fam = random_family(SP1, 50, seed=1, box=(0.0, 1.0))
    cert = tb_send_report(fam, 0.5)
    assert cert.verdict is Verdict.PASS


def test_tb_send_matches_direct_union_covering():
    # the report is the same computation as covering the support union
    fam = fuzzy_family([two_level(), singleton(0.25), singleton(3.0)])
    cert = tb_send_report(fam, 0.4)
    direct = len(eps_net(union_family([support(u) for u in fam.members]), 0.4))
    assert cert.evidence["net_size[support]"] == (float(direct),)


def test_crisp_family_tb_end_equals_tb_send():
    members = [crisp(SP1, [0.0, float(k)]) for k in range(1, 21)]
    from fuzzymetrics.families import GeneratorTag

    fam = fuzzy_family(members, generator=GeneratorTag("translates", tuple(range(1, 21))))
    send_cert = tb_send_report(fam, 0.4)
    end_cert = tb_end_report(fam, 0.4, GRID10)
    assert end_cert.verdict == send_cert.verdict
    for series in end_cert.evidence.values():
        assert series == send_cert.evidence["net_size[support]"]


def test_erc_modulus_two_level():
    cert = erc_modulus(fuzzy_family([two_level()]), 0.1)
    assert cert.verdict is Verdict.PASS
    assert cert.evidence["modulus"] == (0.5,)
    assert cert.evidence["family_modulus"] == (0.5,)


def test_erc_modulus_crisp_family():
    fam = fuzzy_family([crisp(SP1, [0.0]), crisp(SP1, [0.0, 1.0])])
    cert = erc_modulus(fam, 0.25)
    assert cert.verdict is Verdict.PASS
    assert cert.evidence["modulus"] == (1.0, 1.0)


def test_erc_modulus_collapse_fails():
    fam = collapse_family(SP1, 50)
    cert = erc_modulus(fam, 0.5)
    assert cert.verdict is Verdict.FAIL
    assert cert.evidence["modulus"] == tuple(1.0 / n for n in range(1, 51))
    assert "decreasing" in cert.witness


def test_erc_modulus_monotone_in_eps():
    fam = collapse_family(SP1, 12)
    small = erc_modulus(fam, 0.25).evidence["modulus"]
    large = erc_modulus(fam, 2.0).evidence["modulus"]
    assert all(a <= b for a, b in zip(small, large))


def test_erc_modulus_reads_the_lowest_far_level_from_the_support_up():
    # cuts nested only within TOL: the top cut {5e-10} lies within eps of the
    # support {0, 1}, the cut {0} below it does not, so the modulus is the
    # level below that far cut, not the highest near level 1.0
    u = make_fuzzy([(1.0, finite_set(SP1, [5e-10])), (0.5, finite_set(SP1, [0.0])),
                    (0.2, finite_set(SP1, [0.0, 1.0]))])
    assert erc_modulus(fuzzy_family([u]), 0.9999999998).evidence["modulus"] == (0.2,)


def test_erc_modulus_measures_a_shared_support_once():
    # every collapse member holds the same support and the same two cuts, so
    # one (cut, support) pair is left once the support's own pair is skipped,
    # and no dense pass runs
    fam = collapse_family(SP1, 300)
    with mock.patch.object(families_module, "_pair_extrema", wraps=families_module._pair_extrema) as flat, \
            mock.patch.object(sets_module, "_segment_extrema", wraps=sets_module._segment_extrema) as dense:
        cert = erc_modulus(fam, 0.5)
    assert flat.call_count == 1 and len(flat.call_args.args[1]) == 1
    assert dense.call_count == 0
    assert cert.evidence["modulus"] == tuple(1.0 / n for n in range(1, 301))


def test_erc_modulus_skips_a_support_a_finite_diagonal_puts_beyond_eps():
    # d(0, 0) = 5e-10 > eps: measured against itself, the support would read
    # far; the cut {0} is 1.0 from the support {0, 1}, so the modulus is 0.5
    space = MetricSpace.finite([[5e-10, 1.0], [1.0, 5e-10]])
    fam = fuzzy_family([make_fuzzy([(1.0, finite_set(space, [0])), (0.5, finite_set(space, [0, 1]))])])
    for cert in (erc_modulus(fam, 1e-12), rel_compact_send_report(fam, 1e-12)):
        assert cert.verdict is Verdict.PASS
    assert erc_modulus(fam, 1e-12).evidence == {"modulus": (0.5,), "family_modulus": (0.5,)}


def test_erc_modulus_memory_stays_linear_in_the_cut_table():
    # about 10^4 distinct cuts: a cuts x cuts table alone would take 190 MB
    fam = random_family(SP1, 5000, 0)
    assert traced_peak(erc_modulus, fam, 0.1) <= 16 << 20


def test_rel_compact_collapse_fails_via_erc():
    cert = rel_compact_send_report(collapse_family(SP1, 50), 0.5)
    assert cert.verdict is Verdict.FAIL
    assert cert.witness.startswith("ERC:")
    assert "complete" in cert.note


def test_rel_compact_translates_fails_via_tb():
    cert = rel_compact_send_report(translates_family(SP1, 50), 0.4)
    assert cert.verdict is Verdict.FAIL
    assert cert.witness.startswith("TB:")


def test_rel_compact_fixed_family_passes():
    fam = fuzzy_family([two_level(), singleton(0.5), crisp(SP1, [0.0, 1.0])])
    cert = rel_compact_send_report(fam, 0.5)
    assert cert.verdict is Verdict.PASS


def test_closedness_witness_interval_family():
    fam = crisp_interval_family(SP1)
    candidate = crisp_interval(SP1, 0.0, 0.3, 0.01)
    cert = closedness_witness(fam, candidate, "send", 0.02)
    assert cert.verdict is Verdict.FAIL
    assert "iv[0.31]" in cert.witness
    assert cert.evidence["min_distance"][0] <= 0.02
    assert cert.evidence["discretization_bound"][0] == pytest.approx(0.005, abs=1e-12)
    assert "discretiz" in cert.note


def test_closedness_candidate_is_member():
    fam = crisp_interval_family(SP1)
    cert = closedness_witness(fam, fam.members[3], "send", 0.02)
    assert cert.verdict is Verdict.PASS
    assert cert.evidence["min_distance"][0] == 0.0


def test_closedness_candidate_far_away():
    fam = crisp_interval_family(SP1)
    cert = closedness_witness(fam, singleton(10.0), "send", 0.02)
    assert cert.verdict is Verdict.PASS
    assert cert.evidence["min_distance"][0] >= 9.0


def test_closedness_interval_family_totally_bounded_but_not_closed():
    # totally bounded in the hyperspace yet carrying a non-closedness witness
    fam = crisp_interval_family(SP1)
    assert tb_send_report(fam, 0.4).verdict is Verdict.PASS
    assert rel_compact_send_report(fam, 0.4).verdict is Verdict.PASS
    candidate = crisp_interval(SP1, 0.0, 0.3, 0.01)
    assert closedness_witness(fam, candidate, "send", 0.02).verdict is Verdict.FAIL


def test_closedness_rejects_unknown_metric():
    fam = crisp_interval_family(SP1)
    with pytest.raises(InputError):
        closedness_witness(fam, fam.members[0], "both", 0.02)


def test_cauchy_tail_geometric_passes_both_metrics():
    seq = [singleton(1.0 - 2.0 ** -n) for n in range(1, 21)]
    assert cauchy_tail_profile(seq, "send").verdict is Verdict.PASS
    assert cauchy_tail_profile(seq, "end").verdict is Verdict.PASS


def test_cauchy_tail_constant_passes():
    seq = [two_level()] * 10
    cert = cauchy_tail_profile(seq, "send")
    assert cert.verdict is Verdict.PASS
    assert set(cert.evidence["residual"]) == {0.0}


def test_cauchy_tail_alternating_fails():
    seq = [singleton(0.0) if n % 2 == 0 else singleton(1.0) for n in range(20)]
    cert = cauchy_tail_profile(seq, "send")
    assert cert.verdict is Verdict.FAIL
    assert "away from the tail" in cert.witness


def test_cauchy_tail_needs_three_members():
    with pytest.raises(InputError):
        cauchy_tail_profile([singleton(0.0)] * 2, "send")


def test_collapse_separates_end_from_send():
    # every positive-level union cut stays bounded while the support refuses
    # to settle: endograph tail converges, sendograph tail does not
    from fuzzymetrics import endograph_metric, sendograph_metric

    fam = collapse_family(SP1, 60)
    assert tb_end_report(fam, 0.4, GRID10).verdict is Verdict.PASS
    assert rel_compact_send_report(fam, 0.5).verdict is Verdict.FAIL
    limit = singleton(0.0)
    end_series = [endograph_metric(u, limit) for u in fam.members]
    send_series = [sendograph_metric(u, limit) for u in fam.members]
    assert end_series[-1] < 0.02
    assert set(send_series) == {1.0}


@pytest.mark.parametrize("space", [SP1, SP2])
def test_generated_members_pass_make_fuzzy_validation(space):
    # collapse_family and random_fuzzy build their members without
    # make_fuzzy, relying on nested-by-construction cuts
    members = list(collapse_family(space, 40).members)
    for seed in range(10):
        members += random_family(space, 20, seed, max_levels=6, max_points=9).members
    for u in members:
        assert same_representation(make_fuzzy(u.levels), u)


@pytest.mark.parametrize("space, count", [(SP1, 20000), (SP2, 8000)], ids=["1-D", "2-D"])
def test_random_family_build_peaks_near_what_it_keeps(space, count):
    # the draws hold one chunk of raw words as a Python list at a time and
    # the reserved word positions as one int64 array, so the peak stays
    # near the bytes the family keeps (about 1.25x); keeping every chunk's
    # list alive reads about 1.5x in 1-D and 1.65x in 2-D
    tracemalloc.start()
    try:
        fam = random_family(space, count, 0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fam.members) == count
    assert peak <= 1.6 * kept


@pytest.mark.parametrize(
    "space, start, step",
    [(SP1, 1.0, 1.0), (SP2, 1.0, 1.0), (SP1, 2.5, 0.0), (SP2, 0.0, 0.0), (SP1, -3.0, 0.75), (SP2, -1e3, 0.1)],
)
def test_translates_members_equal_crisp_singletons(space, start, step):
    fam = translates_family(space, 7, start, step)
    assert fam.generator.params == tuple(start + k * step for k in range(7))
    for offset, u in zip(fam.generator.params, fam.members):
        want = crisp(space, [[offset] + [0.0] * (space.dim - 1)])
        (a, cut), = u.levels
        (b, expected), = want.levels
        assert a == b == 1.0
        assert cut.array.dtype == expected.array.dtype and cut.array.shape == expected.array.shape
        assert cut.array.tobytes() == expected.array.tobytes()
        assert not cut.array.flags.writeable and not u.support_memberships.flags.writeable
        assert np.array_equal(u.support_memberships, want.support_memberships)
        assert u.support_memberships.dtype == want.support_memberships.dtype
        assert same_representation(make_fuzzy(u.levels), u)
