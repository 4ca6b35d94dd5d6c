import pytest

from fuzzymetrics import (
    InputError,
    Verdict,
    cauchy_tail_profile,
    closedness_witness,
    crisp,
    eps_net,
    erc_modulus,
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
from helpers import SP1, SP2, family_union_cut, singleton, two_level


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
