import pytest

from fuzzymetrics import (
    InputError,
    Verdict,
    cauchy_limit_construct,
    directed_hausdorff,
    eps_net,
    finite_set,
    hausdorff,
    kuratowski_tail_diagnostic,
    union_family,
)
from fuzzymetrics.common import TOL
from helpers import SP1, SP2


def pts(s):
    return sorted(s.array[:, 0].tolist())


def test_directed_identical():
    a = finite_set(SP1, [0.0])
    assert directed_hausdorff(a, a) == 0.0


def test_directed_asymmetry():
    a = finite_set(SP1, [0.0, 3.0])
    b = finite_set(SP1, [0.0])
    # exhaustive min-max over the four ordered pairs
    assert directed_hausdorff(a, b) == 3.0
    assert directed_hausdorff(b, a) == 0.0


def test_hausdorff_examples():
    a = finite_set(SP1, [0.0, 3.0])
    b = finite_set(SP1, [0.0])
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == 3.0
    assert hausdorff(finite_set(SP1, [0.0]), finite_set(SP1, [1.0])) == 1.0


def test_hausdorff_large_sets_match_small_path():
    xs = [0.01 * k for k in range(30)]
    ys = [0.01 * k + 0.5 for k in range(40)]
    a, b = finite_set(SP1, xs), finite_set(SP1, ys)
    # same answer from the array path and a hand fold
    direct = max(min(abs(x - y) for y in ys) for x in xs)
    other = max(min(abs(x - y) for x in xs) for y in ys)
    assert hausdorff(a, b) == pytest.approx(max(direct, other), abs=1e-12)


def test_space_mismatch_rejected():
    with pytest.raises(InputError):
        hausdorff(finite_set(SP1, [0.0]), finite_set(SP2, [(0.0, 0.0)]))


def test_finite_set_dedup_and_nonempty():
    a = finite_set(SP1, [0.0, 0.0, 1.0])
    assert len(a) == 2
    with pytest.raises(InputError):
        finite_set(SP1, [])


def test_eps_net_singleton():
    a = finite_set(SP1, [0.0])
    assert pts(eps_net(a, 0.1)) == [0.0]


def test_eps_net_greedy_trace():
    a = finite_set(SP1, [0.0, 0.4, 1.0])
    assert pts(eps_net(a, 0.5)) == [0.0, 1.0]
    assert pts(eps_net(a, 2.0)) == [0.0]


def test_eps_net_requires_positive_eps():
    with pytest.raises(InputError):
        eps_net(finite_set(SP1, [0.0]), 0.0)


def test_eps_net_covers_and_is_subset():
    a = finite_set(SP1, [0.0, 0.3, 0.7, 1.1, 1.2, 2.5])
    for eps in (0.2, 0.5, 1.0):
        net = eps_net(a, eps)
        assert directed_hausdorff(net, a) <= TOL
        centers = net.array[:, 0].tolist()
        assert all(min(abs(x - c) for c in centers) <= eps for x in a.array[:, 0].tolist())


def test_covering_number_examples():
    assert len(eps_net(finite_set(SP1, [0.0]), 0.25)) == 1
    assert len(eps_net(finite_set(SP1, [0.0, 0.4, 1.0]), 0.5)) == 2
    ints = finite_set(SP1, [float(k) for k in range(1, 11)])
    assert len(eps_net(ints, 0.4)) == 10


def test_covering_number_monotone_in_eps():
    a = finite_set(SP1, [0.0, 0.3, 0.7, 1.1, 1.2, 2.5])
    values = [len(eps_net(a, eps)) for eps in (0.1, 0.2, 0.4, 0.8, 1.6, 3.2)]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_union_family():
    assert pts(union_family([finite_set(SP1, [0.0])])) == [0.0]
    assert pts(union_family([finite_set(SP1, [0.0]), finite_set(SP1, [3.0])])) == [0.0, 3.0]
    got = union_family([finite_set(SP1, [0.0, 1.0]), finite_set(SP1, [1.0, 2.0])])
    assert pts(got) == [0.0, 1.0, 2.0]
    with pytest.raises(InputError):
        union_family([])


def test_kuratowski_reciprocal_sequence():
    prefix = [finite_set(SP1, [1.0 / n]) for n in range(1, 101)]
    target = finite_set(SP1, [0.0])
    diag = kuratowski_tail_diagnostic(prefix, target, window=10, tol=0.05)
    assert diag.verdict is Verdict.PASS
    assert max(diag.evidence["limsup_excess"][-10:]) == pytest.approx(1.0 / 91.0, abs=1e-12)
    assert max(diag.evidence["liminf_deficit"][-10:]) == pytest.approx(1.0 / 91.0, abs=1e-12)


def test_kuratowski_constant_sequence():
    c = finite_set(SP1, [0.0, 2.0])
    diag = kuratowski_tail_diagnostic([c] * 30, c, window=5, tol=1e-3)
    assert diag.verdict is Verdict.PASS
    assert set(diag.evidence["liminf_deficit"]) == {0.0}
    assert set(diag.evidence["limsup_excess"]) == {0.0}


def test_kuratowski_alternating_fails():
    target = finite_set(SP1, [0.0])
    prefix = [finite_set(SP1, [0.0]) if n % 2 == 0 else finite_set(SP1, [1.0]) for n in range(40)]
    diag = kuratowski_tail_diagnostic(prefix, target, window=10, tol=0.5)
    assert diag.verdict is Verdict.FAIL


def test_kuratowski_inconclusive_band():
    target = finite_set(SP1, [0.0])
    prefix = [finite_set(SP1, [0.0015])] * 20
    diag = kuratowski_tail_diagnostic(prefix, target, window=5, tol=1e-3)
    assert diag.verdict is Verdict.INCONCLUSIVE


def test_kuratowski_window_validation():
    prefix = [finite_set(SP1, [0.0])] * 3
    with pytest.raises(InputError):
        kuratowski_tail_diagnostic(prefix, finite_set(SP1, [0.0]), window=4)


def test_cauchy_construct_growing_pairs():
    prefix = [finite_set(SP1, [0.0, float(n)]) for n in range(1, 6)]
    partial, limit, residuals = cauchy_limit_construct(prefix)
    assert pts(limit) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert residuals == [4.0, 3.0, 2.0, 1.0, 0.0]
    assert len(partial) == 5


def test_cauchy_construct_geometric():
    prefix = [finite_set(SP1, [1.0 - 2.0 ** -n]) for n in range(1, 21)]
    _, _, residuals = cauchy_limit_construct(prefix)
    expected = [2.0 ** -n - 2.0 ** -20 for n in range(1, 21)]
    assert residuals == expected
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] == 0.0


def test_cauchy_construct_constant():
    c = finite_set(SP1, [0.0, 1.0])
    _, limit, residuals = cauchy_limit_construct([c] * 4)
    assert pts(limit) == [0.0, 1.0]
    assert residuals == [0.0, 0.0, 0.0, 0.0]


def test_hausdorff_tail_implies_kuratowski_pass():
    # whenever the two-sided tail passes, the diagnostic passes at the same tol
    target = finite_set(SP1, [0.0, 1.0])
    prefix = [finite_set(SP1, [1.0 / n ** 2, 1.0 + 1.0 / n ** 2]) for n in range(1, 61)]
    series = [hausdorff(c, target) for c in prefix]
    window, tol = 6, 1e-3
    assert max(series[-window:]) < tol
    diag = kuratowski_tail_diagnostic(prefix, target, window=window, tol=tol)
    assert diag.verdict is Verdict.PASS


def test_family_greedy_net_under_hausdorff_covers():
    # greedy net in the hyperspace: every member within eps of some center
    family = [finite_set(SP1, [0.1 * k, 1.0 + 0.1 * k]) for k in range(10)]
    eps = 0.35
    centers = []
    for s in family:
        if all(hausdorff(s, c) > eps for c in centers):
            centers.append(s)
    assert centers
    assert all(min(hausdorff(s, c) for c in centers) <= eps for s in family)
    # and the pointwise union is coverable with a net no larger than itself
    union = union_family(family)
    assert len(eps_net(union, eps)) <= len(union)
