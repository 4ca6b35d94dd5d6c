"""Finite-matrix spaces end to end, INCONCLUSIVE verdict bands, and
cross-process output determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from fuzzymetrics import (
    InputError,
    MetricSpace,
    Verdict,
    cauchy_limit_construct,
    cauchy_tail_profile,
    closedness_witness,
    crisp,
    directed_hausdorff,
    endograph_convergence,
    endograph_metric,
    endograph_oracle,
    erc_modulus,
    finite_set,
    fuzzy_family,
    gamma_diagnostic,
    kuratowski_tail_diagnostic,
    levelwise_profile,
    make_fuzzy,
    metric_matrix,
    send_decomposition_check,
    sendograph_metric,
    sendograph_oracle,
    tb_send_report,
    union_family,
)
from fuzzymetrics.families import GeneratorTag
from fuzzymetrics.generators import collapse_family, crisp_interval_family
from helpers import SP1, singleton, two_level

PATH3 = MetricSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def test_finite_space_graph_metrics():
    u = make_fuzzy([(1.0, finite_set(PATH3, [0])), (0.5, finite_set(PATH3, [0, 1]))])
    v = crisp(PATH3, [2])
    # hand fold: the height-1 point at index 0 dominates the endograph side,
    # the base distance d(0,2)=2 dominates the sendograph side
    assert endograph_metric(u, v) == 1.0
    assert sendograph_metric(u, v) == 2.0
    assert metric_matrix([u, v], "level", 0.5)[0, 1] == 2.0


def test_finite_space_oracle_agreement():
    u = make_fuzzy([(1.0, finite_set(PATH3, [0])), (0.5, finite_set(PATH3, [0, 1]))])
    v = crisp(PATH3, [2])
    for res in (1e-3, 0.05):
        assert abs(endograph_metric(u, v) - endograph_oracle(u, v, res)) <= 2 * res
        assert abs(sendograph_metric(u, v) - sendograph_oracle(u, v, res)) <= 2 * res


def test_tb_send_wobbling_net_is_inconclusive():
    # at eps=0.1 the interval family's prefix nets step inside the window,
    # which is neither stabilized nor strictly growing
    cert = tb_send_report(crisp_interval_family(SP1), 0.1)
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_cauchy_tail_proximity_band_is_inconclusive():
    seq = [singleton(0.0)] * 19 + [singleton(0.0015)]
    cert = cauchy_tail_profile(seq, "send", tol=1e-3)
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_send_decomposition_band_is_inconclusive():
    seq = [singleton(0.0015)] * 20
    cert = send_decomposition_check(seq, singleton(0.0), tol=1e-3)
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_erc_wobbling_modulus_is_inconclusive():
    base = collapse_family(SP1, 5).members
    members = [base[0], base[1], base[1], base[2], base[2]]
    fam = fuzzy_family(members, names=list("abcde"), generator=GeneratorTag("manual", (1, 2, 2, 3, 3)))
    assert erc_modulus(fam, 0.5).verdict is Verdict.INCONCLUSIVE


def test_gamma_allows_platform_alphas():
    u = two_level()
    diag = gamma_diagnostic([u] * 12, u, alphas=[0.5])
    assert diag.verdict is Verdict.PASS


def test_csv_byte_identical_across_processes(tmp_path):
    doc = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [
            {"name": "a", "levels": [{"alpha": 1.0, "points": [[0.0]]}, {"alpha": 0.25, "points": [[0.0], [0.8]]}]},
            {"name": "b", "levels": [{"alpha": 1.0, "points": [[1.5]]}]},
        ],
        "families": [{"name": "r", "generator": {"kind": "random", "count": 12, "seed": 9}}],
    }
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for k in range(2):
        out = tmp_path / f"run{k}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzymetrics.cli", "compact", str(doc_path),
             "--family", "r", "--mode", "rel_send", "--eps", "0.5", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_finite_space_rejects_fractional_index():
    from fuzzymetrics import InputError

    with pytest.raises(InputError):
        finite_set(PATH3, [1.5])


def test_document_rejects_wrong_dimension_points(tmp_path):
    from fuzzymetrics import InputError
    from fuzzymetrics.document import load_document

    doc = {
        "space": {"type": "euclidean", "dim": 2},
        "fuzzy_sets": [{"name": "a", "levels": [{"alpha": 1.0, "points": [[0.0]]}]}],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError):
        load_document(str(path))


def test_document_rejects_out_of_range_index(tmp_path):
    from fuzzymetrics import InputError
    from fuzzymetrics.document import load_document

    doc = {
        "space": {"type": "finite", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        "fuzzy_sets": [{"name": "a", "levels": [{"alpha": 1.0, "points": [5]}]}],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError):
        load_document(str(path))


# u, w, and their supports a, b, with u on the line and w in the plane
MIXED_SPACE_CALLS = {
    "directed_hausdorff": lambda u, w, a, b: directed_hausdorff(a, b),
    "union_family": lambda u, w, a, b: union_family([a, b]),
    "kuratowski_tail_diagnostic": lambda u, w, a, b: kuratowski_tail_diagnostic([a, a], b),
    "cauchy_limit_construct": lambda u, w, a, b: cauchy_limit_construct([a, b]),
    "make_fuzzy": lambda u, w, a, b: make_fuzzy([(1.0, a), (0.5, b)]),
    "sendograph_metric": lambda u, w, a, b: sendograph_metric(u, w),
    "endograph_oracle": lambda u, w, a, b: endograph_oracle(u, w, 0.01),
    "sendograph_oracle": lambda u, w, a, b: sendograph_oracle(u, w, 0.01),
    "metric_matrix-end": lambda u, w, a, b: metric_matrix([u, w], "end"),
    "metric_matrix-send": lambda u, w, a, b: metric_matrix([u, w], "send"),
    "metric_matrix-level": lambda u, w, a, b: metric_matrix([u, w], "level", 0.5),
    "endograph_convergence": lambda u, w, a, b: endograph_convergence([u, u], w),
    "send_decomposition_check": lambda u, w, a, b: send_decomposition_check([u, u], w),
    "levelwise_profile": lambda u, w, a, b: levelwise_profile([u, u], w),
    "gamma_diagnostic": lambda u, w, a, b: gamma_diagnostic([u, u], w),
    "cauchy_tail_profile": lambda u, w, a, b: cauchy_tail_profile([u, u, w], "end"),
    "fuzzy_family": lambda u, w, a, b: fuzzy_family([u, w]),
    "closedness_witness": lambda u, w, a, b: closedness_witness(fuzzy_family([u]), w, "send", 0.1),
}


@pytest.mark.parametrize("name", MIXED_SPACE_CALLS)
def test_sets_of_different_spaces_are_rejected_by_every_entry_point(name):
    from fuzzymetrics import InputError, support

    u, w = singleton(0.0), crisp(MetricSpace.euclidean(2), [(0.0, 0.0)])
    with pytest.raises(InputError, match="different space"):
        MIXED_SPACE_CALLS[name](u, w, support(u), support(w))


def test_equal_spaces_of_distinct_objects_are_one_space():
    # identity answers first, but equal spaces built apart still agree
    a, b = finite_set(MetricSpace.euclidean(1), [0.0]), finite_set(MetricSpace.euclidean(1), [2.0])
    assert directed_hausdorff(a, b) == 2.0
    assert len(union_family([a, b])) == 2
    assert sendograph_metric(singleton(0.0), crisp(MetricSpace.euclidean(1), [1.0])) == 1.0
    # finite spaces built apart from equal matrices are one space too, and
    # hash alike; a different matrix is a different space
    rows = [[0.0, 1.0], [1.0, 0.0]]
    p, q = MetricSpace.finite(rows), MetricSpace.finite(np.array(rows))
    assert p is not q and p == q and hash(p) == hash(q)
    a, b = finite_set(p, [0]), finite_set(q, [1])
    assert directed_hausdorff(a, b) == 1.0
    assert len(union_family([a, b])) == 2
    other = MetricSpace.finite([[0.0, 2.0], [2.0, 0.0]])
    assert other != p and p != MetricSpace.euclidean(1)
    for apart in (directed_hausdorff, lambda x, y: union_family([x, y])):
        with pytest.raises(InputError, match="live in different spaces"):
            apart(a, finite_set(other, [1]))
