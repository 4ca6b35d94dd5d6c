import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import reference_pointwise as ref
from fuzzymetrics import Certificate, Verdict
from fuzzymetrics.certificates import TailPart
from fuzzymetrics.cli import _compactness_csv, _convergence_csv, build_parser, main
from fuzzymetrics.common import fmt


@pytest.fixture()
def doc_path(tmp_path):
    data = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [
            {"name": "u0", "levels": [{"alpha": 1.0, "points": [[0.0]]}]},
            {"name": "u3", "levels": [{"alpha": 1.0, "points": [[3.0]]}]},
            {
                "name": "uA",
                "levels": [
                    {"alpha": 1.0, "points": [[0.0]]},
                    {"alpha": 0.5, "points": [[0.0], [1.0]]},
                ],
            },
        ],
        "families": [
            {"name": "col", "generator": {"kind": "collapse", "count": 150}},
            {"name": "tr", "generator": {"kind": "translates", "count": 30}},
            {"name": "iv", "generator": {"kind": "crisp_intervals"}},
            {"name": "fixed", "members": ["u0", "uA"]},
        ],
        "sequences": [{"name": "alt", "members": ["u0", "u3"] * 10}],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_metrics_send_matrix(capsys, doc_path):
    code, out = run(capsys, "metrics", doc_path, "--kind", "send")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,u0,u3,uA"
    assert lines[1] == "u0,0,3,1"
    assert lines[2] == "u3,3,0,3"
    assert lines[3].startswith("uA,1,3,0")


def test_metrics_end_matrix(capsys, doc_path):
    code, out = run(capsys, "metrics", doc_path, "--kind", "end")
    assert code == 0
    assert out.splitlines()[1] == "u0,0,1,0.5"


def test_metrics_level_kind(capsys, doc_path):
    code, out = run(capsys, "metrics", doc_path, "--kind", "level:0.5")
    assert code == 0
    assert out.splitlines()[1] == "u0,0,3,1"


def test_metrics_unknown_kind(capsys, doc_path):
    code, _ = run(capsys, "metrics", doc_path, "--kind", "nope")
    assert code == 2


def test_metrics_determinism(capsys, doc_path):
    _, first = run(capsys, "metrics", doc_path, "--kind", "end")
    _, second = run(capsys, "metrics", doc_path, "--kind", "end")
    assert first == second


def test_converge_send_collapse(capsys, doc_path):
    code, out = run(
        capsys, "converge", doc_path, "--sequence", "col", "--limit", "u0",
        "--mode", "send", "--tol", "0.01",
    )
    assert code == 1
    assert "verdict,H_send,,FAIL" in out
    assert "verdict,H_end,,PASS" in out
    assert "verdict,H_cut0,,FAIL" in out
    assert "verdict,identity,,PASS" in out


def test_converge_end_mode(capsys, tmp_path):
    data = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [{"name": "u0", "levels": [{"alpha": 1.0, "points": [[0.0]]}]}],
        "families": [{"name": "col", "generator": {"kind": "collapse", "count": 400}}],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out = run(
        capsys, "converge", str(path), "--sequence", "col", "--limit", "u0",
        "--mode", "end", "--tol", "0.01",
    )
    assert code == 0
    assert "verdict,H_end,,PASS" in out


def test_converge_level_mode_prints_excluded_platform(capsys, doc_path):
    code, out = run(
        capsys, "converge", doc_path, "--sequence", "alt", "--limit", "uA", "--mode", "level",
    )
    assert code == 1
    assert "excluded_alpha,platform,1,0.5" in out
    assert "verdict,overall,,FAIL" in out


def test_converge_gamma_constant(capsys, tmp_path):
    data = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [{"name": "u0", "levels": [{"alpha": 1.0, "points": [[0.0]]}]}],
        "sequences": [{"name": "c", "members": ["u0"] * 12}],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out = run(capsys, "converge", str(path), "--sequence", "c", "--limit", "u0", "--mode", "gamma")
    assert code == 0
    assert "verdict,overall,,PASS" in out


def test_converge_emit_json(capsys, doc_path, tmp_path):
    report = tmp_path / "report.json"
    code, _ = run(
        capsys, "converge", doc_path, "--sequence", "col", "--limit", "u0",
        "--mode", "send", "--tol", "0.01", "--emit-json", str(report),
    )
    assert code == 1
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["mode"] == "send"
    assert "FAIL" in payload["verdicts"]


# col tends to u0, where every mode exits 0 but send (its identity PASSes
# while its send and cut0 tails FAIL); alt alternates, so every mode exits 1
@pytest.mark.parametrize("sequence,limit", [("col", "u0"), ("alt", "uA")])
@pytest.mark.parametrize("mode", ["end", "send", "gamma", "level"])
def test_converge_emit_json_carries_the_csv_decisions(capsys, doc_path, tmp_path, mode, sequence, limit):
    report = tmp_path / "report.json"
    code, out = run(
        capsys, "converge", doc_path, "--sequence", sequence, "--limit", limit, "--mode", mode,
        "--alpha-grid", "7", "--tol", "0.01", "--emit-json", str(report),
    )
    payload = json.loads(report.read_text(encoding="utf-8"))
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [fmt(m) for part in payload["parts"] for m in part["tail_max"].values()] == [
        r[3] for r in rows if r[0] == "tail_max"]
    assert payload["verdicts"] == [r[3] for r in rows if r[0] == "verdict"]
    assert code == (0 if set(payload["verdicts"]) == {"PASS"} else 1)
    assert (payload["sequence"], payload["limit"], payload["mode"]) == (sequence, limit, mode)
    evidence = payload["evidence"]
    assert evidence["tol"] == [0.01] and len(evidence["window"]) == 1
    for part in payload["parts"]:
        for name in part["tail_max"]:
            assert len(evidence[name]) == (150 if sequence == "col" else 20)
    if mode in ("gamma", "level"):
        assert len(evidence["alpha_grid"]) == 7


def test_mistyped_document_exits_2_with_one_error_line(capsys, tmp_path):
    # this used to end in a TypeError traceback and exit 1, the FAIL code
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"space": {"type": "euclidean", "dim": 1}, "fuzzy_sets": 5}), encoding="utf-8")
    assert main(["metrics", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: document: fuzzy_sets must be a list\n"


def test_compact_tb_send_translates(capsys, doc_path):
    code, out = run(capsys, "compact", doc_path, "--family", "tr", "--mode", "tb_send", "--eps", "0.4")
    assert code == 1
    assert "field,verdict,,FAIL" in out
    assert "evidence,net_size[support],30,30" in out


def test_compact_closedness_witness(capsys, tmp_path):
    data = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [
            {
                "name": "cand",
                "levels": [{"alpha": 1.0, "points": [[round(0.01 * k, 2)] for k in range(31)]}],
            }
        ],
        "families": [{"name": "iv", "generator": {"kind": "crisp_intervals"}}],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out = run(
        capsys, "compact", str(path), "--family", "iv", "--mode", "closedness",
        "--candidate", "cand", "--tol", "0.02",
    )
    assert code == 1
    assert "field,verdict,,FAIL" in out
    # generated members are renamed family[k]; the nearest is the first one
    assert "iv[1]" in out


@pytest.mark.parametrize("argv", [
    ["compact", "DOC", "--family", "iv", "--mode", "tb_send", "--eps", "0.05"],
    ["gen", "DOC"],
], ids=["compact", "gen"])
def test_fine_crisp_grid_family_builds(capsys, tmp_path, argv):
    # its 30 intervals end at x that agree in 4 significant digits; building
    # the family failed on repeated member names, an exit 2 in every command
    data = {"space": {"type": "euclidean", "dim": 1},
            "families": [{"name": "iv", "generator": {"kind": "crisp_intervals",
                                                      "params": {"low": 0.3, "high": 0.3003, "step": 1e-5}}}]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out = run(capsys, *[str(path) if a == "DOC" else a for a in argv])
    assert code in (0, 1)
    assert out


def test_compact_closedness_requires_candidate(capsys, doc_path):
    code, _ = run(capsys, "compact", doc_path, "--family", "iv", "--mode", "closedness")
    assert code == 2


def test_compact_singleton_family_passes(capsys, doc_path):
    code, out = run(capsys, "compact", doc_path, "--family", "fixed", "--mode", "rel_send", "--eps", "0.5")
    assert code == 0
    assert "field,verdict,,PASS" in out


@pytest.mark.parametrize("mode", ["erc", "rel_send"])
def test_compact_passes_where_a_finite_diagonal_entry_exceeds_eps(capsys, tmp_path, mode):
    # d(0, 0) = 5e-10 is within TOL but above eps: the support's own pair is
    # skipped, not measured as far
    data = {
        "space": {"type": "finite", "matrix": [[5e-10, 1.0], [1.0, 5e-10]]},
        "fuzzy_sets": [{"name": "u", "levels": [{"alpha": 1.0, "points": [0]}, {"alpha": 0.5, "points": [0, 1]}]}],
        "families": [{"name": "f", "members": ["u"]}],
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out = run(capsys, "compact", str(path), "--family", "f", "--mode", mode, "--eps", "1e-12")
    assert code == 0
    assert "field,verdict,,PASS" in out
    assert "modulus,1,0.5\n" in out


def test_compact_emit_json(capsys, doc_path, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _ = run(
        capsys, "compact", doc_path, "--family", "col", "--mode", "erc",
        "--eps", "0.5", "--emit-json", str(cert_path),
    )
    assert code == 1
    payload = json.loads(cert_path.read_text(encoding="utf-8"))
    assert payload["kind"] == "ERC"
    assert payload["verdict"] == "FAIL"
    assert payload["evidence"]["modulus"][0] == 1.0


def test_oracle_subcommand(capsys, doc_path):
    code, out = run(capsys, "oracle", doc_path, "--resolution", "0.001")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "left,right,metric,closed_form,oracle,abs_diff,bound,status"
    assert all(line.endswith("PASS") for line in lines[1:])
    # three declared sets: three pairs, two metrics each
    assert len(lines) == 1 + 6


def test_oracle_writes_the_same_numbers_for_sets_declared_in_reverse(capsys, tmp_path):
    # b's first point lies within TOL of a's only point
    sets = [
        {"name": "a", "levels": [{"alpha": 1.0, "points": [[0.0]]}]},
        {"name": "b", "levels": [{"alpha": 1.0, "points": [[8e-10], [0.025]]}]},
        {"name": "c", "levels": [{"alpha": 1.0, "points": [[0.0]]}, {"alpha": 0.5, "points": [[0.0], [0.3]]}]},
    ]
    rows = []
    for order in (sets, sets[::-1]):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"space": {"type": "euclidean", "dim": 1}, "fuzzy_sets": order}), encoding="utf-8")
        code, out = run(capsys, "oracle", str(path), "--resolution", "0.1")
        assert code == 0
        rows.append({(frozenset(f[:2]), f[2]): f[3:] for f in (line.split(",") for line in out.splitlines()[1:])})
    assert len(rows[0]) == 6 and rows[0] == rows[1]


def test_gen_expands_and_reloads(capsys, doc_path, tmp_path):
    out_path = tmp_path / "expanded.json"
    code, _ = run(capsys, "gen", doc_path, "--out", str(out_path))
    assert code == 0
    from fuzzymetrics.document import parse_document

    expanded = json.loads(out_path.read_text(encoding="utf-8"))
    doc = parse_document(expanded)
    assert len(doc.family("col").members) == 150


def test_unknown_sequence_exits_2(capsys, doc_path):
    code, _ = run(capsys, "converge", doc_path, "--sequence", "ghost", "--limit", "u0", "--mode", "end")
    assert code == 2


def test_malformed_document_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    code, _ = run(capsys, "metrics", str(path), "--kind", "end")
    assert code == 2


def test_out_flag_writes_identical_bytes(capsys, doc_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["metrics", doc_path, "--kind", "send", "--out", str(a)]) == 0
    assert main(["metrics", doc_path, "--kind", "send", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_negative_seed_is_rejected_by_the_cli(capsys, doc_path):
    # the document parser used to report the flag's value as a field of the
    # document's random family
    assert main(["compact", doc_path, "--family", "tr", "--mode", "tb_send", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err and "nonnegative" in captured.err
    assert main(["gen", doc_path, "--seed", "0"]) == 0


# the modes that build no alpha grid: before the flag was checked at parse
# time, they ignored a bad --alpha-grid and exited on their verdicts
NON_GRID_MODES = [
    ["converge", "--sequence", "col", "--limit", "u0", "--mode", "end"],
    ["converge", "--sequence", "col", "--limit", "u0", "--mode", "send"],
    ["compact", "--family", "tr", "--mode", "tb_send", "--eps", "0.4"],
    ["compact", "--family", "tr", "--mode", "erc"],
    ["compact", "--family", "tr", "--mode", "rel_send"],
    ["compact", "--family", "fixed", "--mode", "closedness", "--candidate", "u0"],
]


@pytest.mark.parametrize("grid", ["0", "-5", str(10**8)])
@pytest.mark.parametrize("argv", NON_GRID_MODES, ids=lambda argv: f"{argv[0]}-{argv[argv.index('--mode') + 1]}")
def test_bad_alpha_grid_is_an_input_error_on_every_mode(capsys, doc_path, argv, grid):
    # the command itself is valid: with a good grid it exits on its verdicts
    assert main([argv[0], doc_path, *argv[1:], "--alpha-grid", "5"]) in (0, 1)
    capsys.readouterr()
    code = main([argv[0], doc_path, *argv[1:], "--alpha-grid", grid])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: alpha grid size must be an integer in 1..10000, got {grid}\n"


COMPACT_MODES = [
    ["compact", "--family", "iv", "--mode", "tb_end", "--eps", "0.05", "--alpha-grid", "5"],
    *(argv for argv in NON_GRID_MODES if argv[0] == "compact"),
]


def bad_flag_message(flag: str, value: str) -> str:
    if flag == "--window":
        return f"error: window must be an integer >= 1, got {int(value)}\n"
    return f"error: {flag[2:]} must be finite and positive, got {float(value)}\n"


@pytest.mark.parametrize(("flag", "value"), [*((flag, value) for flag in ("--eps", "--tol")
                                               for value in ("nan", "inf", "0", "-1")),
                                             ("--window", "0"), ("--window", "-3")])
@pytest.mark.parametrize("argv", COMPACT_MODES, ids=lambda argv: argv[argv.index("--mode") + 1])
def test_bad_eps_or_tol_is_an_input_error_on_every_compact_mode(capsys, doc_path, argv, flag, value):
    # closedness reads no --eps or --window and the other modes no --tol;
    # before these flags were checked ahead of the document, such a value
    # was ignored and the command exited on its verdict
    assert main([argv[0], doc_path, *argv[1:]]) in (0, 1)
    capsys.readouterr()
    code = main([argv[0], doc_path, *argv[1:], flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == bad_flag_message(flag, value)


def test_a_window_below_one_is_an_input_error_before_the_document_is_read(capsys, tmp_path):
    # the document does not exist, so only the window check can answer
    code = main(["converge", str(tmp_path / "missing.json"), "--sequence", "col", "--limit", "u0",
                 "--window", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == bad_flag_message("--window", "0")


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_out_path_is_an_input_error(capsys, doc_path, tmp_path, target):
    path = tmp_path / "no such dir" / "out.csv" if target == "missing" else tmp_path
    code = main(["metrics", doc_path, "--kind", "send", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_emit_json_path_is_an_input_error(capsys, doc_path, tmp_path, target):
    # the CSV is written first, so it stays on stdout; the exit code says
    # that the report was not
    path = tmp_path / "no such dir" / "report.json" if target == "missing" else tmp_path
    code = main(["compact", doc_path, "--family", "col", "--mode", "erc", "--eps", "0.5", "--emit-json", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out.startswith("record,key,index,value\n")
    assert captured.err.startswith(f"error: cannot write {path}: ") and captured.err.count("\n") == 1


SRC = Path(__file__).resolve().parent.parent / "src"


def test_commands_run_in_one_process_match_fresh_runs(capsys, monkeypatch, doc_path):
    # the parser is built once per process: a passing command, one that
    # argparse rejects (exit 2) and a passing one again keep the exit codes
    # and the stdout and stderr bytes that each has in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    commands = [["metrics", doc_path, "--kind", "send"],
                ["converge", doc_path, "--sequence", "alt", "--limit", "u0", "--mode", "sideways"],
                ["converge", doc_path, "--sequence", "col", "--limit", "u0", "--mode", "gamma", "--alpha-grid", "7"]]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    fresh = [subprocess.run([sys.executable, "-m", "fuzzymetrics.cli", *argv], capture_output=True, text=True,
                            timeout=60, env=env) for argv in commands]
    assert [p.returncode for p in fresh] == [0, 2, 0]
    in_process = []
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert "invalid choice: 'sideways'" in in_process[1][2]
    assert build_parser() is build_parser()


@st.composite
def keyed_series(draw):
    """Evidence as (key, series) pairs under unique keys: series objects that
    several keys share, and for each drawn object a distinct one of equal
    values, so (0.0,) can sit beside (-0.0,)."""
    values = st.sampled_from([0.0, -0.0, 1e-300, 28.0]) | st.floats()
    pool = [tuple(s) for s in draw(st.lists(st.lists(values, max_size=4), min_size=1, max_size=4))]
    pool += [tuple(list(s)) for s in pool]
    keys = draw(st.lists(st.text("abz=[].0", min_size=1, max_size=6), min_size=1, max_size=10, unique=True))
    return [(key, pool[draw(st.integers(0, len(pool) - 1))]) for key in keys]


SHARED = (1e-300, 28.0, -0.0)
EXAMPLE = [("shared", SHARED), ("again", SHARED), ("zero", tuple([0.0])), ("minus", tuple([-0.0])),
           ("equal", tuple(list(SHARED))), ("one", (28.0,)), ("again2", SHARED)]


@settings(max_examples=150)
@example(evidence=EXAMPLE, gridded=False, last="identity")
@given(evidence=keyed_series(), gridded=st.booleans(), last=st.sampled_from([None, "overall", "identity"]))
def test_series_and_evidence_text_matches_the_row_by_row_reference(evidence, gridded, last):
    # each distinct series object is formatted once, by identity: a writer
    # that keyed the bodies by value would print the (-0.0,) beside an
    # earlier (0.0,) as 0
    cert = Certificate(kind="K", verdict=Verdict.FAIL, evidence=dict(evidence), witness="w", note="n")
    params = {"family": "f", "eps": "0.5", "mode": "tb_end"}
    assert _compactness_csv(cert, params) == ref.compactness_csv(cert, params)
    # converge: parts of one or two series, as the end and send parts and
    # the gamma parts hold, and the limit's platform levels
    parts = tuple(TailPart(f"p{k}", list(Verdict)[k % 3], {key: float(len(s)) for key, s in evidence[k:k + 2]})
                  for k in range(0, len(evidence), 2))
    cert = Certificate(kind="K", verdict=Verdict.PASS, evidence={**dict(evidence), "platform": (0.5, -0.0)},
                       parts=parts)
    assert _convergence_csv(cert, gridded, last) == ref.convergence_csv(cert, gridded, last)
