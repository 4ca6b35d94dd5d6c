"""Output checks for the benchmark's commands.

`check` returns None for a correct output and a one-line reason otherwise.
At the recorded seed the stdout digest and exit code must equal the ones in
`digests.json`; at every seed the seed-independent properties below must
hold. `corruptions` yields damaged copies of an output, which `check` must
reject: the benchmark runs them every time so a dead check cannot pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from typing import Iterator

CERT_HEADER = ["record", "key", "index", "value"]
ORACLE_HEADER = ["left", "right", "metric", "closed_form", "oracle", "abs_diff", "bound", "status"]
ALPHA_GRID = 101


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_metrics(text: str, names: list[str]) -> str | None:
    rows = _rows(text)
    if rows[0] != ["name", *names] or [r[0] for r in rows[1:]] != names:
        return "matrix labels differ from the declared fuzzy sets"
    n = len(names)
    if any(len(r) != n + 1 for r in rows[1:]):
        return "matrix is not square"
    m = [[float(x) for x in r[1:]] for r in rows[1:]]
    scale = max(1.0, max(max(r) for r in m))
    for i in range(n):
        if m[i][i] != 0.0:
            return f"nonzero diagonal at {names[i]}"
        for j in range(n):
            if rows[1 + i][1 + j] != rows[1 + j][1 + i]:
                return f"asymmetric at ({names[i]}, {names[j]})"
            if i != j and m[i][j] <= 0.0:
                return f"distinct sets at distance {m[i][j]}"
            for k in range(n):
                if m[i][k] > m[i][j] + m[j][k] + 1e-7 * scale:
                    return f"triangle inequality fails at ({names[i]}, {names[k]}) via {names[j]}"
    return None


def _check_oracle(text: str, names: list[str], rc: int) -> str | None:
    rows = _rows(text)
    if rows[0] != ORACLE_HEADER:
        return "oracle header changed"
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    want = [(a, b, metric) for a, b in pairs for metric in ("end", "send")]
    if [tuple(r[:3]) for r in rows[1:]] != want:
        return "oracle rows do not cover every declared pair once per metric"
    for r in rows[1:]:
        closed, sampled, bound = float(r[3]), float(r[4]), float(r[6])
        if r[7] != "PASS" or abs(closed - sampled) > bound:
            return f"oracle disagrees with the closed form on {r[0]},{r[1]} ({r[2]})"
    if rc != 0:
        return f"all oracle rows PASS but exit code is {rc}"
    return None


def _check_converge(text: str, argv: list[str], rc: int, members: int) -> str | None:
    rows = _rows(text)
    if rows[0] != CERT_HEADER:
        return "converge header changed"
    mode = _flag(argv, "--mode")
    verdicts = {r[1]: r[3] for r in rows if r[0] == "verdict"}
    if mode in ("gamma", "level"):
        keys = [r[1] for r in rows if r[0] == "tail_max"]
        if len(keys) != ALPHA_GRID * (2 if mode == "gamma" else 1) or len(set(keys)) != len(keys):
            return f"{mode} report does not hold one tail per grid level"
        deciding = [verdicts.get("overall")]
    else:
        series: dict[str, int] = {}
        for r in rows:
            if r[0] == "series":
                series[r[1]] = series.get(r[1], 0) + 1
        if not series or any(n != members for n in series.values()):
            return f"series lengths {sorted(set(series.values()))} differ from the {members} members"
        deciding = list(verdicts.values())
    if not deciding or any(v not in ("PASS", "FAIL", "INCONCLUSIVE") for v in deciding):
        return "missing or unknown verdict"
    if rc != (0 if all(v == "PASS" for v in deciding) else 1):
        return f"exit code {rc} contradicts verdicts {deciding}"
    return None


def _check_compact(text: str, argv: list[str], rc: int, members: int) -> str | None:
    rows = _rows(text)
    if rows[0] != CERT_HEADER:
        return "compact header changed"
    fields = {r[1]: r[3] for r in rows if r[0] == "field"}
    evidence: dict[str, list[float]] = {}
    for r in rows:
        if r[0] == "evidence":
            evidence.setdefault(r[1], []).append(float(r[3]))
    verdict = fields.get("verdict")
    if verdict not in ("PASS", "FAIL", "INCONCLUSIVE"):
        return "missing verdict"
    if verdict == "FAIL" and not fields.get("witness"):
        return "FAIL without a witness"
    mode = _flag(argv, "--mode")
    if mode in ("tb_end", "tb_send", "rel_send"):
        nets = {k: v for k, v in evidence.items() if "net_size" in k}
        if mode == "tb_end" and len(nets) != ALPHA_GRID:
            return f"tb_end evidence has {len(nets)} levels, expected {ALPHA_GRID}"
        for k, v in nets.items():
            if len(v) != members or any(b < a for a, b in zip(v, v[1:])):
                return f"{k} is not one nondecreasing net size per member"
    if mode in ("erc", "rel_send"):
        mod = next(v for k, v in evidence.items() if k.endswith("modulus") and "family" not in k)
        fam = next(v for k, v in evidence.items() if k.endswith("family_modulus"))
        if len(mod) != members or fam != [min(mod)]:
            return "modulus series does not match the member count or its minimum"
    if mode == "closedness":
        dist = evidence.get("distance", [])
        if len(dist) != members or evidence.get("min_distance") != [min(dist)]:
            return "closedness distances do not match the member count or their minimum"
    if rc != (0 if verdict == "PASS" else 1):
        return f"exit code {rc} contradicts verdict {verdict}"
    return None


def _check_gen(text: str, doc: dict, rc: int) -> str | None:
    from fuzzymetrics import parse_document

    out = json.loads(text)
    counts = {f["name"]: f["generator"]["count"] for f in doc.get("families", [])}
    declared = len(doc.get("fuzzy_sets", []))
    got = {f["name"]: len(f["members"]) for f in out["families"]}
    if got != counts or len(out["fuzzy_sets"]) != declared + sum(counts.values()):
        return f"gen family sizes {got} differ from the generators {counts}"
    reloaded = parse_document(out)
    if {k: len(f.members) for k, f in reloaded.families.items()} != counts:
        return "gen output does not reload with the same member counts"
    if rc != 0:
        return f"gen exit code {rc}"
    return None


def check(argv: list[str], expected_rc: int | None, rc: int, text: str, doc: dict,
          recorded: dict | None) -> str | None:
    """Reason why this command's result is wrong, or None if it is correct.

    `doc` is the decoded document the command read; `recorded` holds the
    digest and exit code recorded at this seed, when there is one."""
    if recorded is not None:
        if rc != recorded["exit"]:
            return f"exit code {rc}, recorded {recorded['exit']}"
        if digest(text) != recorded["sha256"]:
            return "stdout differs from the recorded digest"
    if expected_rc is not None and rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc}"
    names = [f["name"] for f in doc.get("fuzzy_sets", [])]
    command = argv[0]
    try:
        if command == "metrics":
            return f"exit code {rc}" if rc != 0 else _check_metrics(text, names)
        if command == "oracle":
            return _check_oracle(text, names, rc)
        if command == "converge":
            return _check_converge(text, argv, rc, _member_count(doc, _flag(argv, "--sequence")))
        if command == "compact":
            return _check_compact(text, argv, rc, _member_count(doc, _flag(argv, "--family")))
        if command == "gen":
            return _check_gen(text, doc, rc)
    except (ValueError, IndexError, KeyError, StopIteration) as e:
        return f"unparsable output ({type(e).__name__}: {e})"
    return f"no check for command {command!r}"


def _member_count(doc: dict, family: str) -> int:
    gen = next(f["generator"] for f in doc["families"] if f["name"] == family)
    if "count" in gen:
        return gen["count"]
    p = gen["params"]  # crisp_intervals derives its count from the grid
    return int(round((p["high"] - p["low"]) / p["step"]))


def corruptions(argv: list[str], rc: int, text: str) -> Iterator[tuple[str, int, str]]:
    """Damaged copies of one result: (what was damaged, exit code, stdout)."""
    yield "exit code", 1 - rc if rc in (0, 1) else 0, text
    command = argv[0]
    if command == "metrics":
        lines = text.splitlines(keepends=True)
        cells = lines[1].rstrip("\n").split(",")
        cells[2] = repr(float(cells[2]) * 2.0 + 1.0)
        lines[1] = ",".join(cells) + "\n"
        yield "one matrix cell", rc, "".join(lines)
    elif command == "oracle":
        yield "one oracle status", rc, text.replace(",PASS\n", ",FAIL\n", 1)
    elif command == "converge":
        lines = text.splitlines(keepends=True)
        kind = "series," if any(x.startswith("series,") for x in lines) else "tail_max,"
        drop = next(i for i, x in enumerate(lines) if x.startswith(kind))
        yield f"one {kind[:-1]} row", rc, "".join(lines[:drop] + lines[drop + 1:])
    elif command == "compact":
        verdict = next(line for line in text.splitlines() if line.startswith("field,verdict,"))
        flipped = "field,verdict,,PASS" if verdict.endswith(",FAIL") else "field,verdict,,FAIL"
        yield "the verdict field", rc, text.replace(verdict, flipped, 1)
    elif command == "gen":
        out = json.loads(text)
        out["families"][0]["members"].pop()
        yield "one family member", rc, json.dumps(out, indent=2, sort_keys=True) + "\n"
