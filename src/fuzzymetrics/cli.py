"""Batch front door: metric matrices, convergence reports, compactness
certificates and oracle cross-checks over JSON documents, emitted as CSV.

Exit codes: 0 when every requested verdict is PASS, 1 when any verdict is
FAIL or INCONCLUSIVE, 2 on input errors. Output is deterministic for a fixed
document and flags: ordering follows input order, numbers are formatted with
9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from .certificates import Certificate, Verdict
from .common import InputError, check_grid_size, fmt
from .document import Document, dumps_document, load_document
from .families import (
    closedness_witness,
    erc_modulus,
    rel_compact_send_report,
    tb_end_report,
    tb_send_report,
)
from .metrics import (
    default_alpha_grid,
    endograph_convergence,
    endograph_oracle,
    gamma_diagnostic,
    graph_matrices,
    levelwise_profile,
    metric_matrix,
    send_decomposition_check,
    sendograph_oracle,
)

METRIC_KINDS = ("end", "send")
CONVERGE_MODES = ("gamma", "end", "send", "level")
COMPACT_MODES = ("tb_end", "tb_send", "erc", "rel_send", "closedness")

# How `converge` writes each mode's certificate: the prefix of its row
# labels, whether each series is written entry by entry, and the label of
# the row of the certificate's own verdict (None: its one part's verdict is
# the certificate's).
_CONVERGE_LAYOUT = {
    "end": ("H_", True, None),
    "send": ("H_", True, "identity"),
    "gamma": ("", False, "overall"),
    "level": ("", False, "overall"),
}

Report = tuple[str, list[Verdict], Certificate, dict]


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def run_metrics(doc: Document, kind: str) -> str:
    """Symmetric distance matrix over the declared fuzzy sets as CSV."""
    names = doc.declared
    if len(names) < 2:
        raise InputError("metrics needs at least 2 fuzzy sets")
    alpha = None
    if kind.startswith("level:"):
        try:
            alpha = float(kind.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad level kind {kind!r}") from None
        kind = "level"
    elif kind not in METRIC_KINDS:
        raise InputError(f"unknown metrics kind {kind!r}")
    d = metric_matrix([doc.fuzzy(n) for n in names], kind, alpha).tolist()
    return _csv([["name", *names]] + [[name, *map(fmt, row)] for name, row in zip(names, d)])


def run_convergence(
    doc: Document,
    sequence_name: str,
    limit_name: str,
    mode: str,
    alpha_grid: int = 101,
    window: int | None = None,
    tol: float = 1e-3,
) -> Report:
    """Convergence report for one sequence against a limit: the CSV text,
    the verdicts it states (they drive the exit code), the certificate and
    the report's parameters."""
    seq = doc.sequence(sequence_name)
    limit = doc.fuzzy(limit_name)
    if mode == "end":
        cert = endograph_convergence(seq, limit, window, tol)
    elif mode == "send":
        cert = send_decomposition_check(seq, limit, window, tol)
    elif mode == "gamma":
        cert = gamma_diagnostic(seq, limit, default_alpha_grid(limit, alpha_grid), window, tol)
    elif mode == "level":
        cert = levelwise_profile(seq, limit, default_alpha_grid(limit, alpha_grid), window, tol)
    else:
        raise InputError(f"unknown converge mode {mode!r}")
    prefix, series, last = _CONVERGE_LAYOUT[mode]
    rows = [["record", "key", "index", "value"]]
    platform = cert.evidence.get("platform", ())
    rows += [["excluded_alpha", "platform", str(k), fmt(p)] for k, p in enumerate(platform, 1)]
    verdicts = []
    for part in cert.parts:
        for name, m in part.tail_max.items():
            label = prefix + name
            if series:
                rows += [["series", label, str(n), fmt(x)] for n, x in enumerate(cert.evidence[name], 1)]
            rows.append(["tail_max", label, "", fmt(m)])
        rows.append(["verdict", prefix + part.key, "", part.verdict.value])
        verdicts.append(part.verdict)
    if last is not None:
        rows.append(["verdict", last, "", cert.verdict.value])
        verdicts.append(cert.verdict)
    params = {"sequence": sequence_name, "limit": limit_name, "mode": mode}
    return _csv(rows), verdicts, cert, {**params, "verdicts": [v.value for v in verdicts]}


def _tb_grid(n: int) -> tuple[float, ...]:
    # grid in (0,1]: includes 1.0
    check_grid_size(n)
    return tuple(k / n for k in range(1, n + 1))


def run_compactness(
    doc: Document,
    family_name: str,
    eps: float,
    mode: str,
    alpha_grid: int = 101,
    candidate: str | None = None,
    tol: float = 1e-3,
    window: int | None = None,
) -> Report:
    """Compactness-style certificate for one family: the CSV text, its
    verdict, the certificate and the report's parameters."""
    fam = doc.family(family_name)
    params = {"family": family_name, "eps": fmt(eps), "mode": mode}
    if mode == "tb_end":
        cert = tb_end_report(fam, eps, _tb_grid(alpha_grid), window)
    elif mode == "tb_send":
        cert = tb_send_report(fam, eps, window)
    elif mode == "erc":
        cert = erc_modulus(fam, eps, window)
    elif mode == "rel_send":
        cert = rel_compact_send_report(fam, eps, window)
    elif mode == "closedness":
        if candidate is None:
            raise InputError("closedness mode needs --candidate")
        cert = closedness_witness(fam, doc.fuzzy(candidate), "send", tol)
        params["candidate"] = candidate
        params["tol"] = fmt(tol)
    else:
        raise InputError(f"unknown compact mode {mode!r}")
    rows = [["record", "key", "index", "value"]]
    rows += [["field", k, "", v] for k, v in
             [("kind", cert.kind), ("verdict", cert.verdict.value), ("witness", cert.witness or ""),
              ("note", cert.note or ""), *params.items()]]
    for key, series in cert.evidence.items():
        rows += [["evidence", key, str(n), fmt(x)] for n, x in enumerate(series, 1)]
    return _csv(rows), [cert.verdict], cert, params


def run_oracle_check(doc: Document, resolution: float) -> tuple[str, list[Verdict]]:
    """Closed form vs sampling oracle for both metrics on all declared pairs."""
    names = doc.declared
    if len(names) < 2:
        raise InputError("oracle check needs at least 2 fuzzy sets")
    sets = [doc.fuzzy(n) for n in names]
    closed = [matrix.tolist() for matrix in graph_matrices(sets)]
    bound = 2.0 * resolution
    rows = [["left", "right", "metric", "closed_form", "oracle", "abs_diff", "bound", "status"]]
    verdicts: list[Verdict] = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            for metric, matrix, oracle_fn in zip(METRIC_KINDS, closed, (endograph_oracle, sendograph_oracle)):
                sampled = oracle_fn(sets[i], sets[j], resolution)
                diff = abs(matrix[i][j] - sampled)
                status = Verdict.PASS if diff <= bound else Verdict.FAIL
                verdicts.append(status)
                rows.append(
                    [names[i], names[j], metric, fmt(matrix[i][j]), fmt(sampled),
                     fmt(diff), fmt(bound), status.value]
                )
    return _csv(rows), verdicts


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(verdicts: Sequence[Verdict]) -> int:
    return 0 if all(v is Verdict.PASS for v in verdicts) else 1


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {seed}")
    return seed


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parsing leaves it as it is)."""
    parser = argparse.ArgumentParser(prog="fuzzymetrics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("document")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")
        p.add_argument("--seed", type=_seed, default=0, help="default seed for generators")

    p = sub.add_parser("metrics", help="pairwise distance matrix")
    common(p)
    p.add_argument("--kind", default="end", help="end, send or level:ALPHA")

    p = sub.add_parser("converge", help="convergence report for a sequence")
    common(p)
    p.add_argument("--sequence", required=True)
    p.add_argument("--limit", required=True)
    p.add_argument("--mode", choices=CONVERGE_MODES, default="end")
    p.add_argument("--alpha-grid", type=int, default=101)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--emit-json", default=None, help="also write a JSON report here")

    p = sub.add_parser("compact", help="compactness-style certificate for a family")
    common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=COMPACT_MODES, required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--alpha-grid", type=int, default=101)
    p.add_argument("--candidate", default=None)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--emit-json", default=None, help="also write the certificate as JSON here")

    p = sub.add_parser("oracle", help="closed form vs sampling oracle")
    common(p)
    p.add_argument("--resolution", type=float, default=1e-3)

    p = sub.add_parser("gen", help="expand generators and emit the document")
    common(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if "alpha_grid" in args:
            # every mode takes the flag, so every mode rejects a bad value,
            # before the document is read
            check_grid_size(args.alpha_grid)
        doc = load_document(args.document, default_seed=args.seed)
        cert = None
        if args.command == "metrics":
            text, verdicts = run_metrics(doc, args.kind), []
        elif args.command == "converge":
            text, verdicts, cert, params = run_convergence(
                doc, args.sequence, args.limit, args.mode,
                args.alpha_grid, args.window, args.tol,
            )
        elif args.command == "compact":
            text, verdicts, cert, params = run_compactness(
                doc, args.family, args.eps, args.mode,
                args.alpha_grid, args.candidate, args.tol, args.window,
            )
        elif args.command == "oracle":
            text, verdicts = run_oracle_check(doc, args.resolution)
        else:
            text, verdicts = dumps_document(doc) + "\n", []
        _write(text, args.out)
        if cert is not None and args.emit_json:
            report = {**params, **cert.to_json_dict()}
            _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.emit_json)
        return _exit_code(verdicts)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
