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
from typing import Sequence

from .certificates import Certificate, Verdict, check_window, tail_verdict
from .common import InputError, fmt
from .document import Document, dumps_document, load_document
from .families import (
    closedness_witness,
    erc_modulus,
    rel_compact_send_report,
    tb_end_report,
    tb_send_report,
)
from .fuzzy import platform_points
from .metrics import (
    default_alpha_grid,
    endograph_metric,
    endograph_oracle,
    endograph_series,
    gamma_diagnostic,
    levelwise_distance,
    levelwise_profile,
    send_decomposition_check,
    sendograph_metric,
    sendograph_oracle,
)

METRIC_KINDS = ("end", "send")
CONVERGE_MODES = ("gamma", "end", "send", "level")
COMPACT_MODES = ("tb_end", "tb_send", "erc", "rel_send", "closedness")


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def run_metrics(doc: Document, kind: str) -> str:
    """Symmetric distance matrix over the declared fuzzy sets as CSV."""
    names = doc.declared
    if len(names) < 2:
        raise InputError("metrics needs at least 2 fuzzy sets")
    if kind == "end":
        dist = endograph_metric
    elif kind == "send":
        dist = sendograph_metric
    elif kind.startswith("level:"):
        try:
            alpha = float(kind.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad level kind {kind!r}") from None
        if not 0.0 < alpha <= 1.0:
            raise InputError(f"alpha {alpha} outside (0,1]")
        dist = lambda u, v: levelwise_distance(u, v, alpha)  # noqa: E731
    else:
        raise InputError(f"unknown metrics kind {kind!r}")
    sets = [doc.fuzzy(n) for n in names]
    rows = [["name", *names]]
    for i, u in enumerate(sets):
        row = [names[i]]
        for j, v in enumerate(sets):
            if j < i:
                row.append(rows[1 + j][1 + i])
            elif j == i:
                row.append("0")
            else:
                row.append(fmt(dist(u, v)))
        rows.append(row)
    return _csv(rows)


def _series_rows(rows: list[list[str]], key: str, series: Sequence[float]) -> None:
    for n, x in enumerate(series, start=1):
        rows.append(["series", key, str(n), fmt(x)])


def run_convergence(
    doc: Document,
    sequence_name: str,
    limit_name: str,
    mode: str,
    alpha_grid: int = 101,
    window: int | None = None,
    tol: float = 1e-3,
) -> tuple[str, list[Verdict]]:
    """Convergence report for one sequence against a limit; returns the CSV
    text and the verdicts that drive the exit code."""
    seq = doc.sequence(sequence_name)
    limit = doc.fuzzy(limit_name)
    rows: list[list[str]] = [["record", "key", "index", "value"]]
    verdicts: list[Verdict] = []
    if mode == "end":
        w = check_window(len(seq), window)
        series = endograph_series(seq, limit)
        v, m = tail_verdict(series, w, tol)
        _series_rows(rows, "H_end", series)
        rows.append(["tail_max", "H_end", "", fmt(m)])
        rows.append(["verdict", "H_end", "", v.value])
        verdicts.append(v)
    elif mode == "send":
        cert = send_decomposition_check(seq, limit, window, tol)
        w = check_window(len(seq), window)
        for key in ("send", "end", "cut0"):
            series = cert.evidence[key]
            v, m = tail_verdict(series, w, tol)
            _series_rows(rows, f"H_{key}", series)
            rows.append(["tail_max", f"H_{key}", "", fmt(m)])
            rows.append(["verdict", f"H_{key}", "", v.value])
            verdicts.append(v)
        rows.append(["verdict", "identity", "", cert.verdict.value])
        verdicts.append(cert.verdict)
    elif mode == "gamma":
        diag = gamma_diagnostic(seq, limit, default_alpha_grid(limit, alpha_grid), window, tol)
        for a, m1, m2, v in zip(diag.alphas, diag.deficit_tail_maxima, diag.excess_tail_maxima,
                                diag.alpha_verdicts):
            rows.append(["tail_max", f"deficit[alpha={fmt(a)}]", "", fmt(m1)])
            rows.append(["tail_max", f"excess[alpha={fmt(a)}]", "", fmt(m2)])
            rows.append(["verdict", f"alpha={fmt(a)}", "", v.value])
        rows.append(["verdict", "overall", "", diag.verdict.value])
        verdicts.append(diag.verdict)
    elif mode == "level":
        profile = levelwise_profile(seq, limit, default_alpha_grid(limit, alpha_grid), window, tol)
        for k, p in enumerate(platform_points(limit), start=1):
            rows.append(["excluded_alpha", "platform", str(k), fmt(p)])
        for a, m, v in zip(profile.alphas, profile.tail_maxima, profile.alpha_verdicts):
            rows.append(["tail_max", f"alpha={fmt(a)}", "", fmt(m)])
            rows.append(["verdict", f"alpha={fmt(a)}", "", v.value])
        rows.append(["verdict", "overall", "", profile.verdict.value])
        verdicts.append(profile.verdict)
    else:
        raise InputError(f"unknown converge mode {mode!r}")
    return _csv(rows), verdicts


def _tb_grid(n: int) -> tuple[float, ...]:
    # grid in (0,1]: includes 1.0
    return tuple(k / n for k in range(1, n + 1))


def _certificate_rows(cert: Certificate, params: dict[str, str]) -> list[list[str]]:
    rows: list[list[str]] = [["record", "key", "index", "value"]]
    rows.append(["field", "kind", "", cert.kind])
    rows.append(["field", "verdict", "", cert.verdict.value])
    rows.append(["field", "witness", "", cert.witness or ""])
    rows.append(["field", "note", "", cert.note or ""])
    for k, v in params.items():
        rows.append(["field", k, "", v])
    for key, series in cert.evidence.items():
        for n, x in enumerate(series, start=1):
            rows.append(["evidence", key, str(n), fmt(x)])
    return rows


def run_compactness(
    doc: Document,
    family_name: str,
    eps: float,
    mode: str,
    alpha_grid: int = 101,
    candidate: str | None = None,
    tol: float = 1e-3,
    window: int | None = None,
) -> tuple[str, Certificate]:
    """Compactness-style certificate for one family as CSV."""
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
    return _csv(_certificate_rows(cert, params)), cert


def run_oracle_check(doc: Document, resolution: float) -> tuple[str, list[Verdict]]:
    """Closed form vs sampling oracle for both metrics on all declared pairs."""
    names = doc.declared
    if len(names) < 2:
        raise InputError("oracle check needs at least 2 fuzzy sets")
    bound = 2.0 * resolution
    rows = [["left", "right", "metric", "closed_form", "oracle", "abs_diff", "bound", "status"]]
    verdicts: list[Verdict] = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            u, v = doc.fuzzy(names[i]), doc.fuzzy(names[j])
            for metric, closed_fn, oracle_fn in (
                ("end", endograph_metric, endograph_oracle),
                ("send", sendograph_metric, sendograph_oracle),
            ):
                closed = closed_fn(u, v)
                sampled = oracle_fn(u, v, resolution)
                diff = abs(closed - sampled)
                status = Verdict.PASS if diff <= bound else Verdict.FAIL
                verdicts.append(status)
                rows.append(
                    [names[i], names[j], metric, fmt(closed), fmt(sampled),
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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        doc = load_document(args.document, default_seed=args.seed)
        if args.command == "metrics":
            _write(run_metrics(doc, args.kind), args.out)
            return 0
        if args.command == "converge":
            csv_text, verdicts = run_convergence(
                doc, args.sequence, args.limit, args.mode,
                args.alpha_grid, args.window, args.tol,
            )
            _write(csv_text, args.out)
            if args.emit_json:
                payload = {
                    "sequence": args.sequence,
                    "limit": args.limit,
                    "mode": args.mode,
                    "verdicts": [v.value for v in verdicts],
                }
                with open(args.emit_json, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            return _exit_code(verdicts)
        if args.command == "compact":
            csv_text, cert = run_compactness(
                doc, args.family, args.eps, args.mode,
                args.alpha_grid, args.candidate, args.tol, args.window,
            )
            _write(csv_text, args.out)
            if args.emit_json:
                with open(args.emit_json, "w", encoding="utf-8") as fh:
                    json.dump(cert.to_json_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
            return _exit_code([cert.verdict])
        if args.command == "oracle":
            csv_text, verdicts = run_oracle_check(doc, args.resolution)
            _write(csv_text, args.out)
            return _exit_code(verdicts)
        if args.command == "gen":
            text = dumps_document(doc) + "\n"
            _write(text, args.out)
            return 0
        raise InputError(f"unknown command {args.command!r}")
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
