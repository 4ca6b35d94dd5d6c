"""Batch front door: metric matrices, convergence reports, compactness
certificates and oracle cross-checks over JSON documents, emitted as CSV.

Exit codes: 0 when every requested verdict is PASS, 1 when any verdict is
FAIL or INCONCLUSIVE, 2 on input errors. Output is deterministic for a fixed
document and flags: ordering follows input order, numbers are formatted with
9 significant digits.

Each subcommand binds a handler: (document, args) -> (CSV text, the verdicts
that drive the exit code, the certificate or None, the report parameters).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from .certificates import Certificate, Verdict
from .common import InputError, check_grid_size, check_integer, check_positive, fmt
from .document import Document, dumps_document, load_document
from .families import (
    closedness_witness,
    erc_modulus,
    rel_compact_send_report,
    tb_end_report,
    tb_send_report,
)
from .metrics import (
    closed_alpha_grid,
    default_alpha_grid,
    endograph_convergence,
    endograph_oracle,
    gamma_diagnostic,
    graph_series,
    levelwise_profile,
    metric_matrix,
    send_decomposition_check,
    sendograph_oracle,
)

# Each `converge` mode: its certificate, whether it takes an alpha grid (of
# --alpha-grid levels; else its rows are "H_<series>" and list each series)
# and the label of its own verdict row (None: its one part's verdict is it).
_CONVERGE = {
    "gamma": (gamma_diagnostic, True, "overall"),
    "end": (endograph_convergence, False, None),
    "send": (send_decomposition_check, False, "identity"),
    "level": (levelwise_profile, True, "overall"),
}

# Each `compact` mode: its certificate from (document, family, args), and
# whether it reads a --candidate, which its report then names with --tol.
_COMPACT = {
    "tb_end": (lambda doc, fam, a: tb_end_report(fam, a.eps, closed_alpha_grid(a.alpha_grid), a.window), False),
    "tb_send": (lambda doc, fam, a: tb_send_report(fam, a.eps, a.window), False),
    "erc": (lambda doc, fam, a: erc_modulus(fam, a.eps, a.window), False),
    "rel_send": (lambda doc, fam, a: rel_compact_send_report(fam, a.eps, a.window), False),
    "closedness": (lambda doc, fam, a: closedness_witness(fam, doc.fuzzy(a.candidate), "send", a.tol), True),
}


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _series_csv(record: str, key: str, series: Sequence[float], bodies: dict[int, list[str]]) -> str:
    """The rows `record,key,n,value` of one series, n from 1. The bodies
    `n,value` of each distinct series object are formatted once into
    `bodies`, by identity: equal tuples such as (0.0,) and (-0.0,) print
    differently. The caller keeps the series alive while `bodies` is used."""
    body = bodies.get(id(series))
    if body is None:
        body = bodies[id(series)] = [f"{n},{fmt(x)}\n" for n, x in enumerate(series, 1)]
    head = f"{record},{key},"
    return head + head.join(body) if body else ""


def run_metrics(doc: Document, args: argparse.Namespace) -> tuple:
    """Symmetric distance matrix over the declared fuzzy sets as CSV."""
    names = doc.declared
    if len(names) < 2:
        raise InputError("metrics needs at least 2 fuzzy sets")
    kind, alpha = args.kind, None
    if kind.startswith("level:"):
        try:
            alpha = float(kind.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad level kind {kind!r}") from None
        kind = "level"
    elif kind not in ("end", "send"):
        raise InputError(f"unknown metrics kind {kind!r}")
    d = metric_matrix([doc.fuzzy(n) for n in names], kind, alpha).tolist()
    return _csv([["name", *names]] + [[name, *map(fmt, row)] for name, row in zip(names, d)]), [], None, {}


def run_convergence(doc: Document, args: argparse.Namespace) -> tuple:
    """Convergence report for one sequence against a limit, by --mode."""
    seq = doc.sequence(args.sequence)
    limit = doc.fuzzy(args.limit)
    certify, gridded, last = _CONVERGE[args.mode]
    alphas = (default_alpha_grid(limit, args.alpha_grid),) if gridded else ()
    cert = certify(seq, limit, *alphas, args.window, args.tol)
    verdicts = [part.verdict for part in cert.parts] + ([] if last is None else [cert.verdict])
    params = {"sequence": args.sequence, "limit": args.limit, "mode": args.mode}
    return _convergence_csv(cert, gridded, last), verdicts, cert, {**params, "verdicts": [v.value for v in verdicts]}


def _convergence_csv(cert: Certificate, gridded: bool, last: str | None) -> str:
    """A convergence report's CSV: the limit's platform levels; then per
    part, for each of its series, the series' rows (only when not gridded,
    keyed "H_<series>" then) and its tail maximum, then the part's verdict;
    then the verdict row `last`, if any."""
    prefix = "" if gridded else "H_"
    rows = [["record", "key", "index", "value"]]
    platform = cert.evidence.get("platform", ())
    rows += [["excluded_alpha", "platform", str(k), fmt(p)] for k, p in enumerate(platform, 1)]
    text, bodies = [], {}
    for part in cert.parts:
        for name, m in part.tail_max.items():
            label = prefix + name
            if not gridded:
                text += [_csv(rows), _series_csv("series", label, cert.evidence[name], bodies)]
                rows = []
            rows.append(["tail_max", label, "", fmt(m)])
        rows.append(["verdict", prefix + part.key, "", part.verdict.value])
    if last is not None:
        rows.append(["verdict", last, "", cert.verdict.value])
    return "".join(text) + _csv(rows)


def run_compactness(doc: Document, args: argparse.Namespace) -> tuple:
    """Compactness-style certificate for one family, by --mode."""
    fam = doc.family(args.family)
    certify, takes_candidate = _COMPACT[args.mode]
    if takes_candidate and args.candidate is None:
        raise InputError("closedness mode needs --candidate")
    cert = certify(doc, fam, args)
    params = {"family": args.family, "eps": fmt(args.eps), "mode": args.mode}
    if takes_candidate:
        params.update(candidate=args.candidate, tol=fmt(args.tol))
    return _compactness_csv(cert, params), [cert.verdict], cert, params


def _compactness_csv(cert: Certificate, params: dict[str, str]) -> str:
    """A compactness certificate's CSV: its fields and the parameters, then
    every evidence series by key."""
    rows = [["record", "key", "index", "value"]]
    rows += [["field", k, "", v] for k, v in
             [("kind", cert.kind), ("verdict", cert.verdict.value), ("witness", cert.witness or ""),
              ("note", cert.note or ""), *params.items()]]
    bodies: dict[int, list[str]] = {}
    return _csv(rows) + "".join(_series_csv("evidence", key, series, bodies) for key, series in cert.evidence.items())


def run_oracle_check(doc: Document, args: argparse.Namespace) -> tuple:
    """Closed form vs sampling oracle for both metrics on all declared pairs."""
    names = doc.declared
    if len(names) < 2:
        raise InputError("oracle check needs at least 2 fuzzy sets")
    sets = [doc.fuzzy(n) for n in names]
    bound = 2.0 * args.resolution
    rows = [["left", "right", "metric", "closed_form", "oracle", "abs_diff", "bound", "status"]]
    verdicts: list[Verdict] = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            closed = graph_series([sets[i]], sets[j])
            for metric, (value,), oracle_fn in zip(("end", "send"), closed, (endograph_oracle, sendograph_oracle)):
                sampled = oracle_fn(sets[i], sets[j], args.resolution)
                diff = abs(value - sampled)
                status = Verdict.PASS if diff <= bound else Verdict.FAIL
                verdicts.append(status)
                rows.append([names[i], names[j], metric, *map(fmt, (value, sampled, diff, bound)), status.value])
    return _csv(rows), verdicts, None, {}


def _write(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from None


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

    def command(name: str, summary: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("document")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")
        p.add_argument("--seed", type=_seed, default=0, help="default seed for generators")
        p.set_defaults(handler=handler)
        return p

    p = command("metrics", "pairwise distance matrix", run_metrics)
    p.add_argument("--kind", default="end", help="end, send or level:ALPHA")

    p = command("converge", "convergence report for a sequence", run_convergence)
    p.add_argument("--sequence", required=True)
    p.add_argument("--limit", required=True)
    p.add_argument("--mode", choices=_CONVERGE, default="end")
    p.add_argument("--alpha-grid", type=int, default=101)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--emit-json", default=None, help="also write a JSON report here")

    p = command("compact", "compactness-style certificate for a family", run_compactness)
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=_COMPACT, required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--alpha-grid", type=int, default=101)
    p.add_argument("--candidate", default=None)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--emit-json", default=None, help="also write the certificate as JSON here")

    p = command("oracle", "closed form vs sampling oracle", run_oracle_check)
    p.add_argument("--resolution", type=float, default=1e-3)

    command("gen", "expand generators and emit the document",
            lambda doc, args: (dumps_document(doc) + "\n", [], None, {}))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        # every command that takes one of these flags rejects a bad value,
        # whether or not its mode uses it, before the document is read
        if "alpha_grid" in args:
            check_grid_size(args.alpha_grid)
        for name in ("eps", "tol"):
            if name in args:
                check_positive(name, getattr(args, name))
        if getattr(args, "window", None) is not None:
            check_integer("window", args.window, 1)
        text, verdicts, cert, params = args.handler(load_document(args.document, default_seed=args.seed), args)
        _write(text, args.out)
        if getattr(args, "emit_json", None):
            report = {**params, **cert.to_json_dict()}
            _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.emit_json)
        return 0 if all(v is Verdict.PASS for v in verdicts) else 1
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
