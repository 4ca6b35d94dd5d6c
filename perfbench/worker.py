"""One benchmark process: load a workload's documents, then run its command
list in a closed loop through `fuzzymetrics.cli.main(argv)` with stdout
captured, and check every output.

Started by run.py in a fresh interpreter. It prints `ready` once fuzzymetrics
is imported and every document has been loaded once (run.py times set-up up
to that line), and its result as one JSON line at the end. With --setup-only
it stops after `ready`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from speed import probe, scaled  # noqa: E402
from workloads import command_argvs  # noqa: E402


def _run_command(cli, argv: list[str]) -> tuple[int, str, str | None]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as e:  # a crash is a failed command, not a failed benchmark
        return -1, buf.getvalue(), f"raised {type(e).__name__}: {e}"
    return rc, buf.getvalue(), None


def run_batch(cli, commands) -> tuple[float, list[float], list[float], list[tuple[int, str, str | None]]]:
    """Run every command once, in order, with a speed probe before the first
    and after each command. Return the scaled seconds (each command's wall
    time scaled by the probes around it, see speed.py), the commands' wall
    seconds, the probe seconds and the results."""
    walls = []
    probes = [probe()]
    results = []
    for _, argv, _ in commands:
        t0 = time.perf_counter()
        results.append(_run_command(cli, argv))
        walls.append(time.perf_counter() - t0)
        probes.append(probe())
    total = sum(scaled(w, probes[i], probes[i + 1]) for i, w in enumerate(walls))
    return total, walls, probes, results


def check_batch(commands, results, docs, recorded) -> tuple[list[str | None], bool]:
    """Per-command failure reasons, and whether every corrupted copy of each
    output was rejected (the check is live)."""
    reasons = []
    live = True
    for (label, argv, expected), (rc, text, crash) in zip(commands, results):
        doc = docs[argv[1]]
        rec = recorded.get(label) if recorded is not None else None
        reasons.append(crash or checks.check(argv, expected, rc, text, doc, rec))
        if crash is None:
            for what, bad_rc, bad_text in checks.corruptions(argv, rc, text):
                if checks.check(argv, expected, bad_rc, bad_text, doc, None) is None:
                    print(f"check is dead: corrupted {what} of {label} passed", file=sys.stderr)
                    live = False
    return reasons, live


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--docs", required=True, help="JSON list, per instance: placeholder -> document path")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--recorded", default=None, help="digests.json entry for this workload, as JSON")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    instances = json.loads(args.docs)

    import fuzzymetrics
    from fuzzymetrics import cli

    for path in instances[0].values():
        fuzzymetrics.load_document(path)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    commands = [command_argvs(args.workload, paths) for paths in instances]
    docs = {}
    for paths in instances:
        for path in paths.values():
            with open(path, encoding="utf-8") as fh:
                docs[path] = json.load(fh)
    recorded = json.loads(args.recorded) if args.recorded else [None] * len(instances)

    batch_s: list[float] = []
    steps: list[dict] = []
    first: list = [None] * len(instances)  # per instance: (exit code, digest) of each command
    reasons: list = [None] * len(instances)  # per instance: failure reason of each command
    live = True
    attempted = failed = 0
    start = time.perf_counter()
    # whole cycles only, so every instance weighs the same in the median
    while not batch_s or time.perf_counter() - start < args.seconds or len(batch_s) % len(instances):
        k = len(batch_s) % len(instances)
        dt, walls, probes, results = run_batch(cli, commands[k])
        batch_s.append(dt)
        steps.append({"instance": k, "wall_s": walls, "probe_s": probes})
        outputs = [(rc, checks.digest(text)) for rc, text, _ in results]
        if first[k] is None:
            first[k] = outputs
            reasons[k], ok = check_batch(commands[k], results, docs, recorded[k])
            live = live and ok
            this = reasons[k]
        else:
            # a repeated instance must repeat its checked first batch byte for byte
            this = [why or (None if out == f else "output differs from the first batch of this instance")
                    for why, out, f in zip(reasons[k], outputs, first[k])]
        attempted += len(this)
        failed += sum(1 for why in this if why)
        for (label, _, _), why in zip(commands[k], this):
            if why:
                print(f"{args.workload}[{k}]/{label}: {why}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "batch_s": batch_s,
        "steps": steps,
        "attempted": attempted,
        "failed": failed,
        "checks_live": live,
        "peak_rss_mb": peak_rss_mb,
        "module": fuzzymetrics.__file__,
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_s, _, _, results = run_batch(cli, commands[0])
        finally:
            tracer.uninstall()
        same = [(rc, checks.digest(text)) for rc, text, _ in results] == first[0]
        if not same:
            print("traced outputs differ from the untraced ones", file=sys.stderr)
        spans_path = os.path.join(os.path.dirname(next(iter(instances[0].values()))), "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        untraced = statistics.median(dt for dt, st in zip(batch_s, steps) if st["instance"] == 0)
        out["trace"] = {
            "overhead_frac": traced_s / untraced - 1.0,
            "same_output": same,
            "layers": tracer.layer_metrics(),
            "spans": tracer.span_summary(),
        }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
