"""Baseline of the current program: repeated benchmark runs, summarized.

    python3 perfbench/baseline.py [--seeds 1,2,...] [--seconds S] [--out PATH]

Run from the repository root. For each workload it makes one untraced run
per seed and one traced run at the default seed (which also checks every
output against digests.json), then writes a JSON summary:
the median and quartiles of every end-to-end metric, the spread between runs
(interquartile range over median), the traced per-layer metrics, the layer
with the largest self time and, for every row of predictions.json, whether
the traced runs are consistent with it or contradict it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DEFAULT_SEED  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0])["environment"]
    detail = json.loads(lines[-2])
    result = json.loads(lines[-1])
    # raw wall time of a pass, unscaled, to show what the speed probe removes
    result["raw_wall_s"] = statistics.median(sum(step["wall_s"]) for step in detail["steps"])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if trace == 0),
          file=sys.stderr, flush=True)
    return env, result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def _weight(layers: dict, name: str) -> float:
    """A count as is; a time as its share of the traced pass, which is the
    sum of the layers' self times."""
    value = layers[name]
    if name.endswith("_s") or name.endswith(".s"):
        return value / sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    return value


def judge(row: dict, traced: dict[str, dict]) -> dict:
    """Check one prediction row against the traced per-layer metrics."""
    findings = []
    for name in row["metrics"]:
        on = [_weight(traced[w], name) for w in row["on"]]
        if min(on) <= 0:
            findings.append(f"{name} is zero on {row['on'][on.index(min(on))]}")
            continue
        for w in row["not_on"]:
            off = _weight(traced[w], name)
            if off > 0.1 * min(on):
                findings.append(f"{name} on {w} is {off / min(on):.2f} of its value on {row['on']}")
    return {**row, "status": "contradicted" if findings else "consistent", "findings": findings}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]

    out: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    traced: dict[str, dict] = {}
    for workload in WORKLOADS:
        per_metric: dict[str, list[float]] = {}
        raw_wall: list[float] = []
        runs = []
        for seed in seeds:
            env, result = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            raw_wall.append(result["raw_wall_s"])
        _, tr = run(workload, DEFAULT_SEED, seconds, 1)
        layers = {k: v["value"] for k, v in tr["metrics"].items()}
        traced[workload] = layers
        self_times = {layer: layers[f"{layer}.self_s"] for layer in LAYERS}
        out["environment"] = env
        out["workloads"][workload] = {
            "end_to_end": {name: summarize(v) for name, v in per_metric.items()},
            "unscaled_wall_s_per_pass": summarize(raw_wall),
            "ops_failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "all_correct": all(r["correct"] for r in runs) and tr["correct"],
            "traced": layers,
            "largest_self_time_layer": max(self_times, key=self_times.get),
        }
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    out["predictions"] = [judge(row, traced) for row in rows]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
