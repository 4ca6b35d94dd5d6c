"""fuzzymetrics benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload pairwise|certify|sequences \
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. The run
writes the workload's seeded documents under .perfbench_out/, times set-up in
fresh interpreters, then runs the workload's command list in a closed loop in
one fresh worker process for S seconds and checks every output.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones:
  batch_s      seconds of the whole command list, document loads included;
               median over the run's cycles of the mean over the instances
  setup_s      seconds from a fresh interpreter to fuzzymetrics imported and
               every document loaded once; median of SETUP_SAMPLES
  peak_rss_mb  peak resident memory of the worker process
Both times are wall times scaled by a speed probe run around every timed step
(speed.py), because the speed of a shared machine drifts by up to 40% within
a minute; the line before the result also holds the raw wall times. With
--trace 1 the metrics are the per-layer ones, from one traced batch after the
untraced loop (tracer.py). `--record-digests` rewrites digests.json from the
program in ./src at the default seed instead of measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import probe, scaled  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import TOUCHES, WORKLOADS, write_documents  # noqa: E402

DEFAULT_SEED = 0
SETUP_SAMPLES = 5  # fresh-interpreter set-ups per run
DIGESTS = os.path.join(HERE, "digests.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def pinned_env(root: str) -> dict[str, str]:
    """Environment for worker processes: the checkout's src first on the
    path, hash seed fixed, and every BLAS/OpenMP pool held to one thread so
    the single worker never runs more threads than the machine has cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment(root: str, env: dict[str, str]) -> dict:
    """Versions and pinning of this run, printed before the result line."""
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    sha = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def _start_worker(env: dict[str, str], args: list[str]) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    return proc, t0


def _read_ready(proc: subprocess.Popen, t0: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (got {line!r})")
    return time.perf_counter() - t0


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def setup_sample(env: dict[str, str], worker_args: list[str]) -> tuple[float, float]:
    """Scaled and raw wall seconds from starting a fresh worker to its
    `ready` line, with a speed probe right before and after."""
    before = probe()
    proc, t0 = _start_worker(env, [*worker_args, "--setup-only"])
    seconds = _read_ready(proc, t0)
    _finish(proc)
    return scaled(seconds, before, probe()), seconds


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    env = pinned_env(root)
    print(json.dumps({"environment": environment(root, env)}), flush=True)
    instances = write_documents(workload, seed, os.path.join(root, ".perfbench_out", f"{workload}-{seed}"))
    recorded = None
    if seed == DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)[workload]
    worker_args = ["--workload", workload, "--docs", json.dumps(instances)]

    setup_sample(env, worker_args)  # warm-up: byte-compiles src and fills the file cache
    setups = [setup_sample(env, worker_args) for _ in range(SETUP_SAMPLES)]
    run_args = [*worker_args, "--seconds", str(seconds), "--trace", str(int(trace))]
    if recorded is not None:
        run_args += ["--recorded", json.dumps(recorded)]
    proc, t0 = _start_worker(env, run_args)
    _read_ready(proc, t0)
    result = json.loads(_finish(proc).strip().splitlines()[-1])

    src = os.path.realpath(os.path.join(root, "src"))
    correct = (result["failed"] == 0 and result["checks_live"]
               and os.path.realpath(result["module"]).startswith(src + os.sep))
    if not trace:
        metrics = {
            "batch_s": {"value": statistics.median(cycle_means(result["batch_s"], len(instances))), "unit": "s"},
            "setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    else:
        traced = result["trace"]
        layers = dict(traced["layers"])
        idle = [layer for layer in TOUCHES[workload] if layers[f"{layer}.calls"] == 0]
        if idle:
            print(f"perfbench: traced run made no calls into {idle}", file=sys.stderr)
        # every wrapped call runs inside a cli.main root span, so the layers'
        # self times must add up to the root spans' durations
        self_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        adds_up = abs(self_sum - traced["spans"]["root_s"]) <= 1e-6 * traced["spans"]["root_s"]
        if not adds_up:
            print(f"perfbench: layer self times sum to {self_sum}, root spans to {traced['spans']['root_s']}",
                  file=sys.stderr)
        correct = correct and traced["same_output"] and not idle and adds_up
        layers["trace.overhead_frac"] = traced["overhead_frac"]
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    print(json.dumps({"batch_s": result["batch_s"], "steps": result["steps"],
                      "setup_s": [s for s, _ in setups], "setup_wall_s": [w for _, w in setups]}), flush=True)
    return {"correct": bool(correct), "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def cycle_means(batch_s: list[float], instances: int) -> list[float]:
    """Mean batch time of each whole cycle over the instances: the cost of
    one pass over every instance, so each instance weighs the same."""
    return [statistics.mean(batch_s[i:i + instances]) for i in range(0, len(batch_s), instances)]


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("temp_bytes_max"):
        return "B_computed"
    return "count"


def record_digests(root: str) -> None:
    """Rewrite digests.json: stdout digest and exit code of every command of
    every workload at the default seed, from the program in ./src."""
    sys.path.insert(0, os.path.join(root, "src"))
    import checks
    from fuzzymetrics import cli
    from workloads import command_argvs

    table = {}
    for workload in WORKLOADS:
        out_dir = os.path.join(root, ".perfbench_out", f"{workload}-{DEFAULT_SEED}")
        table[workload] = []
        for paths in write_documents(workload, DEFAULT_SEED, out_dir):
            entry = {}
            for label, argv, _ in command_argvs(workload, paths):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
                entry[label] = {"sha256": checks.digest(buf.getvalue()), "exit": rc}
            table[workload].append(entry)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fuzzymetrics", "cli.py")):
        print("perfbench: run from the repository root; ./src/fuzzymetrics is missing", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(root)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
