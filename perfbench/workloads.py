"""Seeded documents and fixed command lists for the three benchmark workloads.

Every document is built from the benchmark seed with `random.Random`, so the
same seed gives byte-identical JSON. The library only ever sees the written
JSON files. Each workload is a closed loop with one client: the commands run
one after the other, each starting when the previous one has returned.

One seed yields VARIANTS instances of each workload's documents, and a run
cycles through them batch by batch. The cost of the random families grows
faster than linearly with their point count, so a single instance per run
would make run-to-run spread mostly a matter of which seed was drawn.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("pairwise", "certify", "sequences")
VARIANTS = 4

# Why each workload exists. Kept next to the command lists so that a change
# to a workload has to face its reason. Every workload is sized so one pass
# over its commands takes about 3 s on a 2-vCPU x86-64 machine: a run then
# holds two cycles over the instances, and one pass of the largest sizes
# (about 10 s for `certify`) would leave one batch per instance per run.
WHY = {
    # Few calls on large sets. Loads the `space` kernel (Euclidean and the
    # finite gather path), dedup at load, `fuzzy.membership` and the
    # `metrics` closed forms and oracles. It never enters `families`.
    "pairwise": "few calls on large 2-D and finite-metric sets: space kernel, load dedup, memberships, closed forms and oracles",
    # Incremental unions and greedy nets. Prefix-union dedup and `eps_net`
    # do most of the work through per-point `space.distance`. The crisp
    # interval members make all 101 alpha cuts identical while the random
    # members have many distinct cuts, so a per-distinct-cut change shows on
    # one group and not on the other. The random `tb_end` family has 28
    # members: its cost grows about as members^2.8, and at 40 members the
    # seed alone moved it by +-25%.
    "certify": "family certificates: prefix-union dedup and greedy eps-nets through per-point distances",
    # Many calls on tiny sets. About 600k Hausdorff calls per pass on sets
    # of 1-6 points, so per-call dispatch dominates and `space.distance` is
    # almost idle. Same `sets`/`space` layers as `pairwise` at tiny n: a kernel that
    # wins at large n and loses at small n shows here.
    "sequences": "thousands of convergence steps on 1-6 point sets: per-call Hausdorff dispatch and CSV/JSON formatting",
}

# Commands per workload: (label, argv, expected exit code or None when only
# the recorded digest fixes it). `{name}` stands for the path of document
# `name` of the instance.
COMMANDS = {
    "pairwise": [
        ("metrics-end", ["metrics", "{euclid}", "--kind", "end"], 0),
        ("metrics-send", ["metrics", "{euclid}", "--kind", "send"], 0),
        ("metrics-level", ["metrics", "{euclid}", "--kind", "level:0.5"], 0),
        ("oracle-euclid", ["oracle", "{oracle}", "--resolution", "0.02"], 0),
        ("metrics-finite", ["metrics", "{finite}", "--kind", "end"], 0),
        ("oracle-finite", ["oracle", "{finite}", "--resolution", "0.02"], 0),
    ],
    "certify": [
        ("tb_end-random", ["compact", "{fam}", "--family", "cloud", "--mode", "tb_end", "--eps", "0.1"], None),
        ("tb_end-crisp", ["compact", "{fam}", "--family", "iv", "--mode", "tb_end", "--eps", "0.05"], 1),
        ("tb_send-random", ["compact", "{fam}", "--family", "big", "--mode", "tb_send", "--eps", "0.05"], None),
        ("rel_send-random", ["compact", "{fam}", "--family", "big", "--mode", "rel_send", "--eps", "0.1"], None),
        ("closedness-random", ["compact", "{fam}", "--family", "big", "--mode", "closedness", "--candidate", "origin"], None),
        ("tb_send-translates", ["compact", "{fam}", "--family", "tr", "--mode", "tb_send", "--eps", "0.4"], 1),
        ("erc-collapse", ["compact", "{fam}", "--family", "col", "--mode", "erc", "--eps", "0.5"], None),
    ],
    "sequences": [
        ("gamma-col", ["converge", "{seq}", "--sequence", "col", "--limit", "origin", "--mode", "gamma"], 0),
        ("level-col", ["converge", "{seq}", "--sequence", "col", "--limit", "origin", "--mode", "level"], 0),
        ("send-col", ["converge", "{seq}", "--sequence", "col", "--limit", "origin", "--mode", "send"], 1),
        ("gamma-cloud", ["converge", "{seq}", "--sequence", "cloud", "--limit", "ramp", "--mode", "gamma"], None),
        ("level-cloud", ["converge", "{seq}", "--sequence", "cloud", "--limit", "ramp", "--mode", "level"], None),
        ("end-cloud", ["converge", "{seq}", "--sequence", "cloud", "--limit", "ramp", "--mode", "end"], None),
        ("gen", ["gen", "{seq}"], 0),
    ],
}

# Layers each workload must reach; a traced run that finds no calls into one
# of them is wrong. Together the workloads reach every layer.
TOUCHES = {
    "pairwise": ("cli", "document", "metrics", "fuzzy", "sets", "space"),
    "certify": ("cli", "document", "generators", "families", "metrics", "fuzzy", "sets", "space", "certificates"),
    "sequences": ("cli", "document", "generators", "families", "metrics", "fuzzy", "sets", "space", "certificates"),
}

def _nested_levels(points: list, alphas: tuple[float, ...]) -> list[dict]:
    """Levels whose cuts are growing prefixes of `points`: the cut at the
    k-th level holds the first (k+1)/len(alphas) of the points."""
    n = len(points)
    out = []
    for k, a in enumerate(alphas):
        size = max(1, (n * (k + 1)) // len(alphas))
        out.append({"alpha": a, "points": points[:size]})
    return out


def _cloud_2d(rng: random.Random, n: int, centre: tuple[float, float]) -> list[list[float]]:
    cx, cy = centre
    return [[cx + rng.uniform(-1.0, 1.0), cy + rng.uniform(-1.0, 1.0)] for _ in range(n)]


def _euclid_doc(rng: random.Random, sizes: tuple[int, ...], prefix: str) -> dict:
    alphas = (1.0, 0.6, 0.3)
    sets = []
    for k, n in enumerate(sizes):
        centre = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        pts = _cloud_2d(rng, n, centre)
        sets.append({"name": f"{prefix}{k + 1}", "levels": _nested_levels(pts, alphas)})
    return {"space": {"type": "euclidean", "dim": 2}, "fuzzy_sets": sets}


def _finite_doc(rng: random.Random, n: int, sizes: tuple[int, ...]) -> dict:
    """An L1 metric on n distinct points of a 64x64 integer grid, scaled by
    1/64. Every entry is a dyadic rational, so the triangle inequality holds
    exactly in floating point and the matrix passes the load-time check."""
    cells = rng.sample(range(64 * 64), n)
    xy = [(c // 64, c % 64) for c in cells]
    matrix = [[(abs(xa - xb) + abs(ya - yb)) / 64.0 for xb, yb in xy] for xa, ya in xy]
    alphas = (1.0, 0.5, 0.25)
    sets = []
    for k, m in enumerate(sizes):
        idx = rng.sample(range(n), m)
        sets.append({"name": f"f{k + 1}", "levels": _nested_levels(idx, alphas)})
    return {"space": {"type": "finite", "matrix": matrix}, "fuzzy_sets": sets}


def _certify_doc(rng: random.Random) -> dict:
    return {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [{"name": "origin", "levels": [{"alpha": 1.0, "points": [[0.0]]}]}],
        "families": [
            {"name": "cloud", "generator": {"kind": "random", "count": 28, "seed": rng.randrange(2**31)}},
            {"name": "iv", "generator": {"kind": "crisp_intervals",
                                         "params": {"low": 0.3, "high": 1.0, "step": 0.025}}},
            {"name": "big", "generator": {"kind": "random", "count": 80, "seed": rng.randrange(2**31),
                                          "params": {"max_points": 8}}},
            {"name": "tr", "generator": {"kind": "translates", "count": 100,
                                         "params": {"start": rng.uniform(0.5, 1.5),
                                                    "step": rng.uniform(0.5, 1.0)}}},
            {"name": "col", "generator": {"kind": "collapse", "count": 300,
                                          "params": {"base": 0.0, "far": rng.uniform(0.6, 1.0)}}},
        ],
    }


def _sequences_doc(rng: random.Random) -> dict:
    return {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [
            {"name": "origin", "levels": [{"alpha": 1.0, "points": [[0.0]]}]},
            {"name": "ramp", "levels": [
                {"alpha": 1.0, "points": [[0.0]]},
                {"alpha": 0.5, "points": [[0.0], [rng.uniform(0.5, 1.0)]]},
            ]},
        ],
        "families": [
            {"name": "col", "generator": {"kind": "collapse", "count": 1500,
                                          "params": {"base": 0.0, "far": rng.uniform(0.6, 1.0)}}},
            {"name": "cloud", "generator": {"kind": "random", "count": 500,
                                            "seed": rng.randrange(2**31)}},
        ],
    }


def build_documents(workload: str, seed: int, variant: int) -> dict[str, dict]:
    """The decoded documents of one workload instance, keyed by placeholder
    name."""
    rng = random.Random(f"{workload}:{seed}:{variant}")
    if workload == "pairwise":
        return {
            "euclid": _euclid_doc(rng, (100, 200, 400, 800), "e"),
            "oracle": _euclid_doc(rng, (60, 120, 240), "o"),
            "finite": _finite_doc(rng, 150, (40, 80, 150)),
        }
    if workload == "certify":
        return {"fam": _certify_doc(rng)}
    if workload == "sequences":
        return {"seq": _sequences_doc(rng)}
    raise ValueError(f"unknown workload {workload!r}")


def write_documents(workload: str, seed: int, out_dir: str) -> list[dict[str, str]]:
    """Write every instance's documents as JSON files; return, per instance,
    placeholder -> path."""
    out = []
    for variant in range(VARIANTS):
        paths = {}
        os.makedirs(os.path.join(out_dir, f"v{variant}"), exist_ok=True)
        for key, doc in build_documents(workload, seed, variant).items():
            path = os.path.join(out_dir, f"v{variant}", f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths[key] = path
        out.append(paths)
    return out


def command_argvs(workload: str, paths: dict[str, str]) -> list[tuple[str, list[str], int | None]]:
    """The workload's command list with document placeholders filled in."""
    out = []
    for label, argv, expected in COMMANDS[workload]:
        filled = [a.format(**paths) if a.startswith("{") else a for a in argv]
        out.append((label, filled, expected))
    return out
