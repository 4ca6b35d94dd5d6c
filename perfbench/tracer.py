"""Per-layer tracing of fuzzymetrics from outside the library.

`Tracer.install()` wraps every public function of each layer module (and
`MetricSpace.distance`) without editing the library: it replaces every
binding of the original function object in every `fuzzymetrics.*` module
namespace, including module-level dicts whose values hold it (the document
loader reaches the generators through such a table). Patching only the
defining module would miss the calls that other modules make through their
own `from .space import dist_matrix` bindings.

Each wrapped call is a span with a name, start, end and parent span id. A
span's self time is its duration minus the time covered by its child spans.
Calls to the functions in `HOT` are aggregated into counts and times and not
stored one by one: `MetricSpace.distance` alone runs millions of times per
run, and a stored span each would not fit in memory.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "document", "generators", "families", "metrics", "fuzzy", "sets", "space", "certificates")

# Functions whose calls are aggregated instead of stored as spans.
HOT = frozenset({
    "space.MetricSpace.distance",
    "space.distance",
    "space.dist_matrix",
    "sets.hausdorff",
    "sets.directed_hausdorff",
    "sets.finite_set",
    "sets.union_family",
    "sets.eps_net",
    "sets.covering_number",
    "fuzzy.membership",
    "fuzzy.alpha_cut",
    "fuzzy.strict_cut_closure",
    "fuzzy.support",
    "fuzzy.make_fuzzy",
    "fuzzy.crisp",
    "fuzzy.same_representation",
    "fuzzy.platform_points",
    "metrics.endograph_metric",
    "metrics.sendograph_metric",
    "metrics.levelwise_distance",
    "certificates.tail_verdict",
    "certificates.trend_verdict",
    "certificates.check_window",
    "certificates.default_window",
    "certificates.combine_verdicts",
})

SMALL_CELLS = 64  # |a|*|b| at or below this counts as a small Hausdorff call


class Tracer:
    """Collects spans, per-function call counts, self and total times, and
    the argument-size counters named in `counters`."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent id (-1: root)
        self._stack: list[list] = []  # per open call: [child seconds, span id]
        self._restore: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _observe(self, key: str, args: tuple, result) -> None:
        c = self.counters
        if key == "space.dist_matrix":
            space, a, b = args[:3]
            cells = len(a) * len(b)
            c["space.dist_matrix.cells"] += cells
            # computed, not measured: the Euclidean kernel broadcasts an
            # n x m x d float64 temporary; the finite kernel gathers n x m
            width = space.dim if space.dim is not None else 1
            c["space.dist_matrix.temp_bytes_max"] = max(c["space.dist_matrix.temp_bytes_max"], cells * width * 8)
        elif key == "sets.finite_set":
            c["sets.finite_set.in_points"] += len(args[1])
            c["sets.finite_set.kept_points"] += len(result)
        elif key == "sets.union_family":
            c["sets.union_family.in_points"] += sum(len(s) for s in args[0])
            c["sets.union_family.kept_points"] += len(result)
        elif key == "sets.eps_net":
            c["sets.eps_net.in_points"] += len(args[0])
            c["sets.eps_net.centers"] += len(result)
        elif key in ("sets.hausdorff", "sets.directed_hausdorff"):
            if len(args[0]) * len(args[1]) <= SMALL_CELLS:
                c["sets.hausdorff.small"] += 1

    def _wrap(self, key: str, fn):
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        observed = key in ("space.dist_matrix", "sets.finite_set", "sets.union_family", "sets.eps_net",
                           "sets.hausdorff", "sets.directed_hausdorff")
        stored = key not in HOT
        materialize = key == "sets.finite_set"
        observe = self._observe

        def wrapper(*args, **kwargs):
            if materialize and len(args) > 1:
                args = (args[0], list(args[1]), *args[2:])
            parent = stack[-1][1] if stack else -1
            frame = [0.0, len(spans) if stored else parent]
            if stored:
                spans.append((key, 0.0, 0.0, parent))
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += dur - frame[0]
                total_s[key] += dur
                if stack:
                    stack[-1][0] += dur
                if stored:
                    spans[frame[1]] = (key, t0, t0 + dur, parent)
            if observed:
                observe(key, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and MetricSpace.distance."""
        import fuzzymetrics  # noqa: F401  (loads every layer module)

        mods = {name: sys.modules[f"fuzzymetrics.{name}"] for name in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    originals[obj] = self._wrap(f"{layer}.{name}", obj)
        namespaces = [m for n, m in sys.modules.items() if n == "fuzzymetrics" or n.startswith("fuzzymetrics.")]
        for mod in namespaces:
            ns = vars(mod)
            for attr, val in list(ns.items()):
                if inspect.isfunction(val) and val in originals:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, originals[val])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if isinstance(v, tuple) and any(inspect.isfunction(x) and x in originals for x in v):
                            self._restore.append((val, k, v))
                            val[k] = tuple(originals.get(x, x) if inspect.isfunction(x) else x for x in v)
        space_cls = mods["space"].MetricSpace
        orig = space_cls.distance
        self._restore.append((space_cls, "distance", orig))
        space_cls.distance = self._wrap("space.MetricSpace.distance", orig)

    def uninstall(self) -> None:
        """Put every replaced binding back, newest first."""
        for target, key, val in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = val
            else:
                setattr(target, key, val)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: `<layer>.self_s`, `<layer>.calls` and the named
        function-level counters and times."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(self.self_s[k] for k in keys)
            out[f"{layer}.calls"] = sum(self.calls[k] for k in keys)
        calls, self_s, total_s, c = self.calls, self.self_s, self.total_s, self.counters
        hausdorff_calls = calls["sets.hausdorff"] + calls["sets.directed_hausdorff"]
        out.update({
            "space.distance.calls": calls["space.MetricSpace.distance"] + calls["space.distance"],
            "space.dist_matrix.calls": calls["space.dist_matrix"],
            "space.dist_matrix.cells": c["space.dist_matrix.cells"],
            "space.dist_matrix.temp_bytes_max": c["space.dist_matrix.temp_bytes_max"],
            "space.validate_metric.s": total_s["space.validate_metric"],
            "sets.finite_set.in_points": c["sets.finite_set.in_points"],
            "sets.finite_set.kept_points": c["sets.finite_set.kept_points"],
            "sets.union_family.calls": calls["sets.union_family"],
            "sets.union_family.in_points": c["sets.union_family.in_points"],
            "sets.union_family.kept_points": c["sets.union_family.kept_points"],
            "sets.eps_net.calls": calls["sets.eps_net"],
            "sets.eps_net.in_points": c["sets.eps_net.in_points"],
            "sets.eps_net.centers": c["sets.eps_net.centers"],
            "sets.hausdorff.calls": hausdorff_calls,
            "sets.hausdorff.small_frac": c["sets.hausdorff.small"] / hausdorff_calls if hausdorff_calls else 0.0,
            "fuzzy.membership.calls": calls["fuzzy.membership"],
            "fuzzy.alpha_cut.calls": calls["fuzzy.alpha_cut"],
            "fuzzy.make_fuzzy.self_s": self_s["fuzzy.make_fuzzy"],
            "metrics.closed_form.calls": (calls["metrics.endograph_metric"] + calls["metrics.sendograph_metric"]
                                          + calls["metrics.levelwise_distance"]),
            "metrics.oracle.self_s": self_s["metrics.endograph_oracle"] + self_s["metrics.sendograph_oracle"],
            "metrics.profile.self_s": (self_s["metrics.levelwise_profile"] + self_s["metrics.gamma_diagnostic"]
                                       + self_s["metrics.send_decomposition_check"]),
            "families.tb_end.self_s": self_s["families.tb_end_report"],
            "families.tb_send.self_s": self_s["families.tb_send_report"],
            "families.erc.self_s": self_s["families.erc_modulus"],
            "document.load_s": total_s["document.load_document"],
        })
        return out

    def span_summary(self) -> dict:
        """Stored-span count and the root spans' total time, for a check that
        layer self times add up to the traced wall time."""
        roots = [end - start for _, start, end, parent in self.spans if parent == -1]
        return {"stored_spans": len(self.spans), "root_s": sum(roots)}
