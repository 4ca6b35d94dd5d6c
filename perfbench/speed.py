"""Machine-speed probe for timing on a shared, unsteady CPU.

On a machine whose cores are shared with other tenants, the speed of one
interpreter drifts by up to 40% between regimes that last tens of seconds, so
raw wall times of identical runs a minute apart disagree by more than any
useful regression bound. The benchmark therefore times a fixed pure-Python
probe right before and right after every timed step, and scales the step's
wall time to the speed the probe had on the reference machine:

    scaled_s = wall_s * NOMINAL_PROBE_S / mean(probe before, probe after)

The probe is benchmark code, so a change to the library cannot move it. It
mixes the interpreter work that dominates fuzzymetrics: function calls,
tuple and dict traffic, `math.dist`, and small NumPy broadcasts.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median probe time on the reference machine (2 vCPU x86-64, Python 3.11.7,
# NumPy 2.4.6). Scaled times read as seconds on that machine.
NOMINAL_PROBE_S = 0.06

_PTS = [(i * 0.37 % 1.0, i * 0.61 % 1.0) for i in range(64)]
_ARR = np.asarray(_PTS)


def probe() -> float:
    """Wall seconds of one fixed unit of interpreter work."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(200_000):
        table[i % 1000] = table.get(i % 1000, 0.0) + i * 0.5
    acc = 0.0
    for _ in range(80):
        for p in _PTS:
            acc += min(math.dist(p, q) for q in _PTS[:24])
        acc += float(np.linalg.norm(_ARR[:8, None, :] - _ARR[None, :8, :], axis=2).min())
    return time.perf_counter() - t0


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall time scaled to the reference machine's probe speed."""
    return wall_s * NOMINAL_PROBE_S / ((before_s + after_s) / 2.0)
