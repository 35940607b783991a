"""Invocation times on a fixed reference clock, for ``pipeline_s``.

On a shared host the effective CPU clock of the workload process jumps
between levels (all-core and turbo) and can stay on one level for a whole
run. Raw wall times of identical runs then fall into two groups about 35 %
apart. The workload process therefore scales each invocation's wall time by
``REFERENCE_S / probe``, where ``probe`` is the time of a fixed pure-Python
loop measured just before and just after the invocation (their mean). The
result is the invocation's duration on a host where the probe takes
``REFERENCE_S``. The probe does not use fluidsea, so a change to the program
cannot change it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.005


def _step(x, v):
    return v, -x - 0.1 * v


def probe() -> float:
    """Best of five timings of a fixed interpreter-bound loop, in seconds."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        x, v, h = 1.0, 0.0, 1e-3
        for _ in range(20_000):
            dx, dv = _step(x, v)
            x += h * dx
            v += h * dv
        best = min(best, time.perf_counter() - t0)
    return best


def on_reference_clock(seconds: float, probe_before: float, probe_after: float) -> float:
    """Scale a wall time measured between two probes to the reference clock."""
    return seconds * REFERENCE_S / (0.5 * (probe_before + probe_after))
