"""Host-speed reference: a fixed pure-Python kernel timed next to the work.

Shared machines run this benchmark at speeds that drift by a third or
more over tens of seconds.  Every timing the benchmark reports is
therefore scaled to a nominal host on which ``kernel()`` takes exactly
``NOMINAL_S``: a block of ops that took T while the kernel, timed right
after it in the same process, took R is reported as T * NOMINAL_S / R.

The kernel allocates tuples and lists, fills a dict and runs a
trial-division loop, like the package's own inner loops, so its speed
tracks the host in the same way.
It touches none of the package's code, and runs with the garbage
collector paused so that objects the package keeps alive cannot slow it.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.001
REPEATS = 3  # runs averaged per measurement


def kernel() -> int:
    d = {}
    for i in range(1200):
        d[(i * 2654435761 % 1000003, i & 255, i * i)] = [i, i + 1]
    s = 0
    for k, v in d.items():
        s += k[2] // (v[0] + 1)
    # trial division, as in radicand normalization
    n, f = 1000000000039, 5
    while f < 9000:
        s += n % f
        f += 2
    return s


def measure() -> float:
    """Seconds one kernel run takes on this host now (mean of REPEATS runs)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        for _ in range(REPEATS):
            kernel()
        return (time.perf_counter_ns() - t0) * 1e-9 / REPEATS
    finally:
        if enabled:
            gc.enable()
