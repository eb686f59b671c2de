"""A fixed pure-Python kernel that measures how fast the CPU runs right now.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, and moneyflow's stages are CPU-bound Python loops
that drift with it.  ``worker.py`` runs this kernel before set-up, after
set-up, after the timed iteration and between the stages of a README
pipeline.  ``run.py`` rescales each time by ``REFERENCE_S`` over the
kernel time measured around it, so a reported time is the time the work
would take on a host where the kernel takes ``REFERENCE_S``.  The kernel
does not touch moneyflow, so a change to the program moves the rescaled
times as it moves the raw ones.

Stdlib only, and the collector is off while it runs, so the program's
live heap does not enter the measurement.
"""

from __future__ import annotations

import gc
import random
import time

# The kernel time in a slow phase of the host of RECORD.md; it only sets the
# unit that rescaled times are given in.
REFERENCE_S = 0.33


def _kernel() -> int:
    # dict updates with random keys; tuple and string allocation, sorting
    # and string-keyed dicts; reads at random places of 16 MiB of lists.
    # The working set is several MiB, so the kernel follows cache and
    # memory contention from other tenants as the program's loops do.
    # Every list or dict stays below glibc's 128 KiB mmap threshold, so the
    # kernel does not raise that threshold and the program's peak RSS.
    rng = random.Random(7)
    counts: list[dict[int, int]] = [{} for _ in range(25)]
    for i in range(120_000):
        part = counts[i % 25]
        key = rng.randrange(2_000)
        part[key] = part.get(key, 0) + 1
    tables = []
    named = 0
    for _ in range(60):
        rows = [(rng.random(), i, str(i)) for i in range(2_000)]
        rows.sort()
        named += len({row[2]: row for row in rows})
        tables.append(rows)
    blocks = [[0, 1, 2, 3] * (1 << 11) for _ in range(256)]
    at = total = 0
    for _ in range(300_000):
        at = (at * 1103515245 + 12345) & ((1 << 21) - 1)
        total += blocks[at >> 13][at & 0x1FFF]
    return sum(len(part) for part in counts) + named + len(tables) + total


def effective_kernel_s(segments: list[float], kernels: list[float]) -> float:
    """One kernel time for a sum of timed segments with kernels between them.

    ``kernels`` has one more entry than ``segments``: the kernel times
    before the first segment, between each two and after the last.  Each
    segment is rescaled by the mean of the kernels around it; the result
    is the kernel time that rescales the sum the same way.
    """
    around = [(a + b) / 2 for a, b in zip(kernels, kernels[1:])]
    return sum(segments) / sum(t / k for t, k in zip(segments, around))


def calibrate() -> float:
    """Run the kernel once and return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
