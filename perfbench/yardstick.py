"""A fixed unit of pure-Python work that gauges the host's current speed.

The benchmark shares its machine with other tenants, and their load moves
this interpreter's speed by up to ~1.6x for seconds at a time.  A run
samples the yardstick before every worker process and between the steps
of every timed body, and scales each time by ``REFERENCE_S`` over the
mean of the samples just before and just after it.  A regression in the
program slows the bodies but not the yardstick, so it still shows; a slow
phase of the host slows both, so it cancels.

The yardstick mixes heap, dict and float operations, like the
simulators' event loops, and allocates almost nothing, so it does not
raise the workers' peak memory.  It imports nothing from the program.
"""

from __future__ import annotations

import heapq
import time

#: The fastest yardstick time seen on the 2.1 GHz x86-64 host the
#: benchmark was tuned on, under CPython 3.11.  It only sets the scale of
#: the reported seconds; comparisons between commits do not depend on it.
REFERENCE_S = 0.026


def sample(n: int = 40_000) -> float:
    """Seconds this host takes for the fixed unit of work, now."""
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    x = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1_000_003, i))
        table[i % 512] = x
        x += i * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start
