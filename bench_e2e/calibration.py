"""Machine-speed calibration: a fixed pure-Python spin timed next to every
measured interval.

The sandbox this benchmark runs in changes speed under the program: the
same window costs up to 1.7x more wall time during slow phases that last
from under a second to tens of minutes (shared host; process CPU / wall
stays ~0.98 throughout, so it is not visible as lost CPU).  Raw wall
times of two runs of the same commit differed by 40 %, more than any
bound a regression gate could use.  A spin that does the same kind of
work as the simulator (heap pushes, dict writes, generator resumes,
dependent loads from a table larger than the L2 cache) slows down with
it, so host times are reported *at reference machine speed*:
``wall * REFERENCE_SPIN_S / spin``.  In a quiet phase that is the wall
time itself.  The measured window is cut into slices with a spin on both
sides of each (``Environment.run(until=...)`` consumes no sequence number,
so slicing leaves the event schedule as it was), because the machine's
speed also changes within one window.

The spin touches nothing under ``src/``: a change to the simulator cannot
move it.
"""

from __future__ import annotations

import gc
import time
from array import array
from heapq import heappop, heappush

__all__ = ["REFERENCE_SPIN_S", "Spin"]

# What one spin takes on the box the benchmark was defined on, in a quiet
# phase.  Only ratios of spins matter when two runs are compared; the
# constant keeps the reported numbers in wall-clock units.
REFERENCE_SPIN_S = 0.035

_TABLE_BITS = 21  # 2^21 four-byte entries = 8 MB
_CHASE_STEPS = 100_000
_CHURN_STEPS = 33_000


class Spin:
    """Holds the 8 MB chase table; build once per process."""

    def __init__(self):
        size = 1 << _TABLE_BITS
        # i -> (a*i + c) mod 2^k with a = 1 mod 4 and c odd is one cycle
        # through every entry (Hull-Dobell), in no cache-friendly order.
        self._table = array("i", ((1_664_525 * i + 1_013_904_223) & (size - 1)
                                  for i in range(size)))
        self._at = 0

    def seconds(self) -> float:
        """Run the spin once; returns its wall time."""
        def resumable():
            while True:
                yield

        gen = resumable()
        next(gen)
        table, at = self._table, self._at
        heap, slots = [], {}
        enabled = gc.isenabled()
        gc.disable()  # its cost would depend on the heap the caller holds
        try:
            start = time.perf_counter()
            for _ in range(_CHASE_STEPS):
                at = table[at]
            for i in range(_CHURN_STEPS):
                heappush(heap, ((i * 7919) % 1000, i))
                slots[i & 1023] = i
                gen.send(None)
                if i & 1:
                    heappop(heap)
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self._at = at  # carry on along the cycle: no spin re-walks warm entries
        return elapsed
