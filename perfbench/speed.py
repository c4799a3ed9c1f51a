"""Machine-speed gauge: scales latencies to a fixed reference speed.

On a shared host the CPU's speed drifts while a run measures.  On a 2-vCPU
Xeon guest, a fixed pure-Python loop timed every two seconds for 40 s read
13.2-20.4 ms, in swings from under a second to minutes long, and five whole
passes over the same Kronecker pairs in one process gave p50 reads of
17-31 ms.  A latency
taken in a slow stretch is no evidence about the program, so every latency
the end-to-end metrics use is divided by how slowly a fixed reference
computation ran around the moment it was taken, and reported at the speed
where that reference takes :data:`NOMINAL_SECONDS`.  The reference is the
benchmark's own frozen copy of the kind of work the program's kernels do, so
no change to the program can move it, while a change that slows the program
moves every scaled figure by the same factor.  A set-up phase runs in one
call, too long to tick inside, so it is scaled by ticks taken right before
and right after it (:meth:`SpeedGauge.timed`).  The unscaled figures are
printed beside the result.
"""

from __future__ import annotations

import bisect
import heapq
import random
import time
from array import array
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

NOMINAL_SECONDS = 0.00052
# The speed swings within a second: rescaling recorded runs, windows of
# 0.25 s gave the smallest spreads, 2-5 s ones two to four times larger.  A
# tick every 50 ms puts ten in a window for 1-2% of the run's time.
TICK_INTERVAL_SECONDS = 0.05
# A timing is scaled by the median tick within this many seconds of its end
# (at least MIN_TICKS nearest ticks).
WINDOW_SECONDS = 0.25
MIN_TICKS = 5
# A call too long to tick inside is scaled by this many ticks on either side.
SPAN_TICKS = 3


# The reference graph: this many nodes, each with this many random out-edges.
REFERENCE_NODES = 1024
REFERENCE_DEGREE = 4


def _reference_csr() -> Tuple[array, array, array]:
    """A fixed random graph in flat CSR arrays, the layout the program's kernels read."""
    rng = random.Random(0)
    offsets = array("l", [0])
    targets = array("l")
    weights = array("d")
    for _ in range(REFERENCE_NODES):
        for _ in range(REFERENCE_DEGREE):
            targets.append(rng.randrange(REFERENCE_NODES))
            weights.append(rng.uniform(1.0, 100.0))
        offsets.append(len(targets))
    return offsets, targets, weights


_OFFSETS, _TARGETS, _WEIGHTS = _reference_csr()
# The search stops after this many nodes, like a targeted kernel call.
REFERENCE_SETTLED = 256
# Heap keys pack a distance in micro-units above the node id.
_NODE_BITS = (REFERENCE_NODES - 1).bit_length()
_NODE_MASK = (1 << _NODE_BITS) - 1


def reference() -> int:
    """Dijkstra over the reference graph with flat arrays and a binary heap.

    The same kind of work the whole-graph baseline and the fragment kernels
    do, in the benchmark's own frozen copy, so its speed tracks the machine
    the way theirs does and no change to the program can move it.  Its heap
    holds plain integers, not tuples: it allocates almost no objects the
    garbage collector tracks, so no collection of the program's young objects
    lands inside a tick and makes the machine look slower than it is.
    """
    offsets, targets, weights = _OFFSETS, _TARGETS, _WEIGHTS
    count = len(offsets) - 1
    distances = [float("inf")] * count
    done = bytearray(count)
    distances[0] = 0.0
    heap = [0]
    settled = 0
    while heap:
        node = heapq.heappop(heap) & _NODE_MASK
        if done[node]:
            continue
        done[node] = 1
        settled += 1
        if settled == REFERENCE_SETTLED:
            break
        distance = distances[node]
        for index in range(offsets[node], offsets[node + 1]):
            target = targets[index]
            candidate = distance + weights[index]
            if candidate < distances[target]:
                distances[target] = candidate
                heapq.heappush(heap, (int(candidate * 1e6) << _NODE_BITS) | target)
    return settled


class SpeedGauge:
    """Times :func:`reference` on demand and scales timings taken nearby.

    Timestamps are ``time.perf_counter`` readings, as the workloads' are.
    """

    def __init__(self) -> None:
        self._at: List[float] = []
        self._took: List[float] = []

    def tick(self, count: int = 1) -> None:
        """Take ``count`` ticks now."""
        for _ in range(count):
            started = time.perf_counter()
            reference()
            self._took.append(time.perf_counter() - started)
            self._at.append(time.perf_counter())

    def maybe_tick(self) -> None:
        """Tick when the last tick is :data:`TICK_INTERVAL_SECONDS` old."""
        if not self._at or time.perf_counter() - self._at[-1] >= TICK_INTERVAL_SECONDS:
            self.tick()

    def slowdown(self, at: float) -> float:
        """How much slower than nominal the machine ran within :data:`WINDOW_SECONDS` of ``at``."""
        if not self._took:
            return 1.0
        low = bisect.bisect_left(self._at, at - WINDOW_SECONDS)
        high = bisect.bisect_right(self._at, at + WINDOW_SECONDS)
        if high - low < MIN_TICKS:
            index = bisect.bisect_left(self._at, at)
            low = max(0, min(index - MIN_TICKS // 2, len(self._at) - MIN_TICKS))
            high = low + MIN_TICKS
        took = sorted(self._took[low:high])
        return took[len(took) // 2] / NOMINAL_SECONDS

    def timed(self, call: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``call`` between :data:`SPAN_TICKS` ticks on either side.

        Returns its result, its seconds, and its seconds at nominal speed as
        the median of those ticks gives it.
        """
        self.tick(SPAN_TICKS)
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
        self.tick(SPAN_TICKS)
        took = sorted(self._took[-2 * SPAN_TICKS :])
        return result, elapsed, elapsed * NOMINAL_SECONDS / took[len(took) // 2]

    def scale(self, seconds: Sequence[float], at: Sequence[float]) -> List[float]:
        """Timings taken at ``at`` (their end times), at nominal speed."""
        return [value / self.slowdown(when) for value, when in zip(seconds, at)]
