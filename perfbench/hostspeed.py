"""The host's current speed, read from a fixed pure-Python kernel.

On a shared VM the same code can run up to twice as slowly for seconds
at a time, in wall and CPU time alike: the guest sees no steal time, a
busy neighbour slows every instruction.  A stretch of program time and
a call of this kernel made right after it see the same host speed.
The benchmark reports timings at nominal speed: the measured time
divided by the speed factor, which is the kernel's measured time over
``NOMINAL_S`` per call, raised to the power ``SENSITIVITY``.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

#: One kernel call between two slices of program time on an unloaded
#: host (2.0 GHz Intel Xeon vCPU, CPython 3.11); it only sets the scale
#: of the reported figures.
NOMINAL_S = 75e-6
#: Items the kernel pushes through its heap.
ITEMS = 100
#: The program slows less than the kernel when the host does: over the
#: cycles of ten 30 s runs per workload, the program's time grew as the
#: kernel's to the power 0.83 (steady), 0.75 (hotspot) and 0.89 (rejoin).
#: Without this exponent a run on a slow stretch reads up to 15% low.
SENSITIVITY = 0.8


class _Item:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


class Probe:
    """Runs the kernel and sums the wall and CPU time of its calls."""

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self._entries = [(i * 7 % 13, i, _Item(i % 31)) for i in range(ITEMS)]
        self._heap: list = []
        self._counts: dict = {}

    def kernel(self) -> int:
        """Heap, dict and attribute work, like the simulator's event loop.

        It creates no object the garbage collector tracks, so it never
        sets off a collection of the program's objects."""
        heap = self._heap
        counts = self._counts
        counts.clear()
        for entry in self._entries:
            heappush(heap, entry)
        while heap:
            tick, _i, item = heappop(heap)
            counts[item.key] = counts.get(item.key, 0) + tick
            item.hits += 1
        return sum(counts.values())

    def run(self, calls: int = 1) -> None:
        for _ in range(calls):
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            self.kernel()
            self.cpu += time.process_time() - cpu0
            self.wall += time.perf_counter() - wall0
        self.calls += calls

    def wall_factor(self) -> float:
        """How many times slower than at nominal speed the program ran, in
        wall time, judged from the kernel."""
        return (self.wall / (self.calls * NOMINAL_S)) ** SENSITIVITY

    def cpu_factor(self) -> float:
        return (self.cpu / (self.calls * NOMINAL_S)) ** SENSITIVITY
