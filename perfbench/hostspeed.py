"""How fast the host runs right now, from a fixed pure-Python reference loop.

The benchmark shares a few cores of a host whose speed, in wall and CPU
time alike, switches within a second between states up to half apart
and drifts over minutes, so two runs of the same code can read far
apart.  The reference loop does the kind of work the compiler's hot
paths do (breadth-first search over a grid of slotted objects, dict and
deque traffic, a sort) but calls nothing in the program, so a change to
the program cannot move it.  Dividing a timing by the loop's time
measured around it gives a figure the drift mostly cancels from: the
time in reference loops.
"""

from __future__ import annotations

import os
from collections import deque
from time import perf_counter
from typing import List

#: grid side and searches per loop: about 20 ms on a 2-vCPU cloud host.
_SIDE = 40
_SEARCHES = 8
#: cores a probe times at most, so a many-core host keeps probes cheap
_MAX_CORES = 4


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def reference_loop() -> int:
    """The fixed work.  Returns a checksum so nothing can be skipped."""
    cells = {(x, y): _Cell(x, y) for x in range(_SIDE) for y in range(_SIDE)}
    total = 0
    for search in range(_SEARCHES):
        start = cells[search % _SIDE, (search * 7) % _SIDE]
        dist = {start: 0}
        queue = deque([start])
        while queue:
            cell = queue.popleft()
            step = dist[cell] + 1
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                near = cells.get((cell.x + dx, cell.y + dy))
                if near is not None and near not in dist:
                    dist[near] = step
                    queue.append(near)
        ordered = sorted(dist.items(), key=lambda item: (item[1], item[0].x, item[0].y))
        total += sum(step for _, step in ordered[: _SIDE])
    return total


class HostProbe:
    """Samples the reference loop's time between timed operations."""

    def __init__(self) -> None:
        self.samples: List[float] = []  # seconds per reference loop

    def sample(self) -> float:
        """Time the reference loop now; return the wall time the probe took.

        The cores of a shared host drift apart, and the program's threads
        and worker processes run on any of them, so the probe times the
        loop once on each core this process may use and records the mean.
        One probe is a snapshot of a host that switches speed within a
        second: callers probe often and read a median over many probes.
        """
        began = perf_counter()
        cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        per_core = []
        try:
            for core in cores[:_MAX_CORES] or [None]:
                if core is not None:
                    os.sched_setaffinity(0, {core})  # this thread only
                start = perf_counter()
                reference_loop()
                per_core.append(perf_counter() - start)
        finally:
            if cores:
                os.sched_setaffinity(0, cores)
        self.samples.append(sum(per_core) / len(per_core))
        return perf_counter() - began
