"""Host speed, measured with a fixed reference kernel around each operation.

On a shared host the CPU's speed drifts: within seconds by up to half, and
its best level shifts by as much between minutes. A fixed pure-Python
kernel slows down with it. The benchmark times the kernel before and after
every operation and divides the operation's time by the mean of the two,
which gives the operation in kernel runs; multiplied by ``REF_KERNEL_S``,
in seconds of a host on which the kernel takes ``REF_KERNEL_S``. The kernel
shares no code with the program, so a change to the program moves only
the operation times, never the scale.
"""

from __future__ import annotations

import heapq
import random
import time

#: Fastest time of :func:`reference_kernel` on the 2-vCPU Intel Xeon VM
#: this benchmark was tuned on.
REF_KERNEL_S = 0.050

_ITEMS = 4500
_NODES = 16
_TABLE = 40_000
_PROBES = 120_000


class _Item:
    __slots__ = ("key", "cost", "node")

    def __init__(self, key: str, cost: float, node: int) -> None:
        self.key, self.cost, self.node = key, cost, node


def reference_kernel() -> tuple[list[float], int]:
    """Fixed work in two halves, each of which alone misjudges the host.

    A greedy assignment over small objects (dict probes, a heap, a sort)
    slows down less than the program when the host is contended; probes
    scattered over a table of a few megabytes slow down more. Together
    they slow down about as the program does. Returns the final node
    ready times and the table checksum.
    """
    rng = random.Random(7)
    items = [_Item(f"f{i}", rng.random(), i % _NODES) for i in range(_ITEMS)]
    ready = [0.0] * _NODES
    cached: dict[tuple[str, int], bool] = {}
    heap: list[tuple[float, str]] = []
    for item in items:
        best, best_node = float("inf"), -1
        for node in range(_NODES):
            t = ready[node] + item.cost * (1.0 if cached.get((item.key, node)) else 2.0)
            if t < best:
                best, best_node = t, node
        ready[best_node] = best
        cached[(item.key, best_node)] = True
        heapq.heappush(heap, (best, item.key))
    items.sort(key=lambda x: (x.node, x.cost))
    while heap:
        heapq.heappop(heap)

    table = {i: i * 2654435761 % 1000003 for i in range(_TABLE)}
    checksum = 0
    for i in range(_PROBES):
        checksum += table[i * 7919 % _TABLE]
    return ready, checksum


class HostSpeed:
    """Reference-kernel times taken between the timed steps of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel: the mean of two runs."""
        t0 = time.perf_counter()
        for _ in range(2):
            reference_kernel()
        self.samples.append((time.perf_counter() - t0) / 2)
        return self.samples[-1]


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """A host time in reference-host seconds, given the kernel times
    measured just before and just after it."""
    return seconds * REF_KERNEL_S / ((before + after) / 2)
