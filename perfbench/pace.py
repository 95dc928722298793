"""Machine-speed reference for timings taken on a shared, bursty host.

On a shared 2-core machine the speed of the same code swings by up to
2x from one second to the next (other tenants, clock changes), which
moves a 10 s replay's throughput by a third between runs of one input.
:class:`Pace` splits a measured stream into chunks and, between chunks,
times a fixed reference kernel that belongs to the benchmark, not to the
program.  Each chunk's wall time is then also expressed at the reference
speed: ``wall * NOMINAL_S / kernel_s``, with ``kernel_s`` the mean of the
kernel timings that bracket the chunk.  Program changes move the
adjusted figures exactly as they move the raw ones; machine bursts move
the kernel too and cancel out.  Kernel time is excluded from both.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Kernel duration at the reference speed (about this host's fast state).
NOMINAL_S = 1.0e-3
#: Events per chunk: ~0.2 s of serving between two kernel timings.
CHUNK_EVENTS = 500

_RNG = np.random.default_rng(0)
_BINNED = _RNG.integers(0, 64, size=(16, 40)).astype(np.uint8)
_FEATURE = _RNG.integers(0, 40, size=63)
_THRESHOLD = _RNG.integers(0, 64, size=63)


def kernel() -> float:
    """CPU seconds of one fixed slice of tree routing and dict updates.

    The mix mirrors the serving path: small-array numpy masking as in
    tree inference, plus per-item Python dictionary work as in the
    collector.  It is timed in thread CPU time, so it reads how fast the
    core runs, not how often the fleet's own workers preempt the
    coordinator: that preemption is the program's cost and stays in the
    measured wall time.
    """
    counts: dict = {}
    start = time.thread_time()
    for _ in range(10):
        stack = [(0, np.arange(16))]
        while stack:
            node, rows = stack.pop()
            if node >= 31 or rows.size == 0:
                continue
            left = _BINNED[rows, _FEATURE[node]] <= _THRESHOLD[node]
            stack.append((2 * node + 1, rows[left]))
            stack.append((2 * node + 2, rows[~left]))
        for key in range(20):
            counts[key] = counts.get(key, 0) + 1
    return time.thread_time() - start


class Pace:
    """Chunked wall clock with a reference-speed factor per chunk.

    Call :meth:`start` before the stream, :meth:`lap` at each chunk
    boundary and once at the end.  Record :attr:`chunk` with each call's
    latency, so :meth:`adjust` can apply the factor of its chunk.
    """

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.factors: List[float] = []
        self._kernel_before = 0.0
        self._chunk_start = 0.0

    def start(self) -> None:
        self._kernel_before = kernel()
        self._chunk_start = time.perf_counter()

    def lap(self) -> None:
        """Close the current chunk and open the next one."""
        wall = time.perf_counter() - self._chunk_start
        kernel_after = kernel()
        self.walls.append(wall)
        self.factors.append(
            2.0 * NOMINAL_S / (self._kernel_before + kernel_after))
        self._kernel_before = kernel_after
        self._chunk_start = time.perf_counter()

    @property
    def chunk(self) -> int:
        """Index of the chunk now running."""
        return len(self.walls)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def reference_s(self) -> float:
        """The chunks' wall time expressed at the reference speed."""
        return sum(w * f for w, f in zip(self.walls, self.factors))

    def adjust(self, seconds: float, chunk: int) -> float:
        """One latency taken in ``chunk``, at the reference speed."""
        return seconds * self.factors[chunk]
