"""Host speed: a fixed reference kernel timed all through a run.

On a shared host the speed of the same code changes by up to 2x within
seconds, as other tenants load the cores. Raw times of one pass then
vary more between runs than a regression bound allows, and averaging
over a longer run does not help, because slow phases last minutes too.

So the benchmark times a reference kernel that does not use girthmax: a
pure-Python breadth-first search over a fixed cubic bipartite graph,
close in kind to the program's hot path (lists, a deque, small ints).
`HostSampler` runs it from a SIGALRM timer every INTERVAL_S while the
passes run. The speed of the host over an interval of time is the mean
of REFERENCE_MS / kernel ms over the samples in it, and a time scaled
to the reference host ("reference seconds") is the raw time times that
speed. The kernel is timed in thread CPU time, so that waiting for a
core (as on the two-worker workload) does not read as a slow host.

Cores are not equally loaded. A one-worker pass runs where the sampler
runs, so the kernel is timed in place; a pass on a worker pool runs on
every core, so the kernel is timed once on each core of the process's
affinity set (the sampling thread pins itself there and back) and the
samples are pooled. The kernel costs 1-2% of a pass.
"""

from __future__ import annotations

import bisect
import os
import random
import signal
import statistics
import time
from collections import deque

INTERVAL_S = 0.2
# the kernel's thread CPU time on the reference host, in ms; it only
# fixes the scale of reference seconds
REFERENCE_MS = 1.5

_HALF = 200
_ROOTS = 12


def _graph() -> list[list[int]]:
    rng = random.Random(20130222)
    adj: list[list[int]] = [[] for _ in range(2 * _HALF)]
    for _ in range(3):
        image = list(range(_HALF))
        rng.shuffle(image)
        for x, c in enumerate(image):
            adj[x].append(_HALF + c)
            adj[_HALF + c].append(x)
    return adj


_ADJ = _graph()


def kernel_ms() -> float:
    """Thread CPU ms of one run of the reference kernel."""
    adj = _ADJ
    n = len(adj)
    t0 = time.thread_time()
    for root in range(_ROOTS):
        dist = [-1] * n
        dist[root] = 0
        parent = {}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
    return (time.thread_time() - t0) * 1000


def speed_of(samples_ms: list[float]) -> float:
    """Host speed relative to the reference host (> 1 is faster)."""
    return statistics.fmean(REFERENCE_MS / ms for ms in samples_ms)


class HostSampler:
    """Times the kernel every INTERVAL_S of wall time while entered.

    With `every_core`, each tick times it once on each core of the
    affinity set, for passes that run on a worker pool.
    """

    def __init__(self, every_core: bool = False):
        self.cores = sorted(os.sched_getaffinity(0)) if every_core else []
        self.at: list[float] = []  # perf_counter after each sample
        self.ms: list[float] = []

    def _tick(self, signum, frame) -> None:
        if not self.cores:
            ms = kernel_ms()
            self.at.append(time.perf_counter())
            self.ms.append(ms)
            return
        try:
            for core in self.cores:
                os.sched_setaffinity(0, {core})
                ms = kernel_ms()
                self.at.append(time.perf_counter())
                self.ms.append(ms)
        finally:
            os.sched_setaffinity(0, self.cores)

    def __enter__(self) -> HostSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> list[float]:
        """Kernel ms sampled in [t0, t1], or the nearest sample if none fell in it."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi > lo:
            return self.ms[lo:hi]
        if not self.ms:
            self._tick(signal.SIGALRM, None)
        return [self.ms[min(lo, len(self.ms) - 1)]]
