"""The speed of the core this process runs on, sampled while the work runs.

On a shared host the same work can take 40% longer from one second to the
next: other tenants' work slows the core under this process, and process
CPU time stretches with wall time, so neither clock removes it.  A
SIGALRM timer therefore runs a fixed pure-Python kernel (breadth-first
search from every vertex of one small graph, the kind of work crslab does)
twice every PERIOD_S seconds of wall time, in the main thread between the
program's own bytecodes.  How long the second, warm run takes says how fast
the core runs at that moment.  The first run refills the caches the
program's own work evicted; timing it as well would add the cost of those
misses, which the host's contention inflates more than it slows the
program (on bitset-heavy work the cold time over-corrected twice as much).

``Speedometer.work(t0, t1)`` returns the wall time between two clock
readings with the samples inside taken out, raw and normalised.  The
normalised figure scales each stretch between two samples by
REFERENCE_S / the local warm time (the median over the WINDOW samples
around it): the seconds the same work takes when the warm kernel takes
REFERENCE_S.  More work in the program means more normalised seconds, at
any host speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Seconds of wall time between two samples.
PERIOD_S = 0.005

# About the warm kernel's median time on a 2-core x86-64 VM with CPython
# 3.11.7; a normalised second is a second at that speed.
REFERENCE_S = 60e-6

# Samples in the rolling median that estimates the local speed.
WINDOW = 9

_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
    (9, 10), (10, 11), (0, 5), (2, 9), (3, 11), (1, 7), (4, 10), (6, 11), (0, 8),
)
_ADJ = [set() for _ in range(12)]
for _a, _b in _EDGES:
    _ADJ[_a].add(_b)
    _ADJ[_b].add(_a)


def kernel(adj=_ADJ) -> int:
    """Breadth-first search from every vertex; the sum of all distances."""
    total = 0
    for source in range(len(adj)):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        total += sum(dist.values())
    return total


class Speedometer:
    """Samples the core's speed while in a ``with`` block."""

    def __init__(self) -> None:
        # Each sample: when it began and ended, and the warm kernel's time.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.warm: list[float] = []
        self._scale: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.warm.append(end - warm)
        self.ends.append(end)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        half = WINDOW // 2
        self._scale = [
            REFERENCE_S / statistics.median(self.warm[max(0, i - half):i + half + 1])
            for i in range(len(self.warm))
        ]

    def samples(self) -> int:
        return len(self.starts)

    def median_kernel_s(self) -> float:
        return statistics.median(self.warm)

    def work(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalised) seconds of work between clock readings t0 and
        t1, the samples inside left out.  Call after the block has ended."""
        if not self._scale:
            raise RuntimeError("no speed samples: the interval was not measured")
        starts, ends, scale = self.starts, self.ends, self._scale
        last = len(scale) - 1
        i = bisect.bisect_right(ends, t0)
        raw = norm = 0.0
        t = t0
        while t < t1:
            stop = min(t1, starts[i]) if i <= last else t1
            if stop > t:
                raw += stop - t
                norm += (stop - t) * scale[min(i, last)]
            if i > last or starts[i] >= t1:
                break
            t = ends[i]
            i += 1
        return raw, norm
