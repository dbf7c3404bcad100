"""In-memory spans recorded around calls into crslab.

A span is (name, start, end, parent, request): the parent is the index of
the span that was open when this one started (-1 for a root), and request is
the identifier the benchmark set for the request being served.  Spans stay in
memory until the run ends; self times are derived afterwards.
"""

from __future__ import annotations

import statistics
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.request = -1
        # name -> number of calls whose result was truthy (a certificate, a
        # member, a minimal lattice), counted where the call happens.
        self.truthy: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count_truthy: bool = False):
        """``fn`` with a span recorded around each call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        truthy = self.truthy
        if count_truthy:
            truthy[name] = 0

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if count_truthy and result:
                truthy[name] += 1
            return result

        return traced

    def layer_times(self, seconds=None) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); a span's self time is its duration
        minus the durations of its direct children.  ``seconds(start, end)``
        gives a span's duration; by default, end - start."""
        seconds = seconds or (lambda start, end: end - start)
        duration = [seconds(start, end) for _n, start, end, _p, _r in self.spans]
        child = [0.0] * len(self.spans)
        for idx, (_name, _start, _end, parent, _req) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[idx]
        out: dict[str, list] = {}
        for idx, (name, _start, _end, _parent, _req) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += duration[idx] - child[idx]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def root_seconds(self, seconds=None) -> float:
        seconds = seconds or (lambda start, end: end - start)
        return sum(seconds(start, end) for _n, start, end, parent, _r in self.spans if parent < 0)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,request\n")
            for name, start, end, parent, req in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{req}\n")


def span_cost_seconds(batches: int = 7, calls: int = 20000) -> float:
    """Median added cost of one span, from wrapping a no-op function."""

    def noop():
        return None

    costs = []
    for _ in range(batches):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)
