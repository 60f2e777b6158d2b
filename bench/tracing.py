"""Spans and counters recorded by the benchmark around its calls into the
library.  The library itself is not instrumented: every span opens in
benchmark code, right around one public call, so the traced numbers
measure the same calls the untraced run makes.

``NullTracer`` is what untraced runs use; its ``span`` is a shared no-op
context manager, so the op code is identical in both runs.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    enabled = False

    def span(self, name):
        return _NULL

    def begin_op(self, op_id):
        pass

    def add(self, name, value):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    """Spans kept in memory as [name, op, parent, start, end] and counters
    as name -> number; summarised when the run ends."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = None

    def begin_op(self, op_id):
        self._op = op_id

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, self._op, parent, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def self_times(self):
        """name -> (total duration, total self time) over all spans; self
        time is the duration minus the time covered by direct children."""
        child_time = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            total, own = out.get(name, (0.0, 0.0))
            out[name] = (total + end - start, own + end - start - child_time[i])
        return out
