"""Spans recorded around the benchmark's calls into mcsched.

A span is ``[name, start, end, parent, unit]``: start and end are
``time.perf_counter`` readings, ``parent`` is the index of the enclosing span
in the same tracer (-1 for a root) and ``unit`` is the id of the unit the
span belongs to (None outside units).  Spans stay in memory; the runner
writes them out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._unit = None

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, unit=None):
        if unit is not None:
            outer, self._unit = self._unit, unit
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent, self._unit]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
            if unit is not None:
                self._unit = outer

    def self_times(self, by_unit: bool = False) -> dict:
        """Seconds of self time per span name (or per (name, unit)).

        Self time is a span's duration minus the time its child spans
        cover; children never overlap because spans nest on one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _parent, unit) in enumerate(self.spans):
            out[(name, unit) if by_unit else name] += end - start - child[i]
        return dict(out)


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, unit=None):
        yield
