"""In-memory spans recorded by the benchmark around calls into relsched.

A span has a name, a start, an end, a parent span and the id of the op it
belongs to.  Spans stay in a list while the benchmark runs and are written
out once at the end.  Spans inside the package are not recorded: every
span here wraps one call that the benchmark's own code makes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Span recorder; ``op`` is the id stamped on every span opened next."""

    def __init__(self):
        # [op, id, parent, name, start_ns, end_ns, attrs]
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; the yielded dict is the span's attrs."""
        record = [self.op, len(self.spans),
                  self._stack[-1] if self._stack else None, name, 0, 0, attrs]
        self.spans.append(record)
        self._stack.append(record[1])
        record[4] = perf_counter_ns()
        try:
            yield attrs
        finally:
            record[5] = perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, _, _, start, end, _ in self.spans]
        for _, _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns", "attrs")
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


class NullTracer:
    """Stand-in used when nothing is traced: calls go straight through."""

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
