"""In-memory spans recorded around calls into lexdrift's public API.

A span is ``(name, start, end, parent)``: perf_counter seconds and the index
of the enclosing span (``None`` at the root). Spans stay in memory until the
run ends, then go to a JSONL file. A layer's busy time is the sum of the
durations of its spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called *name*."""
        parent = self._stack[-1] if self._stack else None
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((name, start, perf_counter(), parent))
        return result

    def iterate(self, name: str, iterable):
        """Yield from *iterable*, one span per item produced."""
        it = iter(iterable)
        parent = self._stack[-1] if self._stack else None
        while True:
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self.spans.append((name, start, perf_counter(), parent))
                return
            self.spans.append((name, start, perf_counter(), parent))
            yield item

    @contextmanager
    def span(self, name: str):
        """A parent span around a block."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, perf_counter(), parent)

    def busy(self) -> dict[str, float]:
        """Seconds spent in each span name, summed over its spans."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
