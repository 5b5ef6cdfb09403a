"""In-memory spans around the public entry points of each routeloc layer.

Wrappers are installed from the benchmark's side only: a module attribute
or class attribute is replaced for the length of a ``with`` block and put
back afterwards, so the package itself carries no tracing code.  Spans are
kept in a list while the benchmark runs and written out at the end.
"""
from __future__ import annotations

import contextlib
import json
import time

import numpy as np


class Tracer:
    """Collects (name, start_ns, end_ns, parent index, count) spans.

    A span's parent is the innermost span open when it started.  ``count``
    is an optional number the wrapper extracts from the call, such as the
    candidate-set size a search step received.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self.active = False

    def wrap(self, fn, name, count=None):
        """Return ``fn`` wrapped so that each call made while active is a span.

        ``count(args, result)`` returns a tuple of integers stored with the span.
        """
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._open.pop()
                self.spans[idx] = (name, t0, t1, parent, None)
            if count is not None:
                self.spans[idx] = (name, t0, t1, parent, count(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._open.pop()
            self.spans[idx] = (name, t0, t1, parent, None)

    def self_ns(self) -> np.ndarray:
        """Per-span duration minus the time its direct children cover."""
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=np.int64)
        own = dur.copy()
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= dur[i]
        return own

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "count": count}) + "\n")


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is a list of (owner, name, new)."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, new in targets:
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)
