"""In-memory spans and counters recorded around calls into the program.

The benchmark never edits the program: it replaces a module or class
attribute with a wrapper for the length of one traced pass and puts the
original back afterwards.  A span is (name, start, end, parent index);
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, extra=None):
        """Wrap fn so each call records a span and bumps `<name>.calls`.

        extra, if given, is (suffix, measure): measure(args, result) is
        added to `<name>.<suffix>` after the span closes, so its cost falls
        in the caller's self time, not in this span's.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            counts[name + ".calls"] += 1
            if extra is not None:
                suffix, measure = extra
                counts[f"{name}.{suffix}"] += measure(args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        """Wrap fn so each call only bumps counts[name]; no span, no clock."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span's children subtracted once."""
    out: dict[str, float] = {}
    for name, start, end, parent in spans:
        dur = end - start
        out[name] = out.get(name, 0.0) + dur
        if parent >= 0:
            pname = spans[parent][0]
            out[pname] = out.get(pname, 0.0) - dur
    return out


@contextmanager
def patched(bindings):
    """Set each (owner, attribute, value) for the block, then restore it."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for owner, attr, value in bindings:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
