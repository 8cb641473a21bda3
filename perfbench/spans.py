"""Spans and counts for the traced run, and their self-time arithmetic.

A span is ``(name, thread, start, end)``, recorded around one call into a
layer.  Spans of one thread nest; spans of different threads may overlap
(with ``--jobs``, the pool's task-handler thread draws goldens while the
main thread waits on worker results).  :func:`self_times` splits the
covered part of the wall clock among layers so that no instant is counted
twice, which is what makes "layer self times + ``other.s`` = wall" hold.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: Spans whose thread only blocks on other processes.  They yield their
#: interval to any concurrent span that does work in this process.
WAITING = frozenset({"pool.wait"})


class Recorder:
    """Spans and counts of one process, kept in memory until it exits."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                (name, threading.get_ident(), start, time.perf_counter())
            )

    def timed(self, name: str, fn, count: str | None = None):
        """``fn`` wrapped in a span named ``name`` (and counted as ``count``)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.count(count)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Self seconds per layer plus the counts, as plain JSON data."""
        return {"self": self_times(self.spans), "counts": dict(self.counts)}


def _innermost(spans: list[tuple[float, float, str]]) -> list[tuple[float, float, str]]:
    """One thread's timeline as ``(start, end, name)`` of its innermost span."""
    segments = []
    stack: list[tuple[float, str]] = []
    cursor = 0.0
    for start, end, name in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1][0] <= start:
            top_end, top = stack.pop()
            segments.append((cursor, top_end, top))
            cursor = top_end
        if stack:
            segments.append((cursor, start, stack[-1][1]))
        stack.append((end, name))
        cursor = start
    while stack:
        top_end, top = stack.pop()
        segments.append((cursor, top_end, top))
        cursor = top_end
    return [s for s in segments if s[1] > s[0]]


def self_times(spans, waiting=WAITING) -> dict[str, float]:
    """Seconds of wall clock attributed to each span name.

    Within a thread, an instant belongs to the innermost open span.  Across
    threads, an instant covered by several threads is split evenly among
    the spans doing work; spans in ``waiting`` get it only when no other
    thread's span covers it.  The values sum to the length of the union of
    all spans, never more.
    """
    by_thread: dict[int, list] = {}
    for name, thread, start, end in spans:
        by_thread.setdefault(thread, []).append((start, end, name))
    events = []
    for thread, own in by_thread.items():
        for start, end, name in _innermost(own):
            events.append((start, 1, thread, name))
            events.append((end, 0, thread, name))
    events.sort(key=lambda e: (e[0], e[1]))
    totals: dict[str, float] = {}
    active: dict[int, str] = {}
    last = None
    for at, kind, thread, name in events:
        if active and last is not None and at > last:
            names = list(active.values())
            working = [n for n in names if n not in waiting] or names
            share = (at - last) / len(working)
            for n in working:
                totals[n] = totals.get(n, 0.0) + share
        last = at
        if kind:
            active[thread] = name
        elif active.get(thread) == name:
            del active[thread]
    return totals
