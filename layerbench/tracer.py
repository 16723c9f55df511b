"""Layer tracing from outside the program: wrap public functions, keep spans.

A :class:`Tracer` owns every span and counter of one traced operation.
:func:`installed` swaps each :class:`Patch` target for a wrapper and puts
the original back on exit, so a later untraced operation runs the
unmodified code.

Three wrapper kinds trade detail for overhead:

* ``SPAN`` — timed, and each call is kept as a span record
  ``(id, parent_id, name, start, end, self_s)``; for functions called up
  to tens of thousands of times per operation.
* ``TIMED`` — timed and attributed to its parent like a span, but only
  the per-name totals are kept; for the ~10^5-call functions.
* ``COUNT`` — a call counter with no clock reads and no stack frame; its
  time stays with the enclosing span. For the ~10^6-call functions.

Self time is a span's duration minus the time its child spans cover.
Calls are single-threaded and strictly nested, so the covered time is the
sum of the children's durations.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

SPAN = "span"
TIMED = "timed"
COUNT = "count"


@dataclass(frozen=True)
class Patch:
    """Wrap ``owner.attr`` (a module function or a class's own method)."""

    metric: str
    owner: object
    attr: str
    kind: str


@dataclass
class Totals:
    """Per-name totals: calls, inclusive seconds and self seconds."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Spans and counters of one traced operation, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # Open frames, innermost last: [start, child_s, span_id, parent_id].
        self.stack: list[list] = []
        self.totals: dict[str, Totals] = {}
        self.counts: dict[str, list[int]] = {}
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self._ids = itertools.count(1)

    # -- frames ------------------------------------------------------------
    def _open(self) -> list:
        parent = self.stack[-1][2] if self.stack else 0
        frame = [self.clock(), 0.0, next(self._ids), parent]
        self.stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, keep: bool) -> None:
        end = self.clock()
        self.stack.pop()
        duration = end - frame[0]
        own = duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        totals = self.totals.setdefault(name, Totals())
        totals.calls += 1
        totals.total_s += duration
        totals.self_s += own
        if keep:
            self.spans.append((frame[2], frame[3], name, frame[0], end, own))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A kept span around a block of the benchmark's own code."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame, True)

    # -- wrappers ----------------------------------------------------------
    def wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        """Return ``fn`` wrapped as a ``SPAN``, ``TIMED`` or ``COUNT`` probe."""
        if kind == COUNT:
            cell = self.counts.setdefault(name, [0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted
        if kind not in (SPAN, TIMED):
            raise ValueError(f"unknown wrapper kind {kind!r}")
        keep = kind == SPAN
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = open_()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, keep)

        return timed

    # -- results -----------------------------------------------------------
    def calls(self, name: str) -> int:
        """Calls of ``name``, whether it was timed or only counted."""
        if name in self.counts:
            return self.counts[name][0]
        totals = self.totals.get(name)
        return totals.calls if totals else 0

    def self_s(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.self_s if totals else 0.0


def _original(owner: object, attr: str) -> object:
    # A class's own __dict__ entry, so an inherited method is never copied
    # down onto a subclass (and restoring it cannot shadow the base).
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {attr}")
        return vars(owner)[attr]
    return getattr(owner, attr)


@contextmanager
def installed(tracer: Tracer, patches: Iterable[Patch]) -> Iterator[Tracer]:
    """Wrap every patch target for the duration of the block, then restore."""
    saved: list[tuple[object, str, object]] = []
    try:
        for p in patches:
            original = _original(p.owner, p.attr)
            saved.append((p.owner, p.attr, original))
            setattr(p.owner, p.attr, tracer.wrap(p.metric, original, p.kind))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
