"""Gantt-chart resource timelines with earliest-slot queries.

Section 6 of the paper maintains a Gantt chart per storage and compute node
and reserves time slots on the source and destination of every transfer.
:class:`Timeline` stores disjoint busy intervals in sorted order and answers
``earliest_slot`` queries in O(log n + k); :class:`Overlay` adds *virtual*
reservations on top of a timeline so task completion times can be evaluated
tentatively (paper: files are "tentatively scheduled") without mutating the
real chart; :func:`earliest_common_slot` finds the first instant a set of
resources is simultaneously free (single-port model: a transfer occupies both
its endpoints, plus the shared inter-cluster link when present).

Simulated time lives on a grid of 2**-30 s (about 0.93 ns). Every duration
is rounded up onto it once, where it is created (:func:`on_grid`), and each
batch clock starts at 0, so every time the charts see is a sum of grid
values below 2**23 s. float64 holds such sums exactly (23 + 30 = 53 mantissa
bits), so all comparisons here are exact: ties are real ties, and adding a
reservation can never move an earliest slot earlier.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..analysis.dims import Seconds

__all__ = ["Interval", "Timeline", "Overlay", "earliest_common_slot", "on_grid"]

#: Grid points per simulated second.
_GRID = float(2**30)


def on_grid(seconds: Seconds) -> Seconds:
    """``seconds`` rounded up to the next multiple of 2**-30 s."""
    return math.ceil(seconds * _GRID) / _GRID


@dataclass(frozen=True, order=True)
class Interval:
    """A closed-open busy interval ``[start, end)`` with a debug tag."""

    start: Seconds
    end: Seconds
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} before start {self.start}")

    @property
    def duration(self) -> Seconds:
        return self.end - self.start


#: Tail length beyond which ``earliest_slot`` switches from the Python
#: scan to the vectorised gap search (below it, NumPy call overhead wins).
_SCAN_VECTOR_MIN = 48


class Timeline:
    """Busy intervals of one resource, kept sorted and non-overlapping.

    Starts and ends are mirrored in parallel float lists (for bisection
    and the Python-level scan) and in NumPy arrays grown by doubling (for
    the vectorised long-tail scan in :meth:`earliest_slot`); both are
    updated in place on :meth:`reserve`. All three views hold the exact
    same floats, so query results are independent of which path runs.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._intervals: list[Interval] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._starts_a = np.empty(64)
        self._ends_a = np.empty(64)

    def __len__(self) -> int:
        return len(self._intervals)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(self._intervals)

    @property
    def horizon(self) -> Seconds:
        """End of the last reservation (0 when empty)."""
        return self._intervals[-1].end if self._intervals else 0.0

    def busy_time(self) -> Seconds:
        return sum(iv.duration for iv in self._intervals)

    def is_free(self, start: Seconds, end: Seconds) -> bool:
        """True when ``[start, end)`` does not overlap any reservation."""
        if end <= start:
            return True
        i = bisect_right(self._starts, start)
        if i > 0 and self._ends[i - 1] > start:
            return False
        if i < len(self._starts) and self._starts[i] < end:
            return False
        return True

    def next_free(self, t: Seconds) -> Seconds:
        """Earliest instant >= t that is not inside a reservation."""
        i = bisect_right(self._starts, t)
        if i > 0 and self._ends[i - 1] > t:
            return self._ends[i - 1]
        return t

    def earliest_slot(self, duration: Seconds, not_before: Seconds = 0.0) -> Seconds:
        """Earliest start >= not_before of a free gap of ``duration``."""
        if duration <= 0.0:
            return self.next_free(not_before)
        t = not_before if not_before > 0.0 else 0.0
        starts = self._starts
        n = len(starts)
        i = bisect_right(starts, t)
        ends = self._ends
        if i > 0 and ends[i - 1] > t:
            t = ends[i - 1]
        if i == n:
            return t
        if t + duration <= starts[i]:
            return t
        if n - i > _SCAN_VECTOR_MIN:
            # Vectorised tail scan. The candidate start before interval
            # j is the running max of ends up to j-1 (identical to the
            # scalar loop's ``t = max(t, nxt.end)`` bumps); the first
            # fitting gap wins, else the schedule's tail.
            racc = np.maximum.accumulate(self._ends_a[i:n])
            if t > ends[i]:
                racc = np.maximum(racc, t)
            fits = racc[:-1] + duration <= self._starts_a[i + 1 : n]
            j = int(np.argmax(fits))
            if fits[j]:
                return float(racc[j])
            return float(racc[-1])
        while True:
            e = ends[i]
            if e > t:
                t = e
            i += 1
            if i == n:
                return t
            if t + duration <= starts[i]:
                return t

    def reserve(self, start: Seconds, duration: Seconds, tag: str = "") -> Interval:
        """Reserve ``[start, start+duration)``; the slot must be free."""
        iv = Interval(start, start + duration, tag)
        if not self.is_free(iv.start, iv.end):
            raise ValueError(
                f"timeline {self.name!r}: slot [{start}, {start + duration}) is busy"
            )
        idx = bisect_right(self._starts, iv.start)
        self._intervals.insert(idx, iv)
        self._starts.insert(idx, iv.start)
        self._ends.insert(idx, iv.end)
        n = len(self._starts) - 1  # count before this insert
        sa, ea = self._starts_a, self._ends_a
        if n == len(sa):
            grown = np.empty(2 * n)
            grown[:n] = sa
            self._starts_a = sa = grown
            grown = np.empty(2 * n)
            grown[:n] = ea
            self._ends_a = ea = grown
        if idx < n:
            sa[idx + 1 : n + 1] = sa[idx:n]
            ea[idx + 1 : n + 1] = ea[idx:n]
        sa[idx] = iv.start
        ea[idx] = iv.end
        return iv

    def __repr__(self) -> str:
        return f"Timeline({self.name!r}, {len(self)} reservations)"


class Overlay:
    """A timeline view with extra virtual reservations (copy-on-write).

    Used when evaluating a task's earliest completion time: the transfers of
    the candidate task are placed on overlays so they constrain each other
    without touching the real Gantt chart. ``commit`` replays the virtual
    reservations onto the base timeline.
    """

    def __init__(self, base: Timeline) -> None:
        self.base = base
        self.virtual: list[Interval] = []

    def is_free(self, start: Seconds, end: Seconds) -> bool:
        if not self.base.is_free(start, end):
            return False
        return all(
            iv.end <= start or iv.start >= end for iv in self.virtual
        )

    def earliest_slot(self, duration: Seconds, not_before: Seconds = 0.0) -> Seconds:
        virtual = self.virtual
        if not virtual:
            return self.base.earliest_slot(duration, not_before)
        t = not_before if not_before > 0.0 else 0.0
        base_slot = self.base.earliest_slot
        # Alternate between the base timeline and virtual intervals until
        # a common gap is found; terminates because every bump moves t to
        # the end of a reservation it overlapped, and there are finitely
        # many of those.
        while True:
            t2 = base_slot(duration, t)
            end = t2 + duration
            bumped = False
            for iv in virtual:
                if iv.start < end and iv.end > t2:
                    t2 = iv.end
                    end = t2 + duration
                    bumped = True
            if not bumped:
                return t2
            t = t2

    def reserve(self, start: Seconds, duration: Seconds, tag: str = "") -> Interval:
        iv = Interval(start, start + duration, tag)
        if not self.is_free(iv.start, iv.end):
            raise ValueError(f"overlay of {self.base.name!r}: slot busy")
        self.virtual.append(iv)
        return iv

    def commit(self) -> None:
        """Write all virtual reservations through to the base timeline."""
        for iv in self.virtual:
            self.base.reserve(iv.start, iv.duration, iv.tag)
        self.virtual.clear()


def earliest_common_slot(
    resources: Sequence[Timeline | Overlay],
    duration: Seconds,
    not_before: Seconds = 0.0,
) -> Seconds:
    """Earliest start where *all* resources are free for ``duration``.

    Cyclic fixpoint: the resources are asked round-robin for their earliest
    slot at or after the candidate start ``t``. A later answer moves ``t``;
    the search stops once every resource in a row has accepted ``t``. Each
    answer is that resource's minimum feasible start >= ``t`` (exact on the
    time grid), so the result is the minimum start at which all resources
    are free. Terminates because ``t`` only grows, and only to the end of
    one of finitely many reservations.
    """
    t = not_before if not_before > 0.0 else 0.0
    n = len(resources)
    accepted = 0
    i = 0
    while accepted < n:
        slot = resources[i].earliest_slot(duration, t)
        if slot > t:
            t = slot
            accepted = 1
        else:
            accepted += 1
        i += 1
        if i == n:
            i = 0
    return t
