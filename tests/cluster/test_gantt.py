"""Unit tests for Gantt-chart timelines, overlays and common-slot search."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Interval, Overlay, Timeline, earliest_common_slot
from repro.cluster.gantt import on_grid


class TestInterval:
    def test_duration(self):
        assert Interval(1.0, 3.5).duration == 2.5

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_ordering_by_start(self):
        assert Interval(1.0, 2.0) < Interval(3.0, 4.0)


class TestTimeline:
    def test_empty_is_free(self):
        tl = Timeline("t")
        assert tl.is_free(0.0, 100.0)
        assert tl.earliest_slot(5.0) == 0.0
        assert tl.horizon == 0.0

    def test_reserve_and_conflict(self):
        tl = Timeline("t")
        tl.reserve(1.0, 2.0)
        assert not tl.is_free(0.0, 1.5)
        assert not tl.is_free(2.5, 3.5)
        assert tl.is_free(3.0, 5.0)
        with pytest.raises(ValueError):
            tl.reserve(2.0, 1.0)

    def test_adjacent_reservations_allowed(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(1.0, 1.0)  # back-to-back is fine
        assert len(tl) == 2

    def test_earliest_slot_in_gap(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(3.0, 1.0)
        assert tl.earliest_slot(2.0) == 1.0
        assert tl.earliest_slot(2.5) == 4.0  # gap too small

    def test_earliest_slot_not_before(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        assert tl.earliest_slot(1.0, not_before=0.5) == 1.0
        assert tl.earliest_slot(1.0, not_before=2.0) == 2.0

    def test_earliest_slot_inside_busy(self):
        tl = Timeline("t")
        tl.reserve(0.0, 10.0)
        assert tl.earliest_slot(1.0, not_before=5.0) == 10.0

    def test_next_free(self):
        tl = Timeline("t")
        tl.reserve(1.0, 2.0)
        assert tl.next_free(0.0) == 0.0
        assert tl.next_free(1.5) == 3.0

    def test_zero_duration(self):
        tl = Timeline("t")
        tl.reserve(0.0, 2.0)
        assert tl.earliest_slot(0.0, not_before=1.0) == 2.0

    def test_busy_time_and_horizon(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(5.0, 2.0)
        assert tl.busy_time() == 3.0
        assert tl.horizon == 7.0

    def test_many_reservations_sorted(self):
        tl = Timeline("t")
        for start in (6.0, 2.0, 4.0, 0.0):
            tl.reserve(start, 1.0)
        starts = [iv.start for iv in tl.intervals]
        assert starts == sorted(starts)

    def test_tag_preserved(self):
        tl = Timeline("t")
        iv = tl.reserve(0.0, 1.0, tag="xfer:f1")
        assert iv.tag == "xfer:f1"


class TestOverlay:
    def test_virtual_blocks_slot(self):
        tl = Timeline("t")
        ov = Overlay(tl)
        ov.reserve(0.0, 2.0)
        assert ov.earliest_slot(1.0) == 2.0
        # base is untouched
        assert tl.earliest_slot(1.0) == 0.0

    def test_combines_base_and_virtual(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        ov = Overlay(tl)
        ov.reserve(1.0, 1.0)
        assert ov.earliest_slot(1.0) == 2.0

    def test_gap_between_base_and_virtual(self):
        tl = Timeline("t")
        tl.reserve(0.0, 1.0)
        tl.reserve(5.0, 1.0)
        ov = Overlay(tl)
        ov.reserve(1.0, 1.0)
        assert ov.earliest_slot(2.0) == 2.0  # gap [2,5)
        assert ov.earliest_slot(4.0) == 6.0

    def test_conflicting_virtual_rejected(self):
        tl = Timeline("t")
        ov = Overlay(tl)
        ov.reserve(0.0, 2.0)
        with pytest.raises(ValueError):
            ov.reserve(1.0, 1.0)

    def test_commit_writes_through(self):
        tl = Timeline("t")
        ov = Overlay(tl)
        ov.reserve(0.0, 2.0, tag="a")
        ov.reserve(3.0, 1.0, tag="b")
        ov.commit()
        assert len(tl) == 2
        assert not ov.virtual
        assert not tl.is_free(0.5, 1.0)


class TestCommonSlot:
    def test_single_resource(self):
        tl = Timeline("a")
        tl.reserve(0.0, 3.0)
        assert earliest_common_slot([tl], 1.0) == 3.0

    def test_two_resources_interleaved(self):
        a = Timeline("a")
        b = Timeline("b")
        a.reserve(0.0, 2.0)
        b.reserve(2.0, 2.0)
        # a free from 2, b free [0,2) and from 4 -> first common 1.0-slot: 4.0
        assert earliest_common_slot([a, b], 1.0) == 4.0

    def test_fits_common_gap(self):
        a = Timeline("a")
        b = Timeline("b")
        a.reserve(0.0, 1.0)
        a.reserve(4.0, 1.0)
        b.reserve(0.0, 2.0)
        # common gap [2,4) fits 2.0
        assert earliest_common_slot([a, b], 2.0) == 2.0
        assert earliest_common_slot([a, b], 3.0) == 5.0

    def test_not_before_respected(self):
        a = Timeline("a")
        assert earliest_common_slot([a], 1.0, not_before=7.5) == 7.5

    def test_empty_resources(self):
        assert earliest_common_slot([], 1.0, not_before=3.0) == 3.0

    def test_with_overlays(self):
        a = Timeline("a")
        ov = Overlay(a)
        ov.reserve(0.0, 5.0)
        b = Timeline("b")
        b.reserve(5.0, 1.0)
        assert earliest_common_slot([ov, b], 1.0) == 6.0


class TestGrid:
    def test_rounds_up_to_the_grid(self):
        tick = 2.0**-30
        assert on_grid(1.0) == 1.0
        assert on_grid(0.0) == 0.0
        assert on_grid(tick / 3) == tick
        assert on_grid(0.1) >= 0.1
        assert on_grid(0.1) - 0.1 < tick
        assert on_grid(on_grid(0.1)) == on_grid(0.1)

    def test_grid_sums_are_exact(self):
        # Durations on the grid add exactly, whatever their order.
        ds = [on_grid(x) for x in (0.1, 1 / 3, 2.7182818, 12.345678)]
        assert sum(ds) == sum(reversed(ds)) == (ds[0] + ds[2]) + (ds[1] + ds[3])


# -- properties over grid-aligned random charts ---------------------------
#
# Times are ``offset + k * unit`` for small integers k: multiples of the
# 2**-30 s grid below 2**23 s, where float64 sums are exact. Small k makes
# ties, adjacent reservations and exact fits common. The brute-force search
# below tries every start that can be minimal (``not_before`` or the end of
# some reservation) and checks overlap against the raw interval lists.

_TICK = 2.0**-30


@st.composite
def _frames(draw):
    unit = draw(st.sampled_from([1, 2**10, 2**27])) * _TICK
    offset = draw(st.sampled_from([0.0, 1000.0, 3_000_000.0]))
    return unit, offset


def _draw_intervals(draw, unit, offset, max_n):
    t = draw(st.integers(0, 10))
    out = []
    for _ in range(draw(st.integers(0, max_n))):
        length = draw(st.integers(1, 12))
        out.append((offset + t * unit, offset + (t + length) * unit))
        t += length + draw(st.integers(0, 6))
    return out


def _overlaps(a, b, s, e):
    return a < e and b > s


@st.composite
def _resources(draw, unit, offset):
    """1-3 resources, each a plain timeline or an overlay with virtuals."""
    resources = []
    for r in range(draw(st.integers(1, 3))):
        tl = Timeline(f"r{r}")
        for a, b in _draw_intervals(draw, unit, offset, draw(st.sampled_from([6, 60]))):
            tl.reserve(a, b - a)
        if draw(st.booleans()):
            ov = Overlay(tl)
            for a, b in _draw_intervals(draw, unit, offset, 6):
                if ov.is_free(a, b):
                    ov.reserve(a, b - a)
            resources.append(ov)
        else:
            resources.append(tl)
    return resources


def _busy(res):
    if isinstance(res, Overlay):
        return [(iv.start, iv.end) for iv in res.base.intervals + tuple(res.virtual)]
    return [(iv.start, iv.end) for iv in res.intervals]


def _brute_slot(resources, duration, not_before):
    busy = [iv for res in resources for iv in _busy(res)]
    starts = sorted({not_before} | {b for _, b in busy if b > not_before})
    for s in starts:
        if not any(_overlaps(a, b, s, s + duration) for a, b in busy):
            return s
    raise AssertionError("no feasible start")  # pragma: no cover


def _two_round_slot(resources, duration, not_before):
    """The former fixpoint: full rounds until a round moves nothing."""
    t = max(0.0, not_before)
    while True:
        t_new = t
        for res in resources:
            t_new = max(t_new, res.earliest_slot(duration, t_new))
        if t_new <= t:
            return t_new
        t = t_new


@st.composite
def _queries(draw):
    unit, offset = draw(_frames())
    resources = draw(_resources(unit, offset))
    duration = draw(st.integers(1, 15)) * unit
    not_before = offset + draw(st.integers(0, 120)) * unit
    return unit, offset, resources, duration, not_before


class TestCommonSlotProperties:
    @settings(max_examples=300, deadline=None)
    @given(_queries())
    def test_returns_the_minimum_feasible_start(self, q):
        _, _, resources, duration, not_before = q
        got = earliest_common_slot(resources, duration, not_before)
        assert got == _brute_slot(resources, duration, not_before)

    @settings(max_examples=300, deadline=None)
    @given(_queries())
    def test_cyclic_fixpoint_equals_two_round(self, q):
        _, _, resources, duration, not_before = q
        assert earliest_common_slot(
            resources, duration, not_before
        ) == _two_round_slot(resources, duration, not_before)

    @settings(max_examples=300, deadline=None)
    @given(_queries(), st.data())
    def test_a_reservation_never_makes_a_slot_earlier(self, q, data):
        unit, offset, resources, duration, not_before = q
        before = earliest_common_slot(resources, duration, not_before)
        res = data.draw(st.sampled_from(resources))
        a = offset + data.draw(st.integers(0, 150)) * unit
        b = a + data.draw(st.integers(1, 12)) * unit
        if not res.is_free(a, b):
            return
        base = res.base if isinstance(res, Overlay) else res
        base.reserve(a, b - a)
        after = earliest_common_slot(resources, duration, not_before)
        assert after >= before
        assert after == _brute_slot(resources, duration, not_before)
