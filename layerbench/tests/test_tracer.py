"""Span arithmetic and patch lifetime of the benchmark's tracer."""

import types

import pytest

from tracer import COUNT, SPAN, TIMED, Patch, Tracer, installed


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def nested(clock: FakeClock, kinds: tuple[str, str]):
    """outer: 1s, inner (5s), 2s, inner (5s), 3s — inner wrapped as kinds[1]."""
    tracer = Tracer(clock=clock)

    def inner() -> None:
        clock.advance(5.0)

    winner = tracer.wrap("inner", inner, kinds[1])

    def outer() -> str:
        clock.advance(1.0)
        winner()
        clock.advance(2.0)
        winner()
        clock.advance(3.0)
        return "done"

    return tracer, tracer.wrap("outer", outer, kinds[0])


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer, outer = nested(clock, (SPAN, SPAN))
    assert outer() == "done"
    assert tracer.totals["outer"].total_s == 16.0
    assert tracer.self_s("outer") == 6.0
    assert tracer.calls("inner") == 2
    assert tracer.totals["inner"].total_s == 10.0
    assert tracer.self_s("inner") == 10.0


def test_spans_record_their_parent():
    clock = FakeClock()
    tracer, outer = nested(clock, (SPAN, SPAN))
    outer()
    by_name = {}
    for span_id, parent, name, start, end, own in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent, start, end, own))
    [(outer_id, outer_parent, start, end, own)] = by_name["outer"]
    assert (outer_parent, start, end, own) == (0, 0.0, 16.0, 6.0)
    assert [(p, s, e) for _, p, s, e, _ in by_name["inner"]] == [
        (outer_id, 1.0, 6.0),
        (outer_id, 8.0, 13.0),
    ]


def test_timed_children_attribute_like_spans_but_keep_no_records():
    clock = FakeClock()
    tracer, outer = nested(clock, (SPAN, TIMED))
    outer()
    assert tracer.self_s("outer") == 6.0
    assert tracer.self_s("inner") == 10.0
    assert [s[2] for s in tracer.spans] == ["outer"]


def test_counted_children_leave_their_time_with_the_parent():
    clock = FakeClock()
    tracer, outer = nested(clock, (SPAN, COUNT))
    outer()
    assert tracer.calls("inner") == 2
    assert tracer.self_s("outer") == 16.0
    assert "inner" not in tracer.totals


def test_block_span_and_self_time_sum_to_wall():
    clock = FakeClock()
    tracer, outer = nested(clock, (SPAN, SPAN))
    with tracer.span("root"):
        clock.advance(0.5)
        outer()
    total = sum(t.self_s for t in tracer.totals.values())
    assert total == tracer.totals["root"].total_s == 16.5
    assert tracer.self_s("root") == 0.5


def test_exception_still_closes_the_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom() -> None:
        clock.advance(2.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        with tracer.span("root"):
            tracer.wrap("boom", boom, SPAN)()
    assert tracer.stack == []
    assert tracer.self_s("boom") == 2.0
    assert tracer.self_s("root") == 0.0


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError):
        Tracer().wrap("f", len, "sampled")


class Base:
    def work(self) -> int:
        return 1


class Child(Base):
    pass


def test_installed_restores_originals_even_on_error():
    module = types.SimpleNamespace(f=lambda: 3)
    original_f, original_work = module.f, vars(Base)["work"]
    tracer = Tracer()
    patches = [Patch("f", module, "f", COUNT), Patch("work", Base, "work", SPAN)]
    with pytest.raises(RuntimeError):
        with installed(tracer, patches):
            assert module.f() == 3
            assert Child().work() == 1  # the subclass inherits the wrapper
            raise RuntimeError("stop")
    assert module.f is original_f
    assert vars(Base)["work"] is original_work
    assert "work" not in vars(Child)
    assert tracer.calls("f") == 1 and tracer.calls("work") == 1


def test_only_a_class_own_method_can_be_patched():
    with pytest.raises(AttributeError):
        with installed(Tracer(), [Patch("work", Child, "work", SPAN)]):
            pass
    assert "work" not in vars(Child)
