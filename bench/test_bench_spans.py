"""Tests for the span recorder and the per-layer arithmetic of the traced run.

Run with ``python -m pytest bench``.
"""

import sys
from pathlib import Path

import pytest

from layers import PER_LAYER, per_layer_metrics, traced_layers
from spans import Span, Tracer, outer_seconds, self_seconds

SRC = Path(__file__).resolve().parent.parent / "src"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


def test_nested_spans_record_parent_and_self_time(clock):
    tracer = Tracer(clock)

    def inner():
        clock.now += 2

    def outer():
        clock.now += 1
        traced_inner()
        clock.now += 3

    traced_inner = tracer.wrap("b.inner", inner)
    tracer.wrap("a.outer", outer)()
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("a.outer", 0, 6, -1),
        ("b.inner", 1, 3, 0),
    ]
    assert self_seconds(tracer.spans) == [4, 2]
    assert [s.layer for s in tracer.spans] == ["a", "b"]


def test_generator_is_timed_per_next_and_excludes_consumer_time(clock):
    tracer = Tracer(clock)
    items = []

    def helper():
        clock.now += 1

    traced_helper = tracer.wrap("q.helper", helper)

    def gen():
        for k in range(3):
            clock.now += 2
            traced_helper()
            yield k

    def consumer():
        for item in traced_gen():
            clock.now += 10
            items.append(item)

    traced_gen = tracer.wrap("q.gen", gen, on_result=lambda item: tracer.add("q.items"))
    tracer.wrap("s.consumer", consumer)()
    assert items == [0, 1, 2]
    gen_spans = [k for k, s in enumerate(tracer.spans) if s.name == "q.gen"]
    # one span per item plus the final next() that raises StopIteration
    assert len(gen_spans) == 4
    assert all(tracer.spans[k].parent == 0 for k in gen_spans)
    helper_parents = [s.parent for s in tracer.spans if s.name == "q.helper"]
    assert helper_parents == gen_spans[:3]
    assert outer_seconds(tracer.spans, ["q.gen"]) == 9
    own = self_seconds(tracer.spans)
    assert own[0] == 30
    assert sum(own[k] for k in gen_spans) == 6
    assert tracer.counts["q.items"] == 3


def test_abandoned_generator_closes_cleanly(clock):
    tracer = Tracer(clock)

    def gen():
        yield from range(10)

    traced_gen = tracer.wrap("q.gen", gen)
    assert any(x == 2 for x in traced_gen())
    assert len(tracer.spans) == 3
    assert all(s.end == s.end for s in tracer.spans)  # no span left open (NaN end)
    tracer.wrap("q.after", lambda: None)()
    assert tracer.spans[-1].parent == -1


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("a.p", 0, 10, -1),
        Span("b.c1", 1, 5, 0),
        Span("b.c2", 3, 7, 0),
        Span("b.c3", 9, 12, 0),
    ]
    assert self_seconds(spans) == [10 - 6 - 1, 4, 4, 3]


def test_outer_seconds_counts_recursion_and_nesting_once(clock):
    tracer = Tracer(clock)

    def fact(n):
        clock.now += 1
        return 1 if n <= 1 else n * traced_fact(n - 1)

    traced_fact = tracer.wrap("m.fact", fact)
    assert traced_fact(4) == 24
    assert len(tracer.spans) == 4
    assert outer_seconds(tracer.spans, ["m.fact"]) == 4
    assert sum(self_seconds(tracer.spans)) == 4
    assert outer_seconds(tracer.spans, ["m.other"]) == 0


def test_span_closes_when_the_call_raises(clock):
    tracer = Tracer(clock)

    def boom():
        clock.now += 1
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    assert tracer.spans[0].end == 1
    tracer.wrap("m.next", lambda: None)()
    assert tracer.spans[1].parent == -1


def test_count_calls_adds_no_span(clock):
    tracer = Tracer(clock)
    counted = tracer.count_calls("m.hot", lambda x: x + 1)
    assert [counted(k) for k in range(5)] == [1, 2, 3, 4, 5]
    assert tracer.counts["m.hot"] == 5
    assert tracer.spans == []


def test_traced_layers_report_every_metric_and_restore_the_program():
    sys.path.insert(0, str(SRC))
    from qnichols import cyclotomic, supportcalc

    before = (supportcalc.enumerate_quandles, cyclotomic.CycNum.__dict__["inv"])
    tracer = Tracer()
    with traced_layers(tracer):
        report = supportcalc.classify(n_max=4)
    assert (supportcalc.enumerate_quandles, cyclotomic.CycNum.__dict__["inv"]) == before
    metrics = per_layer_metrics(tracer)
    expected = {name for name, _ in PER_LAYER if not name.startswith("bench.")}
    assert set(metrics) == expected
    assert metrics["supportcalc.candidates_examined"] == report["candidates_examined"]
    assert metrics["quandle.labeled_count"] > 0
    assert 0 < metrics["quandle.census_yield"] <= 1
    assert metrics["weyl.sequences"] == 0
