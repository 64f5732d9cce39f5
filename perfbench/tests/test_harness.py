"""The benchmark harness's own arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from harness import (  # noqa: E402
    Timing,
    Tracer,
    lateness_summary,
    percentile,
)


class ManualClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Nearest-rank percentiles
# ----------------------------------------------------------------------


def test_percentile_nearest_rank_picks_a_sample_value():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50


def test_percentile_ignores_input_order_and_handles_one_sample():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert percentile([3.0, 1.0, 2.0, 4.0], 75) == 3.0
    assert percentile([7.5], 95) == 7.5


def test_percentile_p95_of_hundred_is_the_95th_value():
    values = list(range(1, 101))
    assert percentile(values, 95) == 95
    assert percentile(values, 99) == 99


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        percentile([1.0], q)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# Self time under nested spans
# ----------------------------------------------------------------------


def test_self_time_subtracts_children_at_every_level():
    clock = ManualClock()
    tracer = Tracer(clock)
    with tracer.span("round"):
        clock.now += 1.0
        with tracer.span("ingest"):
            clock.now += 0.5
            with tracer.span("gate"):
                clock.now += 2.0
                with tracer.span("confidence"):
                    clock.now += 3.0
            clock.now += 0.25
            with tracer.span("parse"):
                clock.now += 4.0
        clock.now += 0.75
    layers = tracer.layers()
    assert layers["round"].total == pytest.approx(11.5)
    assert layers["round"].self_time == pytest.approx(1.75)
    assert layers["ingest"].self_time == pytest.approx(0.75)
    assert layers["gate"].self_time == pytest.approx(2.0)
    assert layers["confidence"].self_time == pytest.approx(3.0)
    assert layers["parse"].self_time == pytest.approx(4.0)
    # Self times partition the root's wall time exactly.
    assert sum(l.self_time for l in layers.values()) == pytest.approx(11.5)


def test_repeated_layer_sums_calls_and_self_time():
    clock = ManualClock()
    tracer = Tracer(clock)
    with tracer.span("ingest"):
        for _ in range(3):
            with tracer.span("gate"):
                clock.now += 1.0
                with tracer.span("confidence"):
                    clock.now += 2.0
    layers = tracer.layers()
    assert layers["gate"].count == 3
    assert layers["gate"].total == pytest.approx(9.0)
    assert layers["gate"].self_time == pytest.approx(3.0)
    assert layers["confidence"].count == 3
    assert layers["ingest"].self_time == pytest.approx(0.0)


def test_overlapping_children_are_not_subtracted_twice():
    clock = ManualClock()
    tracer = Tracer(clock)
    with tracer.span("parent") as parent:
        clock.now = 10.0
    # Two children recorded by hand overlapping on [2, 4], one poking
    # out past the parent's end.
    first = type(parent)(name="a", start=1.0, end=4.0, parent=parent)
    second = type(parent)(name="b", start=2.0, end=12.0, parent=parent)
    parent.children.extend([first, second])
    assert parent.self_seconds == pytest.approx(1.0)


def test_span_closes_when_the_block_raises():
    clock = ManualClock()
    tracer = Tracer(clock)
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            clock.now += 1.0
            with tracer.span("inner"):
                clock.now += 2.0
                raise RuntimeError("boom")
    with tracer.span("after"):
        clock.now += 1.0
    layers = tracer.layers()
    assert layers["inner"].total == pytest.approx(2.0)
    assert layers["outer"].self_time == pytest.approx(1.0)
    assert tracer.spans[-1].parent is None


def test_wrap_times_each_call():
    clock = ManualClock()
    tracer = Tracer(clock)

    def work(x):
        clock.now += x
        return x * 2

    traced = tracer.wrap("work", work)
    assert traced(1.5) == 3.0
    assert traced(0.5) == 1.0
    layer = tracer.layers()["work"]
    assert layer.count == 2
    assert layer.total == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Open-loop lateness accounting
# ----------------------------------------------------------------------


def test_latency_counts_from_due_not_from_send():
    timing = Timing(due=1.0, sent=1.25, done=1.5)
    assert timing.latency == pytest.approx(0.5)
    assert timing.late == pytest.approx(0.25)


def test_early_send_is_not_negative_lateness():
    timing = Timing(due=2.0, sent=1.999, done=2.01)
    assert timing.late == 0.0
    assert timing.latency == pytest.approx(0.01)


def test_stall_charges_every_delayed_request():
    # A 100 ms stall at t=0 delays three requests due 10 ms apart; each
    # is charged from its own due time, so the backlog shows.
    timings = [
        Timing(due=0.00, sent=0.10, done=0.105),
        Timing(due=0.01, sent=0.10, done=0.106),
        Timing(due=0.02, sent=0.10, done=0.107),
        Timing(due=0.30, sent=0.30, done=0.305),
    ]
    summary = lateness_summary(timings)
    assert summary["late_max_ms"] == pytest.approx(100.0)
    assert summary["late_p50_ms"] == pytest.approx(80.0)
    assert summary["late_p95_ms"] == pytest.approx(100.0)
    assert summary["latency_p50_ms"] == pytest.approx(87.0)
    assert summary["service_p50_ms"] == pytest.approx(5.0)
