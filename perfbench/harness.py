"""Arithmetic and tracing shared by the perfbench workloads.

Nothing here imports :mod:`repro`: the percentile, span and lateness
helpers are the benchmark's own measuring instruments, tested on their
own in ``perfbench/tests``.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one input stream, a pure function of
    ``(seed, tag)`` so every input is reproducible from ``--seed``."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The smallest sample value with at least ``q`` percent of the sample
    at or below it: rank ``ceil(q / 100 * n)``, counted from 1.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Plain median (the mean of the middle pair for even counts)."""
    return statistics.median(values)


def peak_rss_mib() -> float:
    """This process's resident-set high-water mark, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class SpanRecord:
    """One timed call into a layer."""

    name: str
    start: float
    end: float = 0.0
    parent: "SpanRecord | None" = None
    children: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Wall duration of the span."""
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part of it covered by child spans.

        Children are clipped to the parent's interval and their union is
        taken, so overlapping children are not subtracted twice.
        """
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.seconds - covered


@dataclass
class LayerTotals:
    """Aggregate of every span of one name."""

    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Nested wall-clock spans with parent pointers, kept in memory.

    Single-threaded: the open-span stack is the parent of the next span.
    ``clock`` is injectable so tests can drive time by hand.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []

    @contextmanager
    def span(self, name: str) -> Iterator[SpanRecord]:
        """Time the block as one call into layer ``name``."""
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(name=name, start=self.clock(), parent=parent)
        if parent is not None:
            parent.children.append(record)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call timed as a span of layer ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def layers(self) -> dict[str, LayerTotals]:
        """Per-layer call count, total time and self time."""
        totals: dict[str, LayerTotals] = {}
        for record in self.spans:
            layer = totals.setdefault(record.name, LayerTotals())
            layer.count += 1
            layer.total += record.seconds
            layer.self_time += record.self_seconds
        return totals


class NullTracer:
    """The untraced stand-in: spans cost a method call and nothing else."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Run the block untimed."""
        yield None


# ----------------------------------------------------------------------
# Open-loop lateness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Timing:
    """One open-loop request: when it was due, sent and completed."""

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its completion, so
        a stalled generator's backlog counts against the system."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return max(0.0, self.sent - self.due)


def lateness_summary(timings: Sequence[Timing]) -> dict[str, float]:
    """How late the open-loop generator ran, in milliseconds.

    ``latency_ms`` is from the due time; ``service_ms`` is from the send
    time (what a closed-loop client would have measured); the gap
    between the two is the generator's lateness.
    """
    late = [t.late for t in timings]
    return {
        "late_p50_ms": percentile(late, 50) * 1e3,
        "late_p95_ms": percentile(late, 95) * 1e3,
        "late_max_ms": max(late) * 1e3,
        "latency_p50_ms": percentile([t.latency for t in timings], 50) * 1e3,
        "service_p50_ms": percentile(
            [t.done - t.sent for t in timings], 50
        ) * 1e3,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def format_layer_table(
    rows: Sequence[tuple[str, int, float, float]], wall: float
) -> str:
    """The per-layer table: name, calls, total s, self s, self share."""
    lines = [
        f"{'layer':<34} {'calls':>8} {'total s':>10} {'self s':>10} "
        f"{'self %':>7}",
    ]
    for name, count, total, self_time in rows:
        share = 100.0 * self_time / wall if wall > 0 else 0.0
        lines.append(
            f"{name:<34} {count:>8} {total:>10.4f} {self_time:>10.4f} "
            f"{share:>6.1f}%"
        )
    return "\n".join(lines)
