"""A process-local metrics registry: counters, gauges, histograms.

The paper's crawl and survey hinge on being able to *see* the pipeline --
per-server rate-limit trips (Section 4.1), parser error rates (Section 5),
survey coverage (Section 6).  :class:`MetricsRegistry` is the shared
substrate for that visibility: named series with label dimensions, cheap
enough to leave on in production.

Design constraints (enforced here, relied on by every instrumented stage):

- **Zero dependencies.**  Standard library only.
- **No-op fast path.**  Instrumented code calls the module-level helpers
  (:func:`inc`, :func:`observe`, :func:`set_gauge`, ``trace``); when no
  registry is installed each is a single attribute load and an ``if``.
- **Bounded cardinality.**  Each metric name holds at most
  :data:`MAX_SERIES` distinct label sets; past the cap new label sets
  are collapsed into one reserved overflow series so a hostile label
  value (a crawl of a million registrar servers) cannot exhaust memory.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from contextlib import contextmanager
from typing import Iterator

#: ``(("server", "whois.godaddy.com"), ...)`` -- the canonical (sorted,
#: hashable) form of one series' labels.
LabelSet = tuple[tuple[str, str], ...]

#: reserved label set for series dropped by the cardinality cap
OVERFLOW_LABELS: LabelSet = (("otel_overflow", "true"),)

#: histogram bucket upper bounds, in seconds -- spans from a
#: sub-millisecond Viterbi chunk to a multi-minute rate-limit backoff.
BOUNDS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0,
)

#: observations each histogram keeps exactly, for exact quantiles
SAMPLE_SIZE = 1024

#: label sets each metric name holds before new ones overflow
MAX_SERIES = 256


def labelset(labels: dict[str, str]) -> LabelSet:
    """Canonicalize a label dict (values coerced to str, keys sorted)."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Histogram:
    """One histogram series: fixed buckets plus an exact bounded sample.

    Buckets (upper bounds :data:`BOUNDS`) give the Prometheus-compatible
    cumulative view; the sorted sample (the first :data:`SAMPLE_SIZE`
    observations) gives exact quantiles while it covers every
    observation, after which :meth:`quantile` falls back to linear
    interpolation inside the matching bucket.
    """

    __slots__ = (
        "bounds", "bucket_counts", "count", "total",
        "min", "max", "_sample", "_sample_size",
    )

    def __init__(self) -> None:
        """Empty histogram over :data:`BOUNDS`, exact up to
        :data:`SAMPLE_SIZE` observations."""
        self.bounds = BOUNDS
        self.bucket_counts = [0] * (len(BOUNDS) + 1)  # last = +Inf
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._sample: list[float] = []
        self._sample_size = SAMPLE_SIZE

    def observe(self, value: float) -> None:
        """Record one value into the buckets (and the exact sample)."""
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._sample) < self._sample_size:
            insort(self._sample, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of every observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) of the observed values.

        Exact while the sample still holds every observation; bucket
        interpolation beyond that.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if self.count <= len(self._sample):
            # Exact: nearest-rank on the sorted sample.
            rank = min(len(self._sample) - 1, int(q * len(self._sample)))
            return self._sample[rank]
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if cumulative + bucket_count >= target:
                lo = self.bounds[i - 1] if i > 0 else (self.min or 0.0)
                hi = self.bounds[i] if i < len(self.bounds) else (self.max or lo)
                if bucket_count == 0:
                    return hi
                return lo + (hi - lo) * (target - cumulative) / bucket_count
            cumulative += bucket_count
        return self.max or 0.0

    def state(self) -> tuple:
        """Plain, picklable copy of this series for :meth:`merge`."""
        return (
            list(self.bucket_counts), self.count, self.total,
            self.min, self.max, list(self._sample),
        )

    def merge(self, state: tuple) -> None:
        """Fold another series' :meth:`state` in: buckets, counts and sums
        add, min/max combine, and its sample fills ours up to its size."""
        bucket_counts, count, total, low, high, sample = state
        self.bucket_counts = [
            mine + theirs
            for mine, theirs in zip(self.bucket_counts, bucket_counts)
        ]
        self.count += count
        self.total += total
        if low is not None and (self.min is None or low < self.min):
            self.min = low
        if high is not None and (self.max is None or high > self.max):
            self.max = high
        for value in sample:
            if len(self._sample) >= self._sample_size:
                break
            insort(self._sample, value)

    def snapshot(self) -> dict:
        """JSON-friendly view of this series."""
        cumulative, buckets = 0, {}
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            buckets[repr(bound)] = cumulative
        buckets["+Inf"] = self.count
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named counter/gauge/histogram series with label dimensions.

    ``clock`` (any object with a ``now() -> float`` method, e.g. the
    netsim :class:`~repro.netsim.clock.SimClock`) redirects ``trace``
    spans from the wall clock to virtual time; metrics values themselves
    are clock-agnostic.  Each name holds at most :data:`MAX_SERIES`
    label sets.
    """

    def __init__(self, *, clock=None) -> None:
        """Empty registry; ``clock`` times its spans."""
        self.clock = clock
        self._counters: dict[str, dict[LabelSet, float]] = {}
        self._gauges: dict[str, dict[LabelSet, float]] = {}
        self._histograms: dict[str, dict[LabelSet, Histogram]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _series(self, table: dict, name: str, labels: LabelSet):
        """The per-labelset slot for ``name``, applying the cardinality cap."""
        by_labels = table.setdefault(name, {})
        if labels not in by_labels and len(by_labels) >= MAX_SERIES:
            return by_labels, OVERFLOW_LABELS
        return by_labels, labels

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        """Add ``value`` to the ``name`` counter for this label set."""
        with self._lock:
            by_labels, key = self._series(self._counters, name, labelset(labels))
            by_labels[key] = by_labels.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the ``name`` gauge for this label set to ``value``."""
        with self._lock:
            by_labels, key = self._series(self._gauges, name, labelset(labels))
            by_labels[key] = float(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record ``value`` into the ``name`` histogram for this label set."""
        with self._lock:
            by_labels, key = self._series(
                self._histograms, name, labelset(labels)
            )
            histogram = by_labels.get(key)
            if histogram is None:
                histogram = by_labels[key] = Histogram()
            histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> float:
        """Current count for one label set (0.0 if never incremented)."""
        return self._counters.get(name, {}).get(labelset(labels), 0.0)

    def gauge_value(self, name: str, **labels: str) -> float | None:
        """Last value set for one gauge label set (None if never set)."""
        return self._gauges.get(name, {}).get(labelset(labels))

    def histogram(self, name: str, **labels: str) -> Histogram | None:
        """The :class:`Histogram` for one label set (None if unobserved)."""
        return self._histograms.get(name, {}).get(labelset(labels))

    def counter_series(self, name: str) -> dict[LabelSet, float]:
        """Every label set of the ``name`` counter, as a copied dict."""
        return dict(self._counters.get(name, {}))

    def names(self) -> list[str]:
        """Every metric name with at least one series, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def dump(self) -> dict:
        """Plain, picklable copy of the counters and histograms.

        What a worker process hands back so its coordinator can
        :meth:`merge` it (the registry itself holds a lock and does not
        pickle).  Gauges describe one process and are left out.
        """
        with self._lock:
            return {
                "counters": [
                    (name, labels, value)
                    for name, by_labels in self._counters.items()
                    for labels, value in by_labels.items()
                ],
                "histograms": [
                    (name, labels, histogram.state())
                    for name, by_labels in self._histograms.items()
                    for labels, histogram in by_labels.items()
                ],
            }

    def merge(self, dumped: dict) -> None:
        """Fold another registry's :meth:`dump` into this one: counters
        add, histograms combine (:meth:`Histogram.merge`)."""
        with self._lock:
            for name, labels, value in dumped["counters"]:
                by_labels, key = self._series(self._counters, name, labels)
                by_labels[key] = by_labels.get(key, 0.0) + value
            for name, labels, state in dumped["histograms"]:
                by_labels, key = self._series(self._histograms, name, labels)
                histogram = by_labels.get(key)
                if histogram is None:
                    histogram = by_labels[key] = Histogram()
                histogram.merge(state)

    def snapshot(self) -> dict:
        """One JSON-friendly dict covering every series in the registry."""

        def rows(table: dict, value_of) -> dict:
            return {
                name: [
                    {"labels": dict(labels), "value": value_of(entry)}
                    for labels, entry in sorted(by_labels.items())
                ]
                for name, by_labels in sorted(table.items())
            }

        with self._lock:
            return {
                "counters": rows(self._counters, lambda v: v),
                "gauges": rows(self._gauges, lambda v: v),
                "histograms": rows(
                    self._histograms, lambda h: h.snapshot()
                ),
            }


# ----------------------------------------------------------------------
# The installed registry and the no-op fast path
# ----------------------------------------------------------------------

_REGISTRY: MetricsRegistry | None = None


def install(registry: MetricsRegistry) -> MetricsRegistry:
    """Make ``registry`` the process-wide sink for the module helpers."""
    global _REGISTRY
    _REGISTRY = registry
    return registry


def uninstall() -> None:
    """Remove the installed registry; helpers revert to no-ops."""
    global _REGISTRY
    _REGISTRY = None


def active() -> MetricsRegistry | None:
    """The installed registry, or None when instrumentation is off."""
    return _REGISTRY


@contextmanager
def use(registry: MetricsRegistry | None) -> Iterator[MetricsRegistry | None]:
    """Install ``registry`` for the duration of a ``with`` block (None:
    instrumentation off for the block)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    try:
        yield registry
    finally:
        _REGISTRY = previous


def inc(name: str, value: float = 1.0, **labels: str) -> None:
    """Increment on the installed registry; no-op when none is."""
    registry = _REGISTRY
    if registry is not None:
        registry.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge on the installed registry; no-op when none is."""
    registry = _REGISTRY
    if registry is not None:
        registry.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Observe into the installed registry; no-op when none is."""
    registry = _REGISTRY
    if registry is not None:
        registry.observe(name, value, **labels)
