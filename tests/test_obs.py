"""Tests for the repro.obs metrics/tracing subsystem.

Covers the registry primitives (histogram quantiles, label cardinality,
the no-op fast path), span tracing against both wall and simulated
clocks, the JSON/Prometheus exporters, and the end-to-end integration:
crawler, bulk parser, and trainer all emitting into one registry.
"""

import json

import pytest

from repro import obs
from repro.netsim.clock import SimClock
from repro.obs import metrics
from repro.obs.metrics import BOUNDS, OVERFLOW_LABELS, Histogram


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with no registry installed."""
    previous = obs.active()
    obs.uninstall()
    yield
    obs.uninstall()
    if previous is not None:
        obs.install(previous)


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------


def test_counter_and_gauge_roundtrip():
    registry = obs.MetricsRegistry()
    registry.inc("queries", server="a.example")
    registry.inc("queries", 2.0, server="a.example")
    registry.inc("queries", server="b.example")
    registry.set_gauge("interval", 11.0, server="a.example")
    registry.set_gauge("interval", 13.0, server="a.example")
    assert registry.counter_value("queries", server="a.example") == 3.0
    assert registry.counter_value("queries", server="b.example") == 1.0
    assert registry.counter_value("queries", server="missing") == 0.0
    assert registry.gauge_value("interval", server="a.example") == 13.0
    assert registry.gauge_value("interval", server="zzz") is None
    assert registry.names() == ["interval", "queries"]


def test_histogram_exact_quantiles_within_sample():
    histogram = Histogram()
    for value in range(1, 101):  # 1..100
        histogram.observe(float(value))
    assert histogram.count == 100
    assert histogram.min == 1.0 and histogram.max == 100.0
    assert histogram.mean == pytest.approx(50.5)
    # Nearest-rank on the intact sample: exact order statistics.
    assert histogram.quantile(0.0) == 1.0
    assert histogram.quantile(0.50) == 51.0
    assert histogram.quantile(0.90) == 91.0
    assert histogram.quantile(1.0) == 100.0


def test_histogram_bucket_quantiles_past_sample(monkeypatch):
    monkeypatch.setattr(metrics, "SAMPLE_SIZE", 10)
    histogram = Histogram()
    for value in range(1000):
        histogram.observe(0.001 + (value % 100) * 0.0001)  # 1ms..11ms
    assert histogram.count == 1000
    # Sample overflowed: quantiles interpolate inside the fixed buckets,
    # so they are approximate but must bracket the true distribution.
    p50 = histogram.quantile(0.50)
    assert 0.001 <= p50 <= 0.025
    assert histogram.quantile(0.99) <= 0.025


def test_histogram_snapshot_buckets_are_cumulative():
    histogram = Histogram()
    histogram.observe(0.0005)   # below the first bound
    histogram.observe(0.003)
    histogram.observe(9999.0)   # above every bound -> +Inf only
    snapshot = histogram.snapshot()
    buckets = snapshot["buckets"]
    assert buckets[repr(BOUNDS[0])] == 1
    assert buckets[repr(BOUNDS[-1])] == 2
    assert buckets["+Inf"] == 3
    assert snapshot["count"] == 3
    assert snapshot["sum"] == pytest.approx(0.0005 + 0.003 + 9999.0)


def test_empty_histogram_quantile_and_bad_q():
    histogram = Histogram()
    assert histogram.quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_label_cardinality_cap_collapses_to_overflow(monkeypatch):
    monkeypatch.setattr(metrics, "MAX_SERIES", 4)
    registry = obs.MetricsRegistry()
    for i in range(10):
        registry.inc("crawler.queries", server=f"server-{i}.example")
    series = registry.counter_series("crawler.queries")
    assert len(series) == 5  # 4 real + 1 overflow
    assert series[OVERFLOW_LABELS] == 6.0
    # Existing series keep accumulating even while the cap is active.
    registry.inc("crawler.queries", server="server-0.example")
    assert registry.counter_value(
        "crawler.queries", server="server-0.example"
    ) == 2.0


def test_noop_helpers_without_registry():
    assert obs.active() is None
    obs.inc("nothing")
    obs.set_gauge("nothing", 1.0)
    obs.observe("nothing", 0.5)
    with obs.trace("nothing") as span:
        pass
    assert span is obs.NOOP_SPAN
    assert span.seconds is None


def test_use_context_manager_installs_and_restores():
    outer = obs.install(obs.MetricsRegistry())
    inner = obs.MetricsRegistry()
    with obs.use(inner):
        obs.inc("hits")
        assert obs.active() is inner
    assert obs.active() is outer
    assert inner.counter_value("hits") == 1.0
    assert outer.counter_value("hits") == 0.0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def test_trace_records_wall_clock_span():
    registry = obs.install(obs.MetricsRegistry())
    with obs.trace("stage.seconds", stage="encode") as span:
        sum(range(1000))
    assert span.seconds is not None and span.seconds >= 0.0
    histogram = registry.histogram("stage.seconds", stage="encode")
    assert histogram is not None and histogram.count == 1


def test_trace_uses_simulated_clock_when_installed():
    clock = SimClock()
    registry = obs.install(obs.MetricsRegistry(clock=clock))
    with obs.trace("crawl.window_seconds") as span:
        clock.advance(86_400.0)  # a simulated day passes instantly
    assert span.seconds == 86_400.0
    histogram = registry.histogram("crawl.window_seconds")
    assert histogram.total == 86_400.0
    # Detaching the clock reverts spans to the wall clock.
    registry.clock = None
    with obs.trace("crawl.window_seconds") as span:
        pass
    assert span.seconds < 1.0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


@pytest.fixture
def populated_registry():
    registry = obs.MetricsRegistry()
    registry.inc("rdap.lookups", 5)
    registry.inc("crawler.queries", 3, server="a.example")
    registry.set_gauge("parse.line_cache.hit_rate", 0.75, level="block")
    registry.observe("parse.decode_seconds", 0.004, level="block")
    registry.observe("parse.decode_seconds", 0.008, level="block")
    return registry


def test_json_export_roundtrips(populated_registry, tmp_path):
    path = obs.write_metrics(tmp_path / "metrics.json", populated_registry)
    data = json.loads(path.read_text())
    assert data["counters"]["rdap.lookups"][0]["value"] == 5.0
    queries = data["counters"]["crawler.queries"][0]
    assert queries["labels"] == {"server": "a.example"}
    hist = data["histograms"]["parse.decode_seconds"][0]["value"]
    assert hist["count"] == 2
    assert hist["sum"] == pytest.approx(0.012)
    assert data["gauges"]["parse.line_cache.hit_rate"][0]["value"] == 0.75


def test_prometheus_export_format(populated_registry, tmp_path):
    path = obs.write_metrics(tmp_path / "metrics.prom", populated_registry)
    text = path.read_text()
    assert "# TYPE rdap_lookups counter" in text
    assert "rdap_lookups_total 5" in text
    assert 'crawler_queries_total{server="a.example"} 3' in text
    assert 'parse_line_cache_hit_rate{level="block"} 0.75' in text
    assert 'parse_decode_seconds_bucket{le="+Inf",level="block"} 2' in text
    assert 'parse_decode_seconds_count{level="block"} 2' in text
    assert text.endswith("\n")


def test_prometheus_escapes_label_values():
    registry = obs.MetricsRegistry()
    registry.inc("odd", server='quo"te\\slash')
    text = obs.to_prometheus(registry)
    assert 'server="quo\\"te\\\\slash"' in text


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------


def test_crawler_emits_pacing_metrics():
    from repro.datagen import CorpusConfig, CorpusGenerator
    from repro.netsim.crawler import WhoisCrawler
    from repro.netsim.internet import build_com_internet

    gen = CorpusGenerator(CorpusConfig(seed=910))
    zone, registrations = gen.zone(60)
    internet, clock, _ = build_com_internet(gen, zone, registrations)
    registry = obs.install(obs.MetricsRegistry(clock=clock))
    results = WhoisCrawler(internet).crawl(zone)
    assert len(results) == len(zone)
    queries = registry.counter_series("crawler.queries")
    assert sum(queries.values()) >= len(zone)
    # Latencies are simulated seconds, measured on the sim clock.
    latency = registry.histogram(
        "crawler.query_seconds", server="whois.verisign-grs.com"
    )
    assert latency is not None and latency.count >= len(zone)
    assert latency.min > 0.0
    statuses = registry.counter_series("crawler.results")
    assert sum(statuses.values()) == len(zone)
    elapsed = registry.gauge_value("crawler.crawl_sim_seconds")
    assert elapsed is not None and 0.0 < elapsed <= clock.now()


def test_bulk_parse_emits_cache_and_timing_metrics():
    from repro.datagen import CorpusConfig, CorpusGenerator
    from repro.parser import WhoisParser

    gen = CorpusGenerator(CorpusConfig(seed=911))
    corpus = gen.labeled_corpus(80)
    parser = WhoisParser(l2=0.1).fit(corpus[:60])
    registry = obs.install(obs.MetricsRegistry())
    records = [r.to_record() for r in corpus[60:]]
    parser.parse_many(records)
    hits = registry.counter_value("parse.line_cache.hits", level="block")
    misses = registry.counter_value("parse.line_cache.misses", level="block")
    assert hits + misses > 0
    rate = registry.gauge_value("parse.line_cache.hit_rate", level="block")
    assert rate == pytest.approx(hits / (hits + misses))
    for stage in ("parse.encode_seconds", "parse.decode_seconds"):
        histogram = registry.histogram(stage, level="block")
        assert histogram is not None and histogram.count >= 1
    batch = registry.histogram("parse.batch_records")
    assert batch is not None and batch.max == len(records)


def test_training_emits_loss_trajectory():
    from repro.datagen import CorpusConfig, CorpusGenerator
    from repro.parser import WhoisParser

    gen = CorpusGenerator(CorpusConfig(seed=912))
    registry = obs.install(obs.MetricsRegistry())
    WhoisParser(l2=0.1).fit(gen.labeled_corpus(30))
    iterations = registry.counter_value("train.iterations", trainer="lbfgs")
    assert iterations > 0
    assert registry.gauge_value("train.loss", trainer="lbfgs") is not None
    assert registry.gauge_value("train.grad_norm", trainer="lbfgs") is not None
    timing = registry.histogram("train.iteration_seconds", trainer="lbfgs")
    assert timing is not None and timing.count == iterations
    fit = registry.histogram("train.fit_seconds", level="block")
    assert fit is not None and fit.count == 1


def test_registry_dump_merges_like_one_registry():
    import pickle

    values = [0.0004, 0.003, 0.02, 0.02, 0.7, 4.0, 12.0]
    whole = obs.MetricsRegistry()
    parts = [obs.MetricsRegistry(), obs.MetricsRegistry()]
    for i, value in enumerate(values):
        for registry in (whole, parts[i % 2]):
            registry.observe("parse.encode_seconds", value, level="block")
            registry.inc("survey.rows", blacklisted="false")
    parts[0].set_gauge("parse.arena_bytes", 1024)
    merged = obs.MetricsRegistry()
    for part in parts:
        merged.merge(pickle.loads(pickle.dumps(part.dump())))
    assert merged.snapshot()["counters"] == whole.snapshot()["counters"]
    assert merged.snapshot()["histograms"] == whole.snapshot()["histograms"]
    assert merged.gauge_value("parse.arena_bytes") is None  # per process
