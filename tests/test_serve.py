"""The online serving tier: batcher, admission, registry, both fronts.

Covers the `repro.serve` contracts end to end: micro-batched results
identical to per-record parses, typed load-shedding, atomic hot-swap
with zero dropped requests, the HTTP and port-43 listeners over real
ephemeral sockets, and the graceful-shutdown drain semantics.
"""

from __future__ import annotations

import asyncio
import copy
import json
import threading
import time

import pytest

from repro import errors, obs
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.netsim.clock import SimClock
from repro.netsim.tcp import whois_query
from repro.parser import WhoisParser
from repro.serve import (
    AdmissionController,
    MicroBatcher,
    ModelRegistry,
    ServeApp,
    ServeConfig,
    run_load,
)
from repro.serve import admission as admission_module


@pytest.fixture(scope="module")
def world():
    generator = CorpusGenerator(CorpusConfig(seed=411))
    corpus = generator.labeled_corpus(70)
    parser = WhoisParser(l2=0.1).fit(corpus[:50])
    records = {record.domain: record.text for record in corpus[50:]}
    return parser, corpus, records


def make_app(world, **config) -> ServeApp:
    parser, _corpus, records = world
    models = ModelRegistry()
    models.publish(parser)
    return ServeApp(models, records.get, config=ServeConfig(**config))


async def http_request(
    port: int, method: str, path: str, body: bytes = b""
) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, payload


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------


def test_batcher_results_match_per_record_parse(world):
    parser, corpus, _ = world
    texts = [record.text for record in corpus[50:]]

    app = make_app(world, max_batch_size=8)

    async def scenario():
        await app.start()
        try:
            served = await asyncio.gather(
                *(app.parse_text(text) for text in texts)
            )
        finally:
            await app.stop()
        return served

    served = asyncio.run(scenario())
    direct = [parser.parse(text) for text in texts]
    assert served == direct
    # Concurrency actually coalesced: fewer batches than requests.
    assert app.parse_batcher.batches < len(texts)
    assert app.parse_batcher.items == len(texts)


def test_batcher_fans_out_per_item_exceptions():
    def batch_fn(items):
        return [
            ValueError(f"bad {item}") if item % 2 else item * 10
            for item in items
        ]

    async def scenario():
        batcher = MicroBatcher(batch_fn, max_batch_size=8).start()
        results = await asyncio.gather(
            *(batcher.submit(i) for i in range(6)), return_exceptions=True
        )
        await batcher.stop()
        return results

    results = asyncio.run(scenario())
    assert results[0::2] == [0, 20, 40]
    assert all(isinstance(r, ValueError) for r in results[1::2])


def test_batcher_batch_fn_crash_rejects_whole_batch():
    def batch_fn(items):
        raise RuntimeError("decoder exploded")

    async def scenario():
        batcher = MicroBatcher(batch_fn, max_batch_size=4).start()
        results = await asyncio.gather(
            *(batcher.submit(i) for i in range(3)), return_exceptions=True
        )
        await batcher.stop()
        return results

    results = asyncio.run(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_batcher_idle_single_request_executes_immediately():
    """A lone request must not pay the max_wait_ms accumulation delay."""
    def batch_fn(items):
        return list(items)

    async def scenario():
        batcher = MicroBatcher(
            batch_fn, max_batch_size=64, max_wait_ms=200.0
        ).start()
        loop = asyncio.get_running_loop()
        started = loop.time()
        await batcher.submit("x")
        elapsed = loop.time() - started
        await batcher.stop()
        return elapsed

    # Well under the 200ms wait knob: the idle path skips the timed wait.
    assert asyncio.run(scenario()) < 0.1


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


def test_admission_sheds_overload_with_typed_errors():
    admission = AdmissionController(queue_depth=2)
    admission.admit("a")
    admission.admit("b")
    with pytest.raises(errors.Overloaded):
        admission.admit("c")
    admission.release()
    admission.admit("c")  # slot freed
    assert admission.admitted == 3
    assert admission.rejected == 1


def test_admission_per_client_rate_limit_follows_netsim_semantics(
    monkeypatch,
):
    clock = SimClock()
    monkeypatch.setattr(admission_module, "RATE_PENALTY", 5.0)
    admission = AdmissionController(
        queue_depth=100, rate_limit=2, clock=clock
    )
    admission.admit("crawler")
    admission.release()
    admission.admit("crawler")
    admission.release()
    with pytest.raises(errors.RateLimited):
        admission.admit("crawler")
    # Other clients are unaffected; the tripped client sits out the penalty.
    admission.admit("other")
    admission.release()
    clock.advance(6.0)
    admission.admit("crawler")


def test_admission_closed_raises_unavailable():
    admission = AdmissionController(queue_depth=4)
    admission.close()
    with pytest.raises(errors.Unavailable):
        admission.admit()


# ----------------------------------------------------------------------
# Model registry: versioning, hot-swap, rollback, persistence
# ----------------------------------------------------------------------


def test_registry_publish_activate_rollback(world):
    parser, corpus, _ = world
    other = WhoisParser(l2=0.1).fit(corpus[:30])
    registry = ModelRegistry()
    v1 = registry.publish(parser)
    assert registry.current() == (v1, parser)
    v2 = registry.publish(other)
    assert registry.current() == (v2, other)
    assert registry.rollback() == v1
    assert registry.current_parser is parser
    with pytest.raises(KeyError):
        registry.activate("v9999")


def test_registry_persists_versions_and_active_pointer(world, tmp_path):
    parser, corpus, _ = world
    root = tmp_path / "models"
    registry = ModelRegistry(root)
    v1 = registry.publish(parser)
    v2 = registry.publish(WhoisParser(l2=0.1).fit(corpus[:30]))
    registry.activate(v1)
    assert (root / v2 / "parser.json").exists()

    resumed = ModelRegistry(root)  # a restarted server
    assert resumed.versions() == [v1, v2]
    assert resumed.current_version == v1
    record = corpus[0]
    assert (
        resumed.current_parser.predict_blocks(record)
        == parser.predict_blocks(record)
    )


def test_registry_adopts_bare_train_output(world, tmp_path):
    parser, corpus, _ = world
    parser.save(tmp_path / "model")
    registry = ModelRegistry(tmp_path / "model")
    assert registry.current_version == "v0001"
    assert registry.current_parser.parse(corpus[0].text).domain \
        == corpus[0].domain


def test_hot_swap_under_sustained_load_drops_nothing(world):
    parser, corpus, _ = world
    replacement = WhoisParser(l2=0.1).fit(corpus[:30])
    texts = [record.text for record in corpus[50:]]
    app = make_app(world, max_batch_size=8)

    async def scenario():
        await app.start()

        async def one(i: int):
            return await app.parse_text(texts[i % len(texts)])

        async def swap():
            await asyncio.sleep(0.01)
            return app.swap_model(replacement)

        load, version = await asyncio.gather(
            run_load(one, n_requests=80, concurrency=12), swap()
        )
        await app.stop()
        return load, version

    load, version = asyncio.run(scenario())
    assert version == "v0002"
    assert load.failures == 0 and load.rejected == 0
    assert load.count == 80
    assert app.models.current_parser is replacement


class _RenamingParser:
    """Parses as ``parser`` does, but names another registrar."""

    def __init__(self, parser) -> None:
        self._parser = parser

    def parse_many(self, records):
        parsed = [copy.copy(p) for p in self._parser.parse_many(records)]
        for record in parsed:
            record.registrar = "Rollback Test Registrar"
        return parsed


def test_rollback_model_drops_the_rdap_cache(world):
    parser, corpus, _records = world
    domain = corpus[50].domain
    app = make_app(world)

    async def scenario():
        await app.start()
        old_version = app.models.current_version
        before = await app.rdap_domain(domain)
        app.swap_model(_RenamingParser(parser))
        swapped = await app.rdap_domain(domain)
        assert domain in app.gateway._cache  # warm, from the new model
        version = app.rollback_model()
        cached = dict(app.gateway._cache)
        after = await app.rdap_domain(domain)
        await app.stop()
        return old_version, before, swapped, version, cached, after

    old_version, before, swapped, version, cached, after = asyncio.run(
        scenario()
    )
    assert version == old_version == app.models.current_version
    assert cached == {}
    assert swapped != before
    assert after == before


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------


def test_http_endpoints_roundtrip(world):
    parser, corpus, records = world
    app = make_app(world, max_batch_size=8)
    domain = corpus[50].domain

    async def scenario():
        await app.start(http_port=0)
        port = app.http_port
        out = {}
        out["health"] = await http_request(port, "GET", "/healthz")
        out["ready"] = await http_request(port, "GET", "/readyz")
        out["parse"] = await http_request(
            port, "POST", "/parse", corpus[50].text.encode()
        )
        out["rdap"] = await http_request(
            port, "GET", f"/rdap/domain/{domain}"
        )
        out["rdap404"] = await http_request(
            port, "GET", "/rdap/domain/never.example"
        )
        out["missing"] = await http_request(port, "GET", "/nope")
        out["parse_get"] = await http_request(port, "GET", "/parse")
        await app.stop()
        return out

    out = asyncio.run(scenario())
    assert out["health"][0] == 200 and out["ready"][0] == 200
    status, payload = out["parse"]
    assert status == 200
    assert json.loads(payload)["domain"] == domain
    status, payload = out["rdap"]
    assert status == 200
    body = json.loads(payload)
    assert body["objectClassName"] == "domain"
    assert body["ldhName"] == domain
    status, payload = out["rdap404"]
    assert status == 404
    assert json.loads(payload)["errorCode"] == 404
    assert out["missing"][0] == 404
    assert out["parse_get"][0] == 405


def test_http_metrics_expose_encoder_cache_and_batches(world):
    parser, corpus, records = world
    # The copy pickles without the encoder caches other tests warmed, so
    # this app's first batches miss.
    app = make_app(
        (copy.deepcopy(parser), corpus, records), max_batch_size=8
    )

    async def scenario():
        await app.start(http_port=0)
        texts = [record.text for record in corpus[50:]]
        await asyncio.gather(*(app.parse_text(t) for t in texts + texts))
        status, payload = await http_request(
            app.http_port, "GET", "/metrics"
        )
        await app.stop()
        return status, payload.decode()

    status, text = asyncio.run(scenario())
    assert status == 200
    metrics = {
        line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    # LineEncoder cache efficacy is visible online, per level.
    for level in ("block", "registrant"):
        assert metrics[f'parse_line_cache_hits_total{{level="{level}"}}'] > 0
        assert metrics[f'parse_line_cache_misses_total{{level="{level}"}}'] > 0
    assert not any(name.startswith("serve_encoder_cache") for name in metrics)
    assert "serve_batch_size_count" in text
    assert metrics["serve_admitted_total"] == 40.0


def test_readyz_reflects_missing_model(world):
    _parser, _corpus, records = world
    app = ServeApp(ModelRegistry(), records.get)  # nothing published

    async def scenario():
        await app.start(http_port=0)
        status, _ = await http_request(app.http_port, "GET", "/readyz")
        health, _ = await http_request(app.http_port, "GET", "/healthz")
        await app.stop()
        return status, health

    status, health = asyncio.run(scenario())
    assert status == 503 and health == 200


# ----------------------------------------------------------------------
# Port-43 front-end
# ----------------------------------------------------------------------


def test_port43_serves_parsed_legacy_records(world):
    parser, corpus, records = world
    domain = corpus[50].domain
    app = make_app(world, max_batch_size=8)

    async def scenario():
        await app.start(whois_port=0)
        hit = await whois_query("127.0.0.1", app.whois_port, domain)
        miss = await whois_query(
            "127.0.0.1", app.whois_port, "never.example"
        )
        await app.stop()
        return hit, miss

    hit, miss = asyncio.run(scenario())
    assert f"Domain Name: {domain}" in hit
    parsed = parser.parse(records[domain])
    if parsed.registrar:
        assert f"Registrar: {parsed.registrar}" in hit
    assert miss == "No match for domain."


# ----------------------------------------------------------------------
# Graceful shutdown (the satellite): drain in-flight, reject queued,
# close both listeners.
# ----------------------------------------------------------------------


def test_graceful_shutdown_drains_inflight_and_rejects_queued():
    executing = threading.Event()
    release = threading.Event()

    def slow_batch(items):
        executing.set()
        release.wait(timeout=5.0)
        return [item * 10 for item in items]

    async def scenario():
        batcher = MicroBatcher(slow_batch, max_batch_size=1).start()
        loop = asyncio.get_running_loop()
        first = loop.create_task(batcher.submit(1))
        await asyncio.to_thread(executing.wait, 5.0)
        # The first request is now mid-execution; these two queue up.
        queued = [loop.create_task(batcher.submit(i)) for i in (2, 3)]
        await asyncio.sleep(0)  # let the submits enqueue
        stopper = loop.create_task(batcher.stop())
        await asyncio.sleep(0)
        release.set()
        await stopper
        results = await asyncio.gather(
            first, *queued, return_exceptions=True
        )
        # New submissions after stop are rejected too.
        with pytest.raises(errors.Unavailable):
            await batcher.submit(4)
        return results

    first, q1, q2 = asyncio.run(scenario())
    assert first == 10  # in-flight work drained, result delivered
    assert isinstance(q1, errors.Unavailable)
    assert isinstance(q2, errors.Unavailable)


def test_graceful_shutdown_closes_listeners(world):
    app = make_app(world)

    async def scenario():
        await app.start(http_port=0, whois_port=0)
        http_port, whois_port = app.http_port, app.whois_port
        status, _ = await http_request(http_port, "GET", "/healthz")
        assert status == 200
        await app.stop()
        refused = []
        for port in (http_port, whois_port):
            try:
                await asyncio.open_connection("127.0.0.1", port)
                refused.append(False)
            except ConnectionError:
                refused.append(True)
        return refused

    assert asyncio.run(scenario()) == [True, True]


def test_stopped_app_rejects_with_unavailable(world):
    app = make_app(world)

    async def scenario():
        await app.start()
        await app.stop()
        with pytest.raises(errors.Unavailable):
            await app.parse_text("Domain Name: X.COM")

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# RDAP batch path
# ----------------------------------------------------------------------


def test_rdap_mixed_batch_isolates_missing_domains(world):
    parser, corpus, records = world
    good = [corpus[50].domain, corpus[52].domain]
    app = make_app(world, max_batch_size=8)

    async def scenario():
        await app.start()
        results = await asyncio.gather(
            app.rdap_domain(good[0]),
            app.rdap_domain("never.example"),
            app.rdap_domain(good[1]),
            return_exceptions=True,
        )
        await app.stop()
        return results

    ok1, missing, ok2 = asyncio.run(scenario())
    assert ok1["ldhName"] == good[0]
    assert ok2["ldhName"] == good[1]
    assert isinstance(missing, errors.DomainNotFound)


def test_metrics_registry_restored_after_stop(world):
    previous = obs.MetricsRegistry()
    obs.install(previous)
    try:
        app = make_app(world)

        async def scenario():
            await app.start()
            assert obs.active() is app.metrics
            await app.stop()

        asyncio.run(scenario())
        assert obs.active() is previous
    finally:
        obs.uninstall()


@pytest.mark.parametrize("listeners", [False, True])
def test_stopped_app_is_freed_without_a_collection(world, listeners):
    """A started, used and stopped app is freed by reference counting
    alone: nothing the app owns refers back to it, so its parser and
    line caches go when the last outside reference does."""
    import gc
    import weakref

    parser, corpus, records = world
    domain = corpus[50].domain
    app = make_app(world, max_batch_size=8)

    async def scenario():
        if listeners:
            await app.start(http_port=0, whois_port=0)
            status, _ = await http_request(
                app.http_port, "GET", f"/rdap/domain/{domain}"
            )
            assert status == 200
            assert f"Domain Name: {domain}" in await whois_query(
                "127.0.0.1", app.whois_port, domain
            )
        else:
            await app.start()
            await app.parse_text(records[domain])
            await app.rdap_domain(domain)
        await app.stop()

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        asyncio.run(scenario())
        ref = weakref.ref(app)
        del app
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
