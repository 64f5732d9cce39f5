"""Focused tests of the crawler's rate-limit inference and pacing."""

import pytest

from repro.datagen.registrars import RateLimitSpec
from repro.netsim.clock import SimClock
from repro.netsim.crawler import MAX_ATTEMPTS, WhoisCrawler
from repro.netsim.internet import SimulatedInternet
from repro.netsim.servers import RegistrarServer


def _world(limit, window, penalty, n_domains=30, failure_mode="empty"):
    clock = SimClock()
    internet = SimulatedInternet(clock)
    domains = [f"d{i}.com" for i in range(n_domains)]
    thin = {
        d: f"   Domain Name: {d.upper()}\n"
           f"   Registrar: TEST\n"
           f"   Whois Server: whois.test.com\n"
        for d in domains
    }
    # A permissive "registry" serving raw thin texts (RegistrarServer is a
    # plain lookup server, which is all the crawler needs here).
    registry = RegistrarServer(
        "whois.verisign-grs.com", clock, thin,
        rate_limit=RateLimitSpec(limit=10_000, window=1.0, penalty=1.0),
    )
    thick = {d: f"Domain Name: {d}\nRegistrant Name: X" for d in domains}
    registrar = RegistrarServer(
        "whois.test.com", clock, thick,
        rate_limit=RateLimitSpec(limit=limit, window=window, penalty=penalty,
                                 failure_mode=failure_mode),
    )
    internet.add_server(registry)
    internet.add_server(registrar)
    return internet, clock, domains, registrar


def test_crawler_adapts_to_moderate_limit():
    """A 5-per-10s limit forces inference, but the crawl still completes."""
    internet, clock, domains, registrar = _world(limit=5, window=10.0,
                                                 penalty=30.0)
    crawler = WhoisCrawler(internet, max_wait=120.0, penalty_guess=35.0)
    results = [crawler.crawl_domain(d) for d in domains]
    ok = sum(r.status == "ok" for r in results)
    assert ok == len(domains)
    # The limiter tripped at least once, and the crawler slowed down.
    assert crawler.stats.rate_limit_events >= 1
    assert crawler.stats.inferred_intervals.get("whois.test.com", 0) >= 1.0


def test_crawler_gives_up_on_hopeless_limit():
    """A 1-per-hour limit exceeds the crawler's patience -> thin_only."""
    internet, clock, domains, registrar = _world(limit=1, window=3600.0,
                                                 penalty=7200.0)
    crawler = WhoisCrawler(internet, max_wait=30.0)
    results = [crawler.crawl_domain(d) for d in domains]
    thin_only = sum(r.status == "thin_only" for r in results)
    assert thin_only > len(domains) * 0.7


def test_crawler_rotates_vantage_points():
    """With a per-source limit, three source IPs triple the throughput."""
    internet, clock, domains, registrar = _world(limit=3, window=60.0,
                                                 penalty=60.0)
    crawler = WhoisCrawler(
        internet,
        source_ips=("10.0.0.1", "10.0.0.2", "10.0.0.3"),
        max_wait=200.0,
        penalty_guess=61.0,
    )
    results = [crawler.crawl_domain(d) for d in domains[:12]]
    ok = sum(r.status == "ok" for r in results)
    assert ok >= 9  # 3 IPs x 3 queries/window, plus paced retries


def test_crawler_tries_each_vantage_once_up_to_three_queries():
    """Section 4.1's retry: each source IP once, at most three queries
    per lookup; a vantage backed off beyond ``max_wait`` is skipped
    without using up an attempt."""
    internet = SimulatedInternet(SimClock())  # no servers: queries drop
    ips = tuple(f"10.0.0.{i}" for i in range(1, 6))
    crawler = WhoisCrawler(internet, source_ips=ips)
    first = crawler.crawl_domain("a.com")
    assert first.error.attempts == MAX_ATTEMPTS == 3
    assert crawler.stats.queries_sent == 3
    # The first three vantages now wait penalty_guess (60 s), beyond
    # max_wait (30 s): only the last two are tried.
    second = crawler.crawl_domain("b.com")
    assert second.error.attempts == 2
    assert crawler.stats.queries_sent == 5


def test_inferred_interval_grows_with_repeated_trips():
    internet, clock, domains, _ = _world(limit=2, window=50.0, penalty=10.0)
    crawler = WhoisCrawler(internet, max_wait=500.0, penalty_guess=11.0)
    for d in domains[:15]:
        crawler.crawl_domain(d)
    interval = crawler.stats.inferred_intervals.get("whois.test.com")
    assert interval is not None
    assert 1.0 <= interval <= 3600.0


def test_crawl_time_is_simulated_not_real():
    import time

    internet, clock, domains, _ = _world(limit=2, window=100.0, penalty=50.0)
    crawler = WhoisCrawler(internet, max_wait=1000.0)
    start = time.monotonic()
    for d in domains:
        crawler.crawl_domain(d)
    wall = time.monotonic() - start
    assert clock.now() > 100.0  # hours of simulated waiting...
    assert wall < 5.0  # ...in well under real-time
