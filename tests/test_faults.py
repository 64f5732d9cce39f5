"""Fault injection: unit tests for the plan, chaos suite for the crawler.

The ``chaos`` marker tags the fault-profile integration tests (the
Section 4.1-shaped acceptance runs); CI runs them as a dedicated job and
uploads their resilience metrics.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.errors import CrawlError
from repro.netsim.clock import SimClock
from repro.netsim.crawler import WhoisCrawler
from repro.netsim.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultProfile,
    FlapSchedule,
    PROFILES,
    resolve_profile,
)
from repro.netsim.internet import SimulatedInternet, build_com_internet
from repro.parser import WhoisParser
from repro.resilience import BreakerPolicy, RecordGate
from repro.resilience.quarantine import _suspicious_fraction
from repro.survey.ingest import jobs_from_results, sharded_ingest


# ----------------------------------------------------------------------
# FlapSchedule / FaultProfile
# ----------------------------------------------------------------------


def test_flap_schedule_windows():
    flap = FlapSchedule(period=600.0, downtime=120.0, phase=0.0)
    assert flap.is_down(0.0)
    assert flap.is_down(119.9)
    assert not flap.is_down(120.0)
    assert not flap.is_down(599.9)
    assert flap.is_down(600.0)  # periodic
    shifted = FlapSchedule(period=600.0, downtime=120.0, phase=50.0)
    assert not shifted.is_down(0.0)
    assert shifted.is_down(50.0)


def test_flap_schedule_validates():
    with pytest.raises(ValueError):
        FlapSchedule(period=0.0)
    with pytest.raises(ValueError):
        FlapSchedule(period=10.0, downtime=11.0)


def test_profile_validates_rates():
    with pytest.raises(ValueError, match="probability"):
        FaultProfile(timeout_rate=1.5)
    with pytest.raises(ValueError, match="probability"):
        FaultProfile(garble_rate=-0.1)


def test_profile_noop_detection():
    assert FaultProfile().is_noop
    assert PROFILES["none"].is_noop
    assert not PROFILES["default_hostile"].is_noop


def test_profile_from_json_text_and_path(tmp_path):
    spec = {
        "name": "custom",
        "timeout_rate": 0.1,
        "flap_fraction": 0.25,
        "flap": {"period": 100.0, "downtime": 10.0},
        "exempt_hosts": ["whois.verisign-grs.com"],
    }
    profile = FaultProfile.from_json(json.dumps(spec))
    assert profile.timeout_rate == 0.1
    assert profile.flap.period == 100.0
    assert profile.exempt_hosts == ("whois.verisign-grs.com",)

    path = tmp_path / "profile.json"
    path.write_text(json.dumps(spec))
    assert FaultProfile.from_json(path) == profile


def test_profile_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fault profile keys"):
        FaultProfile.from_dict({"timeout_rat": 0.1})


def test_resolve_profile():
    assert resolve_profile(None) is None
    assert resolve_profile("default_hostile") is PROFILES["default_hostile"]
    custom = FaultProfile(timeout_rate=0.5)
    assert resolve_profile(custom) is custom
    assert resolve_profile('{"timeout_rate": 0.2}').timeout_rate == 0.2


# ----------------------------------------------------------------------
# FaultPlan determinism
# ----------------------------------------------------------------------


def _draw_sequence(plan, host, n=200, now=0.0):
    return [plan.next_fault(host, now) for _ in range(n)]


def test_plan_is_deterministic_per_seed():
    profile = PROFILES["degraded_zoo"]
    first = _draw_sequence(FaultPlan(profile, seed=7), "whois.r.com")
    again = _draw_sequence(FaultPlan(profile, seed=7), "whois.r.com")
    other = _draw_sequence(FaultPlan(profile, seed=8), "whois.r.com")
    assert first == again
    assert first != other
    assert any(fault is not None for fault in first)


def test_plan_reset_replays_from_the_start():
    plan = FaultPlan(PROFILES["degraded_zoo"], seed=3)
    first = _draw_sequence(plan, "whois.r.com")
    plan.reset()
    assert _draw_sequence(plan, "whois.r.com") == first


def test_plan_exempts_hosts_and_tallies_injections():
    plan = FaultPlan(PROFILES["default_hostile"], seed=0)
    registry = "whois.verisign-grs.com"
    assert all(
        fault is None for fault in _draw_sequence(plan, registry, n=500)
    )
    faults = _draw_sequence(plan, "whois.r.com", n=500)
    injected = {k: v for k, v in plan.injected.items() if v}
    assert sum(injected.values()) == sum(f is not None for f in faults)
    assert set(injected) <= set(FAULT_KINDS)
    assert injected.get("garble", 0) > 0  # the 5% mix shows up in 500 draws


def test_plan_flap_windows_force_timeouts():
    profile = replace(
        PROFILES["flapping"], flap_fraction=1.0,
        flap=FlapSchedule(period=100.0, downtime=50.0, phase=0.0),
    )
    plan = FaultPlan(profile, seed=1)
    schedule = plan.flap_schedule("whois.r.com")
    assert schedule is not None
    down_at = schedule.phase + 1.0
    up_at = schedule.phase + schedule.downtime + 1.0
    assert plan.next_fault("whois.r.com", down_at) == "timeout"
    # Out of the window, draws fall back to the (low) base rates.
    faults = [plan.next_fault("whois.r.com", up_at) for _ in range(50)]
    assert faults.count("timeout") < 50


def test_plan_flap_fraction_selects_hosts_deterministically():
    plan = FaultPlan(PROFILES["flapping"], seed=5)
    hosts = [f"whois.r{i}.com" for i in range(40)]
    chosen = {h for h in hosts if plan.flap_schedule(h) is not None}
    assert 0 < len(chosen) < len(hosts)  # a fraction, not all-or-nothing
    again = FaultPlan(PROFILES["flapping"], seed=5)
    assert chosen == {h for h in hosts if again.flap_schedule(h) is not None}


# ----------------------------------------------------------------------
# Response corruption
# ----------------------------------------------------------------------

RECORD = (
    "Domain Name: example.com\n"
    "Registrar: Example Registrar, Inc.\n"
    "Creation Date: 2012-03-04\n"
    "Registrant Name: J. Smith\n"
    "Registrant Country: US\n"
)


def test_corrupt_empty_truncate_garble():
    plan = FaultPlan(PROFILES["degraded_zoo"], seed=0)
    assert plan.corrupt("h", "empty", RECORD) == ""

    truncated = plan.corrupt("h", "truncate", RECORD)
    assert truncated == RECORD[:len(truncated)].rstrip("\n")
    assert len(RECORD) // 4 >= 1
    assert len(truncated) < len(RECORD)

    garbled = plan.corrupt("h", "garble", RECORD)
    assert garbled != RECORD
    assert _suspicious_fraction(garbled) > 0.005  # the gate's threshold

    with pytest.raises(ValueError):
        plan.corrupt("h", "timeout", RECORD)


def test_corrupt_is_deterministic():
    first = FaultPlan(PROFILES["degraded_zoo"], seed=9)
    second = FaultPlan(PROFILES["degraded_zoo"], seed=9)
    for _ in range(5):
        first.next_fault("h", 0.0)
        second.next_fault("h", 0.0)
    assert first.corrupt("h", "garble", RECORD) == second.corrupt(
        "h", "garble", RECORD
    )


# ----------------------------------------------------------------------
# Chaos integration suite
# ----------------------------------------------------------------------


def _hostile_crawl(*, n_domains, seed, faults, fault_seed=0, breaker=None):
    """Build a fresh synthetic com world and crawl its active domains.

    The legacy unreliable tail is turned off so coverage measures the
    injected faults, not the tail's 85% drop rate stacked on top.
    """
    generator = CorpusGenerator(CorpusConfig(seed=seed))
    zone, registrations = generator.zone(n_domains)
    internet, clock, _truth = build_com_internet(
        generator, zone, registrations,
        unreliable_tail_rate=0.0, faults=faults, fault_seed=fault_seed,
    )
    crawler = WhoisCrawler(internet, breaker=breaker)
    results = crawler.crawl(zone.active_domains())
    return results, crawler, clock


@pytest.mark.chaos
def test_default_hostile_meets_the_acceptance_bar():
    """Timeouts + resets + 5% garbled: coverage stays >90%, no unhandled
    exceptions, and every failure carries a typed CrawlError."""
    results, crawler, _clock = _hostile_crawl(
        n_domains=600, seed=4100, faults="default_hostile",
    )
    stats = crawler.stats
    assert stats.total == len(results)
    assert stats.no_match == 0  # only active domains were crawled

    # Typed failure accounting: nothing failed anonymously.
    for result in results:
        if result.status in ("failed", "thin_only"):
            assert isinstance(result.error, CrawlError)
            assert result.error.code in stats.error_counts
        else:
            assert result.status == "ok"

    # Quarantine the garbled records the fault plan injected: they flow
    # into the survey database as first-class rows, queryable by
    # taxonomy code.
    parser = _tiny_parser()
    db = sharded_ingest(
        jobs_from_results(results), parser,
        shards=1, gate=RecordGate(), stats=stats,
    )
    quarantined = list(db.iter_quarantine())
    assert stats.quarantined == db.n_quarantined == len(quarantined) > 0
    assert {r.reason for r in quarantined} <= {
        "garbled_record", "truncated",
    }
    assert set(db.quarantine_counts()) == {r.reason for r in quarantined}
    assert set(db.quarantined_domains()).isdisjoint(
        e.domain for e in db
    )

    # The Section 4.1 shape, with the injected faults on top: a bit over
    # 90% thick coverage, a single-digit failure rate.
    assert stats.thick_coverage > 0.90
    assert 0.0 < stats.failure_rate < 0.10


def _tiny_parser():
    generator = CorpusGenerator(CorpusConfig(seed=77))
    return WhoisParser(l2=0.1).fit(generator.labeled_corpus(60))


@pytest.mark.chaos
def test_breaker_sheds_load_under_flapping_servers():
    """With half the registrars periodically dark, the breaker provably
    sheds load: open-state skips > 0 and strictly fewer queries than
    retries alone."""
    _, without, _ = _hostile_crawl(
        n_domains=600, seed=4200, faults="flapping",
    )
    _, with_breaker, _ = _hostile_crawl(
        n_domains=600, seed=4200, faults="flapping",
        breaker=BreakerPolicy(failure_threshold=3, recovery_time=120.0),
    )
    assert without.stats.breaker_skips == 0
    assert with_breaker.stats.breaker_skips > 0
    assert with_breaker.stats.queries_sent < without.stats.queries_sent
    assert with_breaker.stats.error_counts["circuit_open"] > 0


@pytest.mark.chaos
def test_fault_injection_disabled_is_a_noop():
    """faults=None and the "none" profile produce byte-identical crawls:
    the fault path costs one branch and nothing else."""
    def summarize(results):
        return [
            (r.domain, r.status, r.thin_text, r.thick_text,
             r.registrar_server, r.error_code)
            for r in results
        ]

    baseline, base_crawler, base_clock = _hostile_crawl(
        n_domains=150, seed=4300, faults=None,
    )
    clean, crawler, clock = _hostile_crawl(
        n_domains=150, seed=4300, faults="none",
    )
    assert summarize(clean) == summarize(baseline)
    assert crawler.stats.queries_sent == base_crawler.stats.queries_sent
    assert clock.now() == base_clock.now()


@pytest.mark.chaos
@given(fault_seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_any_fault_seed_replays_byte_identically(fault_seed):
    """Property: whatever the seed, two runs of the same FaultPlan replay
    the same CrawlResult sequence on the same SimClock trace."""
    runs = []
    for _ in range(2):
        results, crawler, clock = _hostile_crawl(
            n_domains=60, seed=4400, faults="degraded_zoo",
            fault_seed=fault_seed,
        )
        runs.append((
            [
                (r.domain, r.status, r.thin_text, r.thick_text,
                 r.registrar_server, r.error_code)
                for r in results
            ],
            crawler.stats.queries_sent,
            clock.now(),
        ))
    assert runs[0] == runs[1]


@pytest.mark.chaos
def test_crawl_and_survey_quarantines_end_to_end():
    """The pipeline entry point wires faults, the gate, and the survey
    database together: rejected records land queryable, not dropped."""
    from repro.eval.experiments import crawl_and_survey

    stats, db, _parser = crawl_and_survey(
        n_domains=300, n_train=60, n_dbl=40, seed=4500,
        fault_profile="default_hostile",
    )
    counts = db.quarantine_counts()
    assert counts  # the 5% garble rate shows up
    assert stats.quarantined == db.n_quarantined == sum(counts.values())
    assert "garbled_record" in counts
    assert stats.thick_fetch_rate > stats.thick_coverage
