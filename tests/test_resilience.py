"""Tests for the resilience policy layer and the shared error taxonomy."""

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import (
    CircuitOpen,
    CrawlError,
    DomainNotFound,
    GarbledRecord,
    RateLimited,
    ReproError,
    Timeout,
    Truncated,
    error_payload,
)
from repro.netsim.clock import SimClock
from repro.netsim.crawler import CrawlResult, CrawlStats
from repro.rdap.server import RdapGateway
from repro.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    RecordGate,
    RetryPolicy,
)
from repro.resilience.quarantine import _suspicious_fraction


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------


def test_crawl_errors_carry_stable_codes_and_statuses():
    exc = Timeout("whois.slow.com never answered",
                  server="whois.slow.com", domain="a.com", attempts=3)
    assert isinstance(exc, CrawlError)
    assert isinstance(exc, ReproError)
    payload = exc.to_payload()
    assert payload["code"] == "timeout"
    assert payload["status"] == 504
    assert payload["type"] == "Timeout"
    assert payload["server"] == "whois.slow.com"
    assert payload["domain"] == "a.com"
    assert payload["attempts"] == 3
    assert "never answered" in payload["detail"]


def test_taxonomy_codes_are_distinct():
    classes = [Timeout, RateLimited, GarbledRecord, Truncated, CircuitOpen,
               DomainNotFound]
    codes = {cls.code for cls in classes}
    assert len(codes) == len(classes)


def test_error_payload_wraps_foreign_exceptions():
    payload = error_payload(ValueError("boom"))
    assert payload == {
        "code": "internal_error",
        "type": "ValueError",
        "status": 500,
        "detail": "ValueError: boom",
    }


def test_domain_not_found_is_a_keyerror_without_quoting():
    exc = DomainNotFound("no WHOIS record for x.com")
    assert isinstance(exc, KeyError)  # legacy except-clause compatibility
    assert str(exc) == "no WHOIS record for x.com"


def test_rdap_error_json_speaks_the_taxonomy():
    gateway = RdapGateway(object(), lambda domain: None)
    body = json.loads(gateway.error_json(
        "a.com",
        exc=RateLimited("limit hit", server="whois.r.com", domain="a.com"),
    ))
    assert body["errorCode"] == 429
    assert body["title"] == "Too Many Requests"
    assert body["reproErrorCode"] == "rate_limited"

    body = json.loads(gateway.error_json(
        "b.com", exc=Timeout("gone dark", server="whois.r.com")
    ))
    assert body["errorCode"] == 504
    assert body["reproErrorCode"] == "timeout"


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


def test_retry_policy_exponential_with_cap():
    policy = RetryPolicy(base_delay=10.0, multiplier=3.0, max_delay=100.0)
    assert policy.delay(0) == 10.0
    assert policy.delay(1) == 30.0
    assert policy.delay(2) == 90.0
    assert policy.delay(3) == 100.0  # capped


def test_retry_policy_default_reproduces_fixed_penalty():
    policy = RetryPolicy(base_delay=60.0, multiplier=1.0)
    assert [policy.delay(i) for i in range(4)] == [60.0] * 4


def test_retry_policy_jitter_is_bounded_and_deterministic():
    policy = RetryPolicy(base_delay=100.0, multiplier=1.0, jitter=0.2, seed=7)
    delays = [policy.delay(i, key="whois.x.com") for i in range(20)]
    assert delays == [policy.delay(i, key="whois.x.com") for i in range(20)]
    assert all(80.0 <= d <= 120.0 for d in delays)
    # Distinct servers desynchronize.
    assert delays != [policy.delay(i, key="whois.y.com") for i in range(20)]


def test_retry_policy_from_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "retry.json"
    path.write_text('{"base_delay": 5, "multiplier": 2}')
    policy = RetryPolicy.from_json(path)
    assert policy.delay(1) == 10.0
    with pytest.raises(ValueError, match="unknown RetryPolicy keys"):
        RetryPolicy.from_json('{"base": 5}')


def test_retry_policy_validates():
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------


def test_breaker_opens_after_consecutive_failures():
    clock = SimClock()
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3), clock)
    for _ in range(2):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    assert breaker.skips == 1


def test_breaker_success_resets_the_failure_streak():
    clock = SimClock()
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3), clock)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED


def test_breaker_half_open_probe_and_close():
    clock = SimClock()
    policy = BreakerPolicy(failure_threshold=1, recovery_time=60.0)
    breaker = CircuitBreaker(policy, clock)
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    clock.advance(59.0)
    assert not breaker.allow()
    clock.advance(1.0)
    assert breaker.allow()  # the half-open probe
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert not breaker.allow()  # only one probe in flight
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow()


def test_breaker_half_open_failure_reopens():
    clock = SimClock()
    policy = BreakerPolicy(failure_threshold=1, recovery_time=60.0)
    breaker = CircuitBreaker(policy, clock)
    breaker.record_failure()
    clock.advance(60.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()


def test_breaker_emits_obs_metrics():
    registry = obs.MetricsRegistry()
    clock = SimClock()
    with obs.use(registry):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, recovery_time=30.0),
            clock, server="whois.dark.com",
        )
        breaker.record_failure()
        breaker.allow()
    assert registry.counter_value(
        "resilience.breaker.transitions",
        server="whois.dark.com", state="open",
    ) == 1.0
    assert registry.counter_value(
        "resilience.breaker.skips", server="whois.dark.com"
    ) == 1.0
    assert registry.gauge_value(
        "resilience.breaker.open", server="whois.dark.com"
    ) == 1.0


def test_breaker_policy_validates_and_loads():
    with pytest.raises(ValueError):
        BreakerPolicy(failure_threshold=0)
    policy = BreakerPolicy.from_json(
        '{"failure_threshold": 2, "recovery_time": 10}'
    )
    assert policy.failure_threshold == 2
    assert policy.recovery_time == 10


# ----------------------------------------------------------------------
# Quarantine and the record gate
# ----------------------------------------------------------------------


CLEAN_RECORD = (
    "Domain Name: example.com\n"
    "Registrar: Example Registrar, Inc.\n"
    "Creation Date: 2012-03-04\n"
    "Registrant Name: J. Smith\n"
    "Registrant Country: US\n"
)


def test_suspicious_fraction_separates_clean_from_garbled():
    assert _suspicious_fraction(CLEAN_RECORD) == 0.0
    assert _suspicious_fraction("Domain\x00\x00 Name: �� ex�mple.com\n") > 0.1


def _reference_suspicious_fraction(text: str) -> float:
    """The gate's earlier per-character loop over Unicode categories."""
    import unicodedata

    if not text:
        return 1.0
    bad = 0
    for ch in text:
        if ch in "\n\r\t":
            continue
        if ch == "\ufffd" or unicodedata.category(ch) in ("Cc", "Co"):
            bad += 1
    return bad / len(text)


#: Every ASCII control, plus the edges of each range the gate's class
#: spans (C1 controls, private use, U+FFFD) and their neighbours.
_GATE_EDGES = [chr(c) for c in range(0x20)] + [
    chr(c) for c in (
        0x7f, 0x80, 0x85, 0x9f, 0xa0, 0xd800, 0xdfff, 0xe000, 0xf8ff,
        0xf900, 0xfffc, 0xfffd, 0xfffe, 0xeffff, 0xf0000, 0xffffd,
        0xffffe, 0x100000, 0x10fffd, 0x10ffff,
    )
] + ["é", "中"]

_GATE_CHARS = st.one_of(
    st.sampled_from(_GATE_EDGES),
    st.characters(min_codepoint=0x20, max_codepoint=0x7e),
    st.characters(),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(st.characters(max_codepoint=0x7f), max_size=60),
    st.text(_GATE_CHARS, max_size=60),
))
def test_suspicious_fraction_matches_the_per_character_loop(text):
    assert _suspicious_fraction(text) == _reference_suspicious_fraction(text)


def test_gate_rejects_empty_and_garbled_and_short():
    gate = RecordGate()
    assert isinstance(gate.inspect_text("a.com", None), GarbledRecord)
    assert isinstance(gate.inspect_text("a.com", "   \n"), GarbledRecord)
    garbled = CLEAN_RECORD.replace("Registrar", "Reg\x00\x01�str�r")
    assert isinstance(gate.inspect_text("a.com", garbled), GarbledRecord)
    assert isinstance(
        gate.inspect_text("a.com", "Domain Name: a.com"), Truncated
    )
    assert gate.inspect_text("a.com", CLEAN_RECORD) is None


class _StubParser:
    """A parser exposing fixed per-line posterior marginals."""

    def __init__(self, confidences):
        self._confidences = confidences

    def line_confidences(self, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        return [
            (line, "FIELD", conf)
            for line, conf in zip(lines, self._confidences)
        ]


def test_gate_confidence_check_flags_low_mean_and_low_tail():
    gate = RecordGate(min_mean_confidence=0.8)
    confident = _StubParser([0.99, 0.98, 0.97, 0.96, 0.95])
    assert gate.inspect("a.com", CLEAN_RECORD, confident) is None

    hedging = _StubParser([0.5, 0.5, 0.5, 0.5, 0.5])
    error = gate.inspect("a.com", CLEAN_RECORD, hedging)
    assert isinstance(error, Truncated)

    # Truncation bites the tail: high mean, collapsed last line.
    cut = _StubParser([0.99, 0.99, 0.99, 0.99, 0.30])
    error = gate.inspect("a.com", CLEAN_RECORD, cut)
    assert isinstance(error, Truncated)
    assert "tail" in str(error)


def test_gate_confidence_check_is_optional():
    gate = RecordGate(min_mean_confidence=0.8)

    class NoMarginals:
        pass

    # Parsers without line_confidences (the rule baselines) pass through.
    assert gate.inspect("a.com", CLEAN_RECORD, NoMarginals()) is None
    # And without a threshold the check never runs.
    assert RecordGate().inspect(
        "a.com", CLEAN_RECORD, _StubParser([0.1] * 5)
    ) is None


class _CountingBulkParser(_StubParser):
    """A bulk stub that records every text it is asked to score or parse."""

    def __init__(self, confidences):
        super().__init__(confidences)
        self.scored: list[str] = []
        self.parsed: list[str] = []

    def line_confidences_many(self, texts):
        self.scored.extend(texts)
        return [self.line_confidences(text) for text in texts]

    def parse_many(self, texts):
        self.parsed.extend(texts)
        return [f"parsed:{text[:8]}" for text in texts]


class _InspectOnly:
    """A gate stand-in exposing only ``inspect``, as wrappers that time
    the gate's checks do."""

    def __init__(self, gate):
        self.inspect = gate.inspect


@pytest.mark.parametrize("wrap", [lambda gate: gate, _InspectOnly])
def test_screen_and_parse_scores_only_structurally_sound_records(wrap):
    from repro.resilience import screen_and_parse

    garbled = CLEAN_RECORD.replace("Registrar", "Reg\x00\x01�str�r")
    records = [
        ("a.com", CLEAN_RECORD),
        ("b.com", None),
        ("c.com", "   \n"),
        ("d.com", garbled),
        ("e.com", "Domain Name: e.com"),
        ("f.com", CLEAN_RECORD),
    ]
    gate = RecordGate(min_mean_confidence=0.8)
    parser = _CountingBulkParser([0.99] * 5)
    admitted, rejected = screen_and_parse(wrap(gate), parser, records)
    # One scoring pass over the distinct texts that passed the structural
    # check; the rejects were never scored.
    assert parser.scored == [CLEAN_RECORD]
    assert [i for i, _parsed in admitted] == [0, 5]
    assert parser.parsed == [CLEAN_RECORD, CLEAN_RECORD]
    # The verdicts are RecordGate.inspect's, record by record.
    assert [i for i, _error in rejected] == [1, 2, 3, 4]
    for i, error in rejected:
        expected = gate.inspect(*records[i], _StubParser([0.99] * 5))
        assert type(error) is type(expected) and str(error) == str(expected)


def test_screen_and_parse_scores_nothing_when_all_are_rejected():
    from repro.resilience import screen_and_parse

    parser = _CountingBulkParser([0.99] * 5)
    admitted, rejected = screen_and_parse(
        RecordGate(min_mean_confidence=0.8), parser, [("a.com", "")]
    )
    assert admitted == [] and [i for i, _error in rejected] == [0]
    assert parser.scored == [] and parser.parsed == []


# ----------------------------------------------------------------------
# CrawlStats
# ----------------------------------------------------------------------


def test_stats_track_statuses_and_error_classes():
    stats = CrawlStats()
    stats.record(CrawlResult("a.com", thin_text="t", thick_text="T"))
    stats.record(CrawlResult("b.com", no_match=True))
    stats.record(CrawlResult(
        "c.com", thin_text="t",
        error=Timeout("dark", server="w", domain="c.com"),
    ))
    assert (stats.ok, stats.no_match, stats.thin_only, stats.failed) == (
        1, 1, 1, 0,
    )
    assert stats.total == 3
    assert stats.error_counts == {"timeout": 1}


def test_stats_failure_rate_does_not_double_count_recrawled_domains():
    """Regression: a thin_only domain that later fails outright used to
    land in both buckets, inflating failure_rate past the true fraction."""
    stats = CrawlStats()
    stats.record(CrawlResult("a.com", thin_text="t", thick_text="T"))
    stats.record(CrawlResult(
        "b.com", thin_text="t", error=RateLimited("hit limit"),
    ))
    # The same domain re-crawled, now failing before the thin step too.
    stats.record(CrawlResult("b.com", error=Timeout("gone")))
    assert stats.total == 2
    assert stats.thin_only == 0
    assert stats.failed == 1
    assert stats.failure_rate == 0.5
    assert stats.error_counts == {"rate_limited": 1, "timeout": 1}


def test_stats_quarantine_moves_ok_domains():
    stats = CrawlStats()
    for domain in ("a.com", "b.com", "c.com", "d.com"):
        stats.record(CrawlResult(domain, thin_text="t", thick_text="T"))
    stats.record_quarantine("d.com", GarbledRecord("mojibake", domain="d.com"))
    assert stats.ok == 3
    assert stats.quarantined == 1
    assert stats.total == 4
    assert stats.thick_coverage == 0.75
    assert stats.thick_fetch_rate == 1.0
    assert "quarantined=1" in repr(stats)


def test_stats_reads_do_not_warn():
    stats = CrawlStats()
    stats.record(CrawlResult("a.com", thin_text="t", thick_text="T"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _ = (stats.ok, stats.no_match, stats.thin_only, stats.failed,
             stats.total, stats.quarantined, stats.thick_coverage,
             stats.failure_rate)


# ----------------------------------------------------------------------
# CrawlResult derived status
# ----------------------------------------------------------------------


def test_crawl_result_status_is_derived():
    assert CrawlResult("a.com", thin_text="t", thick_text="T").status == "ok"
    assert CrawlResult("a.com", no_match=True).status == "no_match"
    assert CrawlResult("a.com", thin_text="t").status == "thin_only"
    failed = CrawlResult("a.com", error=Timeout("dark"))
    assert failed.status == "failed"
    assert failed.error_code == "timeout"
    assert CrawlResult("a.com", thin_text="t", thick_text="T").error_code is None
