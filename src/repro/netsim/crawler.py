"""The two-step WHOIS crawler with dynamic rate-limit inference (Section 4.1).

For each zone domain the crawler (1) queries the thin registry, (2)
extracts the registrar's WHOIS server from the thin record, and (3) queries
that server for the thick record.  Rate limits are "rarely published
publicly", so the crawler uses the paper's "simple dynamic inference
technique": it tracks its query rate per server, and when a server stops
responding with valid data it infers the rate was the culprit, records the
limit, and subsequently queries well under it.

Failure handling is typed and policy-driven: every failed fetch carries a
:class:`~repro.errors.CrawlError` (the legacy status string survives as a
derived property), vantage escalation follows the paper's schedule
(each source IP once, at most :data:`MAX_ATTEMPTS` queries sent),
transport faults back off under a
:class:`~repro.resilience.RetryPolicy`, and an optional per-server
:class:`~repro.resilience.CircuitBreaker` sheds load from servers that
have gone dark.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro import obs
from repro.datagen.thin import extract_referral
from repro.datagen.zone import ZoneFile
from repro.errors import (
    CircuitOpen,
    CrawlError,
    NoReferral,
    RateLimited,
    RecordMissing,
    Reset,
    Timeout,
    TransientServerError,
)
from repro.netsim.internet import SimulatedInternet
from repro.netsim.servers import QueryOutcome, Response
from repro.resilience.policies import (
    BreakerPolicy,
    CircuitBreaker,
    RetryPolicy,
)

#: Most queries one lookup sends to a server across its vantage points
#: (Section 4.1's three-attempt retry); a backed-off vantage sends none.
MAX_ATTEMPTS = 3

#: Transport-level outcomes retried under the RetryPolicy (no rate-limit
#: inference: the server did not refuse us, the network failed us).
_TRANSIENT_OUTCOMES = {
    QueryOutcome.TIMEOUT,
    QueryOutcome.RESET,
    QueryOutcome.TRANSIENT,
}

_ERROR_FOR_OUTCOME = {
    QueryOutcome.TIMEOUT: Timeout,
    QueryOutcome.RESET: Reset,
    QueryOutcome.TRANSIENT: TransientServerError,
    QueryOutcome.DROPPED: Timeout,
    QueryOutcome.RATE_LIMITED: RateLimited,
    QueryOutcome.ERROR: RateLimited,
}


@dataclass(frozen=True)
class CrawlResult:
    """Outcome of crawling one domain.

    The legacy ``status`` string ("ok" | "no_match" | "thin_only" |
    "failed") is now *derived* from what was actually fetched and the
    typed ``error`` (if any) -- construct results from data, read status
    for compatibility.
    """

    domain: str
    thin_text: str | None = None
    thick_text: str | None = None
    registrar_server: str | None = None
    error: CrawlError | None = None
    no_match: bool = False

    @property
    def status(self) -> str:
        """Legacy status string, derived from the fetched texts."""
        if self.no_match:
            return "no_match"
        if self.thick_text is not None:
            return "ok"
        if self.thin_text is not None:
            return "thin_only"
        return "failed"

    @property
    def has_thick(self) -> bool:
        """Whether a thick (registrar) record was fetched."""
        return self.thick_text is not None

    @property
    def error_code(self) -> str | None:
        """Taxonomy code of the crawl error, or None on success."""
        return self.error.code if self.error is not None else None


#: Statuses CrawlStats tracks; "quarantined" is assigned after the fact
#: when the record gate rejects a fetched thick record.
_STATUSES = ("ok", "no_match", "thin_only", "failed", "quarantined")


class CrawlStats:
    """Aggregate crawl accounting (the Section 4.1 numbers).

    Statuses are tracked per domain: re-recording a domain (a retried
    crawl, or a later quarantine of its thick record) *moves* it between
    buckets instead of double-counting it, so ``failure_rate`` stays a
    fraction of distinct existing domains.  The per-status counts
    (``ok``, ``no_match``, ``thin_only``, ``failed``, ``quarantined``,
    ``total``) are read-only views of those statuses.
    """

    def __init__(self) -> None:
        """Start all buckets empty; statuses accrue via :meth:`record`."""
        self.queries_sent: int = 0
        self.rate_limit_events: int = 0
        self.inferred_intervals: dict[str, float] = {}
        #: crawl failures by CrawlError code (events, not domains)
        self.error_counts: Counter[str] = Counter()
        #: breaker-denied queries (load shed), by server
        self.breaker_skips: int = 0
        self._status_by_domain: dict[str, str] = {}
        self._status_counts: Counter[str] = Counter()

    # -- recording ------------------------------------------------------

    def record(self, result: CrawlResult) -> None:
        """Account one crawl result, replacing any earlier status for
        the same domain (the double-count guard)."""
        self._set_status(result.domain, result.status)
        if result.error is not None:
            self.error_counts[result.error.code] += 1

    def record_quarantine(self, domain: str, error: CrawlError) -> None:
        """Move a previously-ok domain into the quarantined bucket."""
        self._set_status(domain, "quarantined")
        self.error_counts[error.code] += 1

    def _set_status(self, domain: str, status: str) -> None:
        previous = self._status_by_domain.get(domain)
        if previous is not None:
            self._status_counts[previous] -= 1
        self._status_by_domain[domain] = status
        self._status_counts[status] += 1

    # -- the per-status counts, derived from per-domain statuses ---------

    def _count(self, status: str) -> int:
        return self._status_counts[status]

    @property
    def ok(self) -> int:
        """Domains whose thick record was fetched and kept."""
        return self._count("ok")

    @property
    def no_match(self) -> int:
        """Domains the registry reported as unregistered."""
        return self._count("no_match")

    @property
    def thin_only(self) -> int:
        """Domains where only the registry's thin record arrived."""
        return self._count("thin_only")

    @property
    def failed(self) -> int:
        """Domains with no usable record at all."""
        return self._count("failed")

    @property
    def quarantined(self) -> int:
        """Domains whose fetched thick record the gate later rejected."""
        return self._count("quarantined")

    @property
    def total(self) -> int:
        """Distinct domains with any recorded status."""
        return sum(self._status_counts.values())

    # -- the Section 4.1 ratios ----------------------------------------

    @property
    def thick_coverage(self) -> float:
        """Fraction of zone domains with a *trusted* thick record
        (paper: >90%); quarantined records do not count."""
        return self.ok / self.total if self.total else 0.0

    @property
    def thick_fetch_rate(self) -> float:
        """Fraction with a thick record fetched at all, trusted or
        quarantined."""
        total = self.total
        return (self.ok + self.quarantined) / total if total else 0.0

    @property
    def failure_rate(self) -> float:
        """Fraction of (existing) domains whose thick fetch failed after
        all retries (paper: ~7.5%).  Per-domain status tracking
        guarantees a domain counted thin_only that later fails outright
        moves between the buckets instead of being counted in both."""
        denominator = self.total - self.no_match
        return (self.thin_only + self.failed) / denominator if denominator else 0.0

    def __repr__(self) -> str:
        counts = ", ".join(f"{s}={self._count(s)}" for s in _STATUSES)
        return (f"CrawlStats({counts}, queries_sent={self.queries_sent}, "
                f"rate_limit_events={self.rate_limit_events})")


@dataclass
class _ServerState:
    """Crawler-side knowledge about one WHOIS server."""

    interval: float = 0.0  # inferred min seconds between queries per source
    next_allowed: dict[str, float] = field(default_factory=dict)  # per IP
    hits: int = 0
    trips: int = 0


class WhoisCrawler:
    """Crawl a zone against a :class:`SimulatedInternet`.

    ``retry_policy`` shapes the backoff after transport faults
    (timeouts, resets, 5xx-analogs); the default reproduces the legacy
    fixed ``penalty_guess`` wait.  Vantage escalation tries each of
    ``source_ips`` once, up to :data:`MAX_ATTEMPTS` queries sent.
    ``breaker`` (a
    :class:`~repro.resilience.BreakerPolicy`) enables per-server circuit
    breaking; None (the default) disables it.
    """

    def __init__(
        self,
        internet: SimulatedInternet,
        *,
        source_ips: tuple[str, ...] = ("10.0.0.1", "10.0.0.2", "10.0.0.3"),
        registry_host: str = "whois.verisign-grs.com",
        max_wait: float = 30.0,
        penalty_guess: float = 60.0,
        retry_policy: RetryPolicy | None = None,
        breaker: BreakerPolicy | None = None,
    ) -> None:
        """Wire the crawler to ``internet`` with its pacing/recovery knobs."""
        if not source_ips:
            raise ValueError("need at least one source IP")
        self.internet = internet
        self.clock = internet.clock
        self.source_ips = tuple(source_ips)
        self.registry_host = registry_host
        self.max_wait = max_wait
        self.penalty_guess = penalty_guess
        self.retry_policy = retry_policy or RetryPolicy(
            base_delay=penalty_guess, multiplier=1.0
        )
        self.breaker_policy = breaker
        self._breakers: dict[str, CircuitBreaker] = {}
        self._servers: dict[str, _ServerState] = {}
        self.stats = CrawlStats()

    # ------------------------------------------------------------------
    # Paced querying with inference
    # ------------------------------------------------------------------

    def _state(self, host: str) -> _ServerState:
        return self._servers.setdefault(host, _ServerState())

    def _breaker(self, host: str) -> CircuitBreaker | None:
        if self.breaker_policy is None:
            return None
        breaker = self._breakers.get(host)
        if breaker is None:
            breaker = CircuitBreaker(
                self.breaker_policy, self.clock, server=host
            )
            self._breakers[host] = breaker
        return breaker

    def _paced_query(self, host: str, query: str, *, domain: str) -> Response:
        """Query ``host``, pacing below its inferred limit, escalating
        across vantage points: each source IP once, skipping one backed
        off beyond ``max_wait``, until :data:`MAX_ATTEMPTS` queries are
        sent.

        Returns a valid response or raises the :class:`CrawlError`
        describing the final failure.
        """
        state = self._state(host)
        breaker = self._breaker(host)
        attempts = 0
        last_error: CrawlError | None = None
        for ip in self.source_ips:
            if attempts >= MAX_ATTEMPTS:
                break
            if breaker is not None and not breaker.allow():
                self.stats.breaker_skips += 1
                raise CircuitOpen(
                    f"circuit open for {host}", server=host, domain=domain,
                    attempts=attempts,
                )
            now = self.clock.now()
            allowed = max(state.next_allowed.get(ip, 0.0), now)
            if allowed - now > self.max_wait:
                # This vantage point is backed off beyond our patience;
                # try another one.
                continue
            attempts += 1
            self.clock.sleep_until(allowed)
            issued = self.clock.now()
            response = self.internet.query(ip, host, query)
            self.stats.queries_sent += 1
            # Latency in *simulated* seconds: the pacing dynamics the
            # paper cares about live on this clock, not the wall clock.
            obs.observe(
                "crawler.query_seconds", self.clock.now() - issued, server=host
            )
            obs.inc("crawler.queries", server=host)
            state.next_allowed[ip] = self.clock.now() + state.interval
            if response.is_valid:
                state.hits += 1
                if breaker is not None:
                    breaker.record_success()
                if attempts > 1:
                    obs.inc("crawler.vantage_retries", attempts - 1, server=host)
                return response
            if breaker is not None:
                breaker.record_failure()
            error_cls = _ERROR_FOR_OUTCOME.get(response.outcome, RateLimited)
            last_error = error_cls(
                f"{response.outcome.value} from {host} for {domain!r}",
                server=host, domain=domain, attempts=attempts,
            )
            obs.inc("crawler.attempt_failures", server=host,
                    code=last_error.code)
            if response.outcome in _TRANSIENT_OUTCOMES:
                # Transport fault: the server did not refuse us.  Back
                # off this vantage per the retry policy, no inference.
                delay = self.retry_policy.delay(attempts - 1, key=host)
                state.next_allowed[ip] = self.clock.now() + delay
                obs.inc("resilience.retries", server=host,
                        code=last_error.code)
                continue
            # Invalid data: infer we hit the limit, slow down and back off.
            self.stats.rate_limit_events += 1
            state.trips += 1
            state.interval = min(3600.0, max(1.0, state.interval * 4.0))
            self.stats.inferred_intervals[host] = state.interval
            obs.inc("crawler.rate_limit_trips", server=host)
            obs.set_gauge(
                "crawler.inferred_interval_seconds", state.interval, server=host
            )
            state.next_allowed[ip] = self.clock.now() + self.penalty_guess
        obs.inc("crawler.exhausted_queries", server=host)
        if last_error is not None:
            raise last_error
        raise RateLimited(
            f"every vantage point backed off beyond {self.max_wait}s "
            f"for {host}",
            server=host, domain=domain, attempts=attempts,
        )

    # ------------------------------------------------------------------
    # Crawling
    # ------------------------------------------------------------------

    def crawl_domain(self, domain: str) -> CrawlResult:
        """Run the two-step thin -> referral -> thick crawl for one domain."""
        try:
            thin = self._paced_query(
                self.registry_host, f"domain {domain}", domain=domain
            )
        except CrawlError as exc:
            return CrawlResult(domain, error=exc)
        if thin.outcome is QueryOutcome.NO_MATCH:
            return CrawlResult(domain, thin_text=thin.text, no_match=True)
        referral = extract_referral(thin.text)
        if referral is None:
            return CrawlResult(
                domain, thin_text=thin.text,
                error=NoReferral(
                    f"thin record for {domain} names no registrar WHOIS "
                    "server",
                    server=self.registry_host, domain=domain,
                ),
            )
        try:
            thick = self._paced_query(referral, domain, domain=domain)
        except CrawlError as exc:
            return CrawlResult(
                domain, thin_text=thin.text, registrar_server=referral,
                error=exc,
            )
        if thick.outcome is not QueryOutcome.OK:
            return CrawlResult(
                domain, thin_text=thin.text, registrar_server=referral,
                error=RecordMissing(
                    f"{referral} has no record for {domain}",
                    server=referral, domain=domain,
                ),
            )
        return CrawlResult(
            domain,
            thin_text=thin.text,
            thick_text=thick.text,
            registrar_server=referral,
        )

    def crawl(self, zone: ZoneFile) -> list[CrawlResult]:
        """Crawl every domain in the zone snapshot."""
        results = []
        start = self.clock.now()
        for domain in zone:
            result = self.crawl_domain(domain)
            results.append(result)
            self.stats.record(result)
            obs.inc("crawler.results", status=result.status)
            if result.error is not None:
                obs.inc("crawler.errors", code=result.error.code)
        obs.set_gauge("crawler.crawl_sim_seconds", self.clock.now() - start)
        return results
