"""Simulated WHOIS servers: the thin registry and thick registrars."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from repro.datagen.registrars import RateLimitSpec
from repro.datagen.registration import Registration
from repro.datagen.thin import NO_MATCH, render_thin
from repro.netsim.clock import SimClock
from repro.netsim.ratelimit import RateLimiter


class QueryOutcome(str, Enum):
    """How a server answered (or failed to answer) one query."""

    OK = "ok"
    NO_MATCH = "no_match"
    RATE_LIMITED = "rate_limited"
    ERROR = "error"
    DROPPED = "dropped"  # connection timeout / no response at all
    # Fault-injection outcomes (repro.netsim.faults): transport-level
    # failures distinct from rate limiting, so the crawler can retry
    # them without inferring a lower limit.
    TIMEOUT = "timeout"  # connection hung until the client gave up
    RESET = "reset"  # connection actively reset mid-exchange
    TRANSIENT = "transient_error"  # 5xx-analog "busy, try again"


@dataclass(frozen=True)
class Response:
    """One wire response: the outcome plus the record text, if any."""

    outcome: QueryOutcome
    text: str = ""

    @property
    def is_valid(self) -> bool:
        """Whether the answer is usable (a record or a clean no-match)."""
        return self.outcome in (QueryOutcome.OK, QueryOutcome.NO_MATCH)


class WhoisServer:
    """Base server: rate limiting plus a lookup table of response texts."""

    def __init__(
        self,
        hostname: str,
        clock: SimClock,
        *,
        rate_limit: RateLimitSpec,
        drop_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        """Set up the limiter and drop dice for ``hostname``."""
        self.hostname = hostname
        self.clock = clock
        self.spec = rate_limit
        self.limiter = RateLimiter(
            clock,
            limit=rate_limit.limit,
            window=rate_limit.window,
            penalty=rate_limit.penalty,
        )
        self.drop_rate = drop_rate
        self._rng = random.Random((hostname, seed).__repr__())
        self.query_count = 0
        self.refused_count = 0

    # -- lookup, overridden by subclasses --------------------------------

    def lookup(self, domain: str) -> str | None:
        """Record text for ``domain``, or None (subclasses decide)."""
        raise NotImplementedError

    def query(self, source_ip: str, query: str) -> Response:
        """Answer one WHOIS query from ``source_ip``."""
        self.query_count += 1
        if not self.limiter.allow(source_ip):
            self.refused_count += 1
            mode = self.spec.failure_mode
            if mode == "drop":
                return Response(QueryOutcome.DROPPED)
            if mode == "error":
                return Response(
                    QueryOutcome.ERROR,
                    "WHOIS LIMIT EXCEEDED - SEE WWW.PIR.ORG/WHOIS FOR DETAILS",
                )
            return Response(QueryOutcome.RATE_LIMITED, "")
        if self.drop_rate and self._rng.random() < self.drop_rate:
            return Response(QueryOutcome.DROPPED)
        domain = query.strip().lower().removeprefix("domain ")
        text = self.lookup(domain)
        if text is None:
            return Response(QueryOutcome.NO_MATCH, NO_MATCH)
        return Response(QueryOutcome.OK, text)


class RegistryServer(WhoisServer):
    """The thin com registry (Verisign): registrar identity + referral."""

    def __init__(
        self,
        clock: SimClock,
        registrations: dict[str, Registration],
        *,
        hostname: str = "whois.verisign-grs.com",
        rate_limit: RateLimitSpec | None = None,
        expired: set[str] | None = None,
    ) -> None:
        """Serve thin records for ``registrations`` minus ``expired``."""
        super().__init__(
            hostname,
            clock,
            rate_limit=rate_limit
            or RateLimitSpec(limit=120, window=10.0, penalty=60.0),
        )
        self._registrations = registrations
        self._expired = expired or set()
        self._thin_cache: dict[str, str] = {}

    def lookup(self, domain: str) -> str | None:
        """Render (and cache) the thin record, or None if unregistered."""
        if domain in self._expired:
            return None
        registration = self._registrations.get(domain)
        if registration is None:
            return None
        if domain not in self._thin_cache:
            self._thin_cache[domain] = render_thin(registration)
        return self._thin_cache[domain]


class RegistrarServer(WhoisServer):
    """One registrar's thick WHOIS server."""

    def __init__(
        self,
        hostname: str,
        clock: SimClock,
        records: dict[str, str],
        *,
        rate_limit: RateLimitSpec,
        drop_rate: float = 0.0,
    ) -> None:
        super().__init__(hostname, clock, rate_limit=rate_limit,
                         drop_rate=drop_rate)
        self._records = records

    def lookup(self, domain: str) -> str | None:
        """The thick record this registrar sponsors, or None."""
        return self._records.get(domain)
