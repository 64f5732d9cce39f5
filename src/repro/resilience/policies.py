"""Crawl resilience policies: retry backoff and circuit breaking.

Besides the paper's vantage escalation (each source IP once, at most
three queries sent; see :class:`~repro.netsim.crawler.WhoisCrawler`),
the crawler survives a hostile internet with two mechanisms this module
makes explicit and tunable (each loadable from JSON for the CLI):

- :class:`RetryPolicy` -- capped exponential backoff with deterministic
  jitter, replacing the crawler's single hard-coded penalty guess;
- :class:`CircuitBreaker` -- per-server closed/open/half-open load
  shedding so a dark server stops consuming attempts (and simulated
  hours) long before every domain behind it times out.

All timing runs on whatever clock the crawler passes in (the netsim
``SimClock`` in simulation), and every state change lands in
``repro.obs`` under ``resilience.*``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from pathlib import Path

from repro import obs


def _load_json(source: str | Path) -> dict:
    text = str(source)
    if not text.lstrip().startswith("{"):
        text = Path(source).read_text(encoding="utf-8")
    return json.loads(text)


def _from_dict(cls, data: dict):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {sorted(unknown)}"
        )
    return cls(**data)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` is ``base_delay * multiplier**attempt`` capped at
    ``max_delay``; ``jitter`` widens each delay by a uniform factor in
    ``[1-jitter, 1+jitter]`` drawn from a seeded hash of the attempt and
    key, so two runs with the same seed back off identically (replays
    stay byte-identical) while distinct servers desynchronize.
    """

    base_delay: float = 60.0
    multiplier: float = 1.0
    max_delay: float = 3600.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, *, key: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (0-based).

        ``key`` (typically the server name) seeds the jitter draw so
        distinct servers desynchronize while replays stay identical.
        """
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if self.jitter:
            rng = random.Random(f"{self.seed}|{key}|{attempt}")
            raw *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return raw

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        """Build from a mapping, rejecting unknown keys."""
        return _from_dict(cls, data)

    @classmethod
    def from_json(cls, source: str | Path) -> "RetryPolicy":
        """Build from a JSON string or a path to a JSON file."""
        return cls.from_dict(_load_json(source))


@dataclass(frozen=True)
class BreakerPolicy:
    """Tunables of one :class:`CircuitBreaker`."""

    failure_threshold: int = 5  # consecutive failures that open the circuit
    recovery_time: float = 300.0  # seconds open before a half-open probe
    half_open_probes: int = 1  # successes required to close again

    def __post_init__(self) -> None:
        if self.failure_threshold < 1 or self.half_open_probes < 1:
            raise ValueError("breaker thresholds must be >= 1")
        if self.recovery_time < 0:
            raise ValueError("recovery_time must be non-negative")

    @classmethod
    def from_dict(cls, data: dict) -> "BreakerPolicy":
        """Build from a mapping, rejecting unknown keys."""
        return _from_dict(cls, data)

    @classmethod
    def from_json(cls, source: str | Path) -> "BreakerPolicy":
        """Build from a JSON string or a path to a JSON file."""
        return cls.from_dict(_load_json(source))


class CircuitBreaker:
    """Per-server closed/open/half-open breaker on an injectable clock.

    ``allow()`` answers "may I send a query now?": always in ``closed``,
    never while ``open`` (until ``recovery_time`` has elapsed, which
    moves to ``half_open``), and one probe at a time in ``half_open``.
    Failures while half-open re-open the circuit; ``half_open_probes``
    successes close it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, policy: BreakerPolicy, clock, *, server: str = "") -> None:
        """Start closed; ``clock`` needs only a ``now() -> float``."""
        self.policy = policy
        self.clock = clock
        self.server = server
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.successes_half_open = 0
        self.opened_at = 0.0
        self.skips = 0
        self.transitions = 0
        self._probe_in_flight = False

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        self.transitions += 1
        obs.inc("resilience.breaker.transitions", server=self.server,
                state=state)
        obs.set_gauge(
            "resilience.breaker.open",
            1.0 if state != self.CLOSED else 0.0,
            server=self.server,
        )

    def allow(self) -> bool:
        """May the caller send a query to this server right now?

        Counts a refused slot in ``skips``; an affirmative answer while
        half-open reserves the single probe slot, so the caller must
        follow up with :meth:`record_success` or :meth:`record_failure`.
        """
        if self.state == self.OPEN:
            if self.clock.now() - self.opened_at >= self.policy.recovery_time:
                self._transition(self.HALF_OPEN)
                self.successes_half_open = 0
                self._probe_in_flight = False
            else:
                self.skips += 1
                obs.inc("resilience.breaker.skips", server=self.server)
                return False
        if self.state == self.HALF_OPEN:
            if self._probe_in_flight:
                self.skips += 1
                obs.inc("resilience.breaker.skips", server=self.server)
                return False
            self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        """Report a successful query; enough half-open successes close."""
        self.consecutive_failures = 0
        if self.state == self.HALF_OPEN:
            self._probe_in_flight = False
            self.successes_half_open += 1
            if self.successes_half_open >= self.policy.half_open_probes:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        """Report a failed query; threshold or a failed probe opens."""
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            self._probe_in_flight = False
            self.opened_at = self.clock.now()
            self._transition(self.OPEN)
        elif (self.state == self.CLOSED
              and self.consecutive_failures >= self.policy.failure_threshold):
            self.opened_at = self.clock.now()
            self._transition(self.OPEN)
