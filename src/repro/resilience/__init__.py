"""Crawl resilience: retry/hedge/breaker policies and the quarantine.

The policy engine the crawler runs against a hostile internet
(:mod:`repro.netsim.faults`): :class:`RetryPolicy` backoff,
:class:`Hedge` vantage escalation, per-server :class:`CircuitBreaker`
load shedding, and the :class:`RecordGate` whose rejects the survey
keeps queryable in its quarantine table instead of silently dropping.
Failures are typed via :mod:`repro.errors` throughout.
"""

from repro.resilience.policies import (
    BreakerPolicy,
    CircuitBreaker,
    Hedge,
    RetryPolicy,
)
from repro.resilience.quarantine import (
    QuarantinedRecord,
    RecordGate,
    screen_and_parse,
)

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "Hedge",
    "QuarantinedRecord",
    "RecordGate",
    "RetryPolicy",
    "screen_and_parse",
]
