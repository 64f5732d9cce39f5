"""Crawl resilience: retry/hedge/breaker policies and the quarantine.

The policy engine the crawler runs against a hostile internet
(:mod:`repro.netsim.faults`): :class:`RetryPolicy` backoff,
:class:`Hedge` vantage escalation, per-server :class:`CircuitBreaker`
load shedding, and the :class:`Quarantine` + :class:`RecordGate` pair
that keeps unparseable records queryable instead of silently dropped.
Failures are typed via :mod:`repro.errors` throughout.
"""

from repro.resilience.policies import (
    BreakerPolicy,
    CircuitBreaker,
    Hedge,
    RetryPolicy,
)
from repro.resilience.quarantine import (
    Quarantine,
    QuarantinedRecord,
    RecordGate,
    screen_and_parse,
)

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "Hedge",
    "Quarantine",
    "QuarantinedRecord",
    "RecordGate",
    "RetryPolicy",
    "screen_and_parse",
]
