"""Crawl resilience: retry/breaker policies and the quarantine.

The policy engine the crawler runs against a hostile internet
(:mod:`repro.netsim.faults`): :class:`RetryPolicy` backoff, per-server
:class:`CircuitBreaker` load shedding, and the :class:`RecordGate`
whose rejects the survey keeps queryable in its quarantine table
instead of silently dropping.  Vantage escalation is the paper's fixed
schedule and lives in the crawler itself (each source IP once, at most
three queries sent).  Failures are typed via :mod:`repro.errors`
throughout.
"""

from repro.resilience.policies import (
    BreakerPolicy,
    CircuitBreaker,
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
    "QuarantinedRecord",
    "RecordGate",
    "RetryPolicy",
    "screen_and_parse",
]
