"""WHOIS protocol simulation and the measurement crawler (Section 4.1).

The paper crawls 102M com domains against Verisign's thin registry and
~1400 registrar servers, all of which rate limit by source IP with
unpublished thresholds.  This package provides:

- :mod:`repro.netsim.protocol` -- RFC 3912 request/response framing;
- :mod:`repro.netsim.clock` -- a simulated clock so rate-limit dynamics run
  in virtual time;
- :mod:`repro.netsim.ratelimit` -- per-source-IP budgets with penalty
  periods;
- :mod:`repro.netsim.servers` -- thin registry and thick registrar servers;
- :mod:`repro.netsim.internet` -- the collection of servers reachable by
  hostname;
- :mod:`repro.netsim.faults` -- seedable fault injection (timeouts, resets,
  garbled/truncated records, flap schedules) over that internet;
- :mod:`repro.netsim.crawler` -- the two-step (thin -> thick) crawler with
  dynamic rate-limit inference and multi-vantage retry;
- :mod:`repro.netsim.tcp` -- a real asyncio TCP server/client speaking the
  protocol on localhost, for end-to-end integration tests.
"""

from repro.netsim.clock import SimClock
from repro.netsim.crawler import (
    CrawlResult,
    CrawlStats,
    WhoisCrawler,
)
from repro.netsim.faults import (
    PROFILES,
    FaultPlan,
    FaultProfile,
    FlapSchedule,
    resolve_profile,
)
from repro.netsim.internet import SimulatedInternet, build_com_internet
from repro.netsim.protocol import (
    MAX_QUERY_LENGTH,
    frame_query,
    frame_response,
    parse_query,
)
from repro.netsim.ratelimit import RateLimiter
from repro.netsim.servers import (
    QueryOutcome,
    RegistrarServer,
    RegistryServer,
    WhoisServer,
)

__all__ = [
    "CrawlResult",
    "CrawlStats",
    "FaultPlan",
    "FaultProfile",
    "FlapSchedule",
    "MAX_QUERY_LENGTH",
    "PROFILES",
    "QueryOutcome",
    "resolve_profile",
    "RateLimiter",
    "RegistrarServer",
    "RegistryServer",
    "SimClock",
    "SimulatedInternet",
    "WhoisCrawler",
    "WhoisServer",
    "build_com_internet",
    "frame_query",
    "frame_response",
    "parse_query",
]
