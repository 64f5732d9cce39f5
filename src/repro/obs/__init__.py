"""Pipeline observability: metrics, spans, exporters (zero-dependency).

Every stage of the reproduction -- crawler pacing (Section 4.1), CRF
training (Section 3), bulk inference and the survey build (Section 6),
and the RDAP gateway -- reports into one process-local
:class:`MetricsRegistry` through the helpers here:

>>> from repro import obs
>>> registry = obs.MetricsRegistry()
>>> with obs.use(registry):
...     obs.inc("crawler.queries", server="whois.example.com")
...     with obs.trace("parse.decode"):
...         pass
>>> registry.counter_value("crawler.queries", server="whois.example.com")
1.0

With no registry installed every helper is a no-op costing one global
load and a branch, so instrumentation stays on in library code
unconditionally.  ``registry.clock`` may be set to any ``now() -> float``
object (e.g. the netsim ``SimClock``) to trace spans in virtual time.
"""

from repro.obs.export import to_json, to_prometheus, write_metrics
from repro.obs.metrics import (
    BOUNDS,
    Histogram,
    MetricsRegistry,
    active,
    inc,
    install,
    labelset,
    observe,
    set_gauge,
    uninstall,
    use,
)
from repro.obs.trace import NOOP_SPAN, Span, trace

__all__ = [
    "BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "active",
    "inc",
    "install",
    "labelset",
    "observe",
    "set_gauge",
    "to_json",
    "to_prometheus",
    "trace",
    "uninstall",
    "use",
    "write_metrics",
]
