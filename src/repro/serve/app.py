"""The serving application: batchers + admission + models, two fronts.

:class:`ServeApp` is the one process the ROADMAP's production story
runs: it holds the :class:`~repro.serve.models.ModelRegistry`, a
micro-batcher per workload (``parse`` requests ride
``WhoisParser.parse_many``, RDAP lookups ride
``RdapGateway.try_lookup_many``), and the admission controller every
request passes first.  Front-ends are thin adapters over the async
``parse_text`` / ``rdap_domain`` / ``whois_lookup`` entry points:

- a **port-43 listener** speaking RFC 3912 framing (the
  :mod:`repro.netsim.protocol` helpers the simulator and the asyncio
  transport already share): one domain in, the *parsed* legacy record
  out -- WHOIS text normalized through the model, the "legacy" face of
  the service;
- an **HTTP front-end** (:mod:`repro.serve.http`) serving ``/parse``,
  ``/rdap/domain/<name>``, ``/healthz``, ``/readyz`` and ``/metrics``
  -- the RDAP/structured face.

Graceful shutdown (:meth:`stop`): admission closes (new requests get
typed :class:`~repro.errors.Unavailable`), both listeners stop
accepting, in-flight batches drain and deliver results, queued requests
are rejected, and only then do the sockets close.
"""

from __future__ import annotations

import asyncio
import weakref
from dataclasses import dataclass
from typing import Callable

from repro import errors, obs
from repro.netsim.protocol import ProtocolError, frame_response, parse_query
from repro.parser.api import ParserBase
from repro.parser.fields import ParsedRecord
from repro.rdap.server import RdapGateway
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher
from repro.serve.models import ModelRegistry

__all__ = ["ServeApp", "ServeConfig", "render_parsed_whois"]

FetchFn = Callable[[str], "str | None"]

#: Validated RDAP responses the app's gateway keeps (LRU).
RDAP_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs, mirroring the ``repro serve`` CLI flags.

    The gateway's cache holds :data:`RDAP_CACHE_SIZE` responses; the
    rate limit's window and penalty are
    :data:`~repro.serve.admission.RATE_WINDOW` and
    :data:`~repro.serve.admission.RATE_PENALTY`.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    queue_depth: int = 256
    rate_limit: "int | None" = None


class _RegistryParser(ParserBase):
    """Parser-protocol adapter over the registry's *current* model.

    The RDAP gateway holds one parser for its lifetime; routing its
    calls through this proxy means a hot-swap reaches the gateway too,
    resolved per call rather than per process.
    """

    def __init__(self, models: ModelRegistry) -> None:
        self._models = models

    def parse(self, record) -> ParsedRecord:
        return self._models.current_parser.parse(record)

    def parse_many(self, records) -> list[ParsedRecord]:
        return self._models.current_parser.parse_many(records)


def _weakly(method) -> Callable[[list], list]:
    """``method`` as a function that does not keep its object alive.

    The app owns its batchers, so a batcher holding a bound method of
    the app would close a reference cycle, and a stopped and dropped app
    (with its parser and line caches) would live on until a full
    collection.  Calls still dispatch to the method of the app's own
    class, so a subclass may override the batch functions.
    """
    ref = weakref.WeakMethod(method)
    return lambda items: ref()(items)


def render_parsed_whois(parsed: ParsedRecord) -> str:
    """A parsed record as normalized legacy WHOIS text.

    This is what the port-43 front-end returns: the free-form record
    re-rendered from the model's structured fields, one stable
    ``Title: value`` schema regardless of which registrar produced the
    original -- parsed WHOIS wearing the legacy wire format.
    """
    lines = []
    if parsed.domain:
        lines.append(f"Domain Name: {parsed.domain}")
    if parsed.registrar:
        lines.append(f"Registrar: {parsed.registrar}")
    if parsed.created:
        lines.append(f"Creation Date: {parsed.created.isoformat()}")
    if parsed.updated:
        lines.append(f"Updated Date: {parsed.updated.isoformat()}")
    if parsed.expires:
        lines.append(f"Registry Expiry Date: {parsed.expires.isoformat()}")
    for status in parsed.statuses:
        lines.append(f"Domain Status: {status}")
    for server in parsed.name_servers:
        lines.append(f"Name Server: {server}")
    for key, value in sorted(parsed.registrant.items()):
        lines.append(f"Registrant {key.replace('_', ' ').title()}: {value}")
    return "\n".join(lines)


class ServeApp:
    """One process serving the parser and the RDAP gateway online."""

    def __init__(
        self,
        models: ModelRegistry,
        fetch_whois: "FetchFn | None" = None,
        *,
        config: "ServeConfig | None" = None,
        metrics: "obs.MetricsRegistry | None" = None,
    ) -> None:
        """Wire the registry, gateway, admission, and batcher together.

        ``fetch_whois`` backs RDAP lookups with raw record text (e.g. a
        crawl JSONL lookup); omitted, lookups answer from parses only.
        """
        self.models = models
        self.config = config or ServeConfig()
        #: installed for the app's lifetime so every layer underneath
        #: (parse_many cache stats, rdap.* counters, serve.* series)
        #: reports into one scrapeable registry.
        self.metrics = metrics or obs.MetricsRegistry()
        self._fetch = fetch_whois or (lambda _domain: None)
        self.gateway = RdapGateway(
            _RegistryParser(models),
            self._fetch,
            cache_size=RDAP_CACHE_SIZE,
        )
        self.admission = AdmissionController(
            queue_depth=self.config.queue_depth,
            rate_limit=self.config.rate_limit,
        )
        self.parse_batcher = MicroBatcher(
            _weakly(self._parse_batch),
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            name="parse",
        )
        self.rdap_batcher = MicroBatcher(
            _weakly(self._rdap_batch),
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            name="rdap",
        )
        self._servers: list[asyncio.AbstractServer] = []
        self._previous_registry: "obs.MetricsRegistry | None" = None
        self.ready = False
        self.http_port: "int | None" = None
        self.whois_port: "int | None" = None

    # ------------------------------------------------------------------
    # Batch functions (run in the executor, model resolved per batch)
    # ------------------------------------------------------------------

    def _parse_batch(self, texts: list[str]) -> list:
        return self.models.current_parser.parse_many(texts)

    def _rdap_batch(self, domains: list[str]) -> list:
        return self.gateway.try_lookup_many(domains)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(
        self,
        *,
        host: str = "127.0.0.1",
        http_port: "int | None" = None,
        whois_port: "int | None" = None,
    ) -> "ServeApp":
        """Start batchers and any requested listeners (port 0 = ephemeral)."""
        self._previous_registry = obs.active()
        obs.install(self.metrics)
        self.parse_batcher.start()
        self.rdap_batcher.start()
        if whois_port is not None:
            server = await asyncio.start_server(
                self._handle_whois, host, whois_port
            )
            self.whois_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if http_port is not None:
            from repro.serve.http import HttpFrontend

            # The listener holds the front-end (and through it the app)
            # until stop() drops the listeners.
            server = await asyncio.start_server(
                HttpFrontend(self).handle, host, http_port
            )
            self.http_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        self.ready = True
        return self

    async def stop(self) -> None:
        """Graceful shutdown; see the module docstring for the contract."""
        self.ready = False
        self.admission.close()
        for server in self._servers:
            server.close()
        await self.parse_batcher.stop()
        await self.rdap_batcher.stop()
        # Persist the warm line-encoder caches so the next start of this
        # registry (same vocabularies) hits on its very first batch.
        try:
            self.models.persist_encoder_cache()
        except OSError:
            pass  # read-only registry root; cold restart is still correct
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        self.http_port = None
        self.whois_port = None
        if obs.active() is self.metrics:
            obs.uninstall()
            if self._previous_registry is not None:
                obs.install(self._previous_registry)

    async def __aenter__(self) -> "ServeApp":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Request entry points (shared by every front-end)
    # ------------------------------------------------------------------

    async def parse_text(
        self, text: str, *, client: str = "local"
    ) -> ParsedRecord:
        """Parse one raw WHOIS record through admission + the batcher."""
        self.admission.admit(client)
        try:
            with obs.trace("serve.request_seconds", endpoint="parse"):
                return await self.parse_batcher.submit(text)
        finally:
            self.admission.release()

    async def rdap_domain(
        self, domain: str, *, client: str = "local"
    ) -> dict:
        """Validated RDAP JSON for ``domain``; raises typed errors."""
        self.admission.admit(client)
        try:
            with obs.trace("serve.request_seconds", endpoint="rdap"):
                result = await self.rdap_batcher.submit(domain)
        finally:
            self.admission.release()
        if isinstance(result, BaseException):
            raise result
        return result

    async def whois_lookup(
        self, domain: str, *, client: str = "local"
    ) -> "str | None":
        """Port-43 semantics: normalized parsed record text, or None."""
        text = self._fetch(domain.lower())
        if text is None:
            return None
        parsed = await self.parse_text(text, client=client)
        if not parsed.domain:
            parsed.domain = domain
        return render_parsed_whois(parsed)

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------

    def swap_model(self, parser, *, activate: bool = True) -> str:
        """Publish (and by default activate) a new parser version.

        In-flight batches keep the model they started with; the next
        batch resolves the new one.  The RDAP response cache is dropped
        because its payloads were rendered by the outgoing model.
        """
        version = self.models.publish(parser, activate=activate)
        if activate:
            self.gateway.clear_cache()
        return version

    def rollback_model(self) -> str:
        """Re-activate the previously active version; clears caches."""
        version = self.models.rollback()
        self.gateway.clear_cache()
        return version

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition the ``/metrics`` endpoint serves."""
        from repro.obs.export import to_prometheus

        return to_prometheus(self.metrics)

    # ------------------------------------------------------------------
    # The port-43 front-end (RFC 3912 framing)
    # ------------------------------------------------------------------

    async def _handle_whois(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else "unknown"
        try:
            try:
                raw = await asyncio.wait_for(reader.readline(), timeout=10.0)
                query = parse_query(raw)
            except (ProtocolError, asyncio.TimeoutError):
                writer.write(frame_response("% Malformed request"))
                return
            obs.inc("serve.requests", endpoint="whois")
            try:
                text = await self.whois_lookup(query, client=client)
            except errors.ReproError as exc:
                writer.write(frame_response(f"% Error: {exc.code}"))
                return
            if text is None:
                writer.write(frame_response("No match for domain."))
            else:
                writer.write(frame_response(text))
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
