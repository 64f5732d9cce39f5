"""An RDAP gateway over legacy WHOIS.

:class:`RdapGateway` holds a trained parser (anything satisfying the
:class:`~repro.parser.api.Parser` protocol) and a source of raw thick
records (a crawl result set or a live query function); lookups return
validated RDAP JSON.  This is the concrete payoff of learning to parse
WHOIS: structured, schema-stable answers over the unstructured legacy
corpus, without waiting for registries to migrate.

The gateway is the serving tier of the production story, so it carries
the serving-tier conveniences: a bounded LRU response cache (WHOIS
records change on the order of days; gateway traffic repeats heavily),
one lookup body (:meth:`RdapGateway.try_lookup_many`) that rides the
parser's batched path and that :meth:`~RdapGateway.lookup` and
:meth:`~RdapGateway.lookup_many` wrap, and ``repro.obs``
instrumentation (lookup counts, latencies, cache hit rates, error
codes).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

from repro import obs
from repro.errors import DomainNotFound, ReproError, error_payload
from repro.rdap.convert import parsed_to_rdap
from repro.rdap.schema import validate_rdap

if TYPE_CHECKING:
    from repro.parser.api import Parser

__all__ = ["DomainNotFound", "RdapGateway"]

_STATUS_PHRASES = {
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _status_for(exc: BaseException | None) -> int:
    """HTTP status for an exception, through the shared taxonomy.

    :class:`~repro.errors.ReproError` subclasses -- crawl failures,
    quarantine reasons, DomainNotFound -- carry their own status;
    anything foreign is a 500.  No exception means "no record" (404).
    """
    if exc is None:
        return 404
    if isinstance(exc, ReproError):
        return exc.http_status
    return 500


class RdapGateway:
    """domain -> validated RDAP JSON, via a WHOIS parser.

    ``cache_size`` > 0 enables a bounded LRU cache of validated
    responses, keyed by lowercased domain; 0 (the default) disables
    caching entirely, so every lookup re-fetches and re-parses.
    """

    def __init__(
        self,
        parser: "Parser",
        fetch_whois: Callable[[str], "str | None"],
        *,
        cache_size: int = 0,
    ) -> None:
        """Gateway over ``parser`` and a ``fetch_whois`` source; LRU-cached
        responses when ``cache_size`` > 0."""
        self.parser = parser
        self._fetch = fetch_whois
        self.lookups = 0
        self.cache_size = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache: "OrderedDict[str, dict]" = OrderedDict()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _cache_get(self, key: str) -> "dict | None":
        if not self.cache_size:
            return None
        payload = self._cache.get(key)
        if payload is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            obs.inc("rdap.cache.hits")
        else:
            self.cache_misses += 1
            obs.inc("rdap.cache.misses")
        return payload

    def _cache_put(self, key: str, payload: dict) -> None:
        if not self.cache_size:
            return
        self._cache[key] = payload
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop every cached response.

        The serving tier calls this when the parser behind the gateway is
        hot-swapped: cached payloads were rendered by the *old* model and
        would otherwise outlive it.
        """
        self._cache.clear()

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def lookup(self, domain: str) -> dict:
        """RDAP domain object for ``domain``; raises DomainNotFound (or
        the typed error :meth:`try_lookup_many` gives its slot)."""
        return self.lookup_many([domain])[0]

    def lookup_many(self, domains: Sequence[str]) -> list[dict]:
        """Bulk :meth:`lookup`: the payloads of :meth:`try_lookup_many`,
        or the first error among its slots (in input order), raised
        after the whole batch was looked up."""
        results = self.try_lookup_many(domains)
        for result in results:
            if isinstance(result, ReproError):
                raise result
        return results

    def try_lookup_many(
        self, domains: Sequence[str]
    ) -> "list[dict | ReproError]":
        """Per-domain lookup results that never raise: the one lookup body.

        Checks the cache, fetches every uncached record, parses them in
        one ``parse_many`` call, then renders and validates each.  Each
        slot holds the validated RDAP payload or a typed
        :class:`~repro.errors.ReproError`: :class:`DomainNotFound` for a
        missing record, the fetch's own typed error, or a 500-shaped
        ``ReproError`` for a render or validation crash.
        One bad domain therefore cannot sink the rest of the batch --
        the contract the serving tier's micro-batcher fans results out
        under.

        Duplicates (case-insensitive) are fetched and parsed once, and
        every counter reads as a loop of single lookups would while the
        cache holds the batch: a later occurrence of a domain that
        resolved counts as a cache hit, one of a domain that failed as
        another cache miss and error.
        """
        domains = list(domains)
        self.lookups += len(domains)
        obs.inc("rdap.lookups", len(domains))
        results: "list[dict | ReproError | None]" = [None] * len(domains)
        #: uncached key -> the indices awaiting it, in input order
        pending: "OrderedDict[str, list[int]]" = OrderedDict()
        for i, domain in enumerate(domains):
            key = domain.lower()
            if key in pending:
                pending[key].append(i)
                continue
            cached = self._cache_get(key)
            if cached is not None:
                results[i] = cached
            else:
                pending[key] = [i]
        start = perf_counter()
        texts: dict[str, str] = {}
        for key, indices in pending.items():
            try:
                text = self._fetch(key)
            except ReproError as exc:  # a typed fetch failure
                self._settle(results, indices, exc)
                continue
            if text is None:
                self._settle(
                    results, indices, DomainNotFound(domains[indices[0]])
                )
            else:
                texts[key] = text
        if texts:
            parsed_records = self.parser.parse_many(list(texts.values()))
            for key, parsed in zip(texts, parsed_records):
                indices = pending[key]
                try:
                    payload = parsed_to_rdap(
                        domains[indices[0]], parsed
                    ).to_json()
                    validate_rdap(payload)
                except Exception as exc:
                    self._settle(results, indices, (
                        exc if isinstance(exc, ReproError)
                        else ReproError(f"{type(exc).__name__}: {exc}")
                    ))
                    continue
                self._cache_put(key, payload)
                self._settle(results, indices, payload)
            obs.observe("rdap.lookup_seconds", perf_counter() - start)
        return results

    def _settle(
        self, results: list, indices: list[int], outcome: "dict | ReproError"
    ) -> None:
        """Fill one uncached domain's slots with ``outcome``, counting
        its repeats within the batch as a loop of lookups would."""
        for i in indices:
            results[i] = outcome
        repeats = len(indices) - 1
        if isinstance(outcome, ReproError):
            obs.inc("rdap.errors", len(indices), code=str(outcome.http_status))
            if self.cache_size and repeats:
                self.cache_misses += repeats
                obs.inc("rdap.cache.misses", repeats)
        elif self.cache_size and repeats:
            self.cache_hits += repeats
            obs.inc("rdap.cache.hits", repeats)

    # ------------------------------------------------------------------
    # HTTP-shaped responses
    # ------------------------------------------------------------------

    def lookup_json(self, domain: str) -> str:
        """:meth:`lookup` serialized as indented JSON (the wire body)."""
        return json.dumps(self.lookup(domain), indent=2)

    def error_json(
        self,
        domain: str,
        status: int | None = None,
        *,
        exc: BaseException | None = None,
    ) -> str:
        """An RFC 7483 error response body.

        Errors serialize through the shared :mod:`repro.errors`
        taxonomy: any :class:`~repro.errors.ReproError` -- a
        :class:`DomainNotFound`, but equally a typed
        :class:`~repro.errors.CrawlError` bubbling up from the fetch
        -- supplies its own HTTP-analog status and taxonomy code (echoed
        in the body's ``reproErrorCode``); foreign exceptions (a parse
        crash, a validation failure) render the 500 shape with the
        exception's message.  An explicit ``status`` overrides the
        derived code.
        """
        if status is None:
            status = _status_for(exc)
        title = _STATUS_PHRASES.get(status, type(exc).__name__ if exc else "Error")
        if exc is None or isinstance(exc, DomainNotFound):
            description = f"no WHOIS record for {domain}"
        elif isinstance(exc, ReproError):
            description = str(exc)
        else:
            description = f"{type(exc).__name__}: {exc}"
        body = {
            "rdapConformance": ["rdap_level_0"],
            "errorCode": status,
            "title": title,
            "description": [description],
        }
        if exc is not None:
            body["reproErrorCode"] = error_payload(exc)["code"]
        return json.dumps(body)
