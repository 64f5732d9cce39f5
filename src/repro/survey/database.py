"""The survey database: one row per parsed com registration (Section 6).

"With our parser in hand, we applied it to our crawl of the WHOIS records
of com domains and constructed a database of the fields extracted by the
parser."  :class:`SurveyDatabase` is that database -- now a thin facade
over a pluggable :class:`~repro.survey.store.SurveyStore` backend: the
in-memory :class:`~repro.survey.store.MemoryStore` by default, or the
durable :class:`~repro.survey.store.SqliteStore` replica for paper-scale
surveys.  Filter methods (:meth:`created_in`, :meth:`public`, ...) return
lightweight *views* sharing the same store with a composed
:class:`~repro.survey.store.EntryFilter`, so Section 6 tables aggregate
in the backend instead of copying entry lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date
from typing import Iterator

from repro import obs
from repro.errors import CrawlError
from repro.parser.fields import ParsedRecord
from repro.resilience.quarantine import QuarantinedRecord
from repro.survey.normalize import (
    canonical_country,
    canonical_registrar,
    detect_brand,
    detect_privacy_service,
)
from repro.survey.store import (
    MATCH_ALL,
    EntryFilter,
    MemoryStore,
    SurveyStore,
)


@dataclass(frozen=True)
class DomainEntry:
    """One domain's surveyed fields."""

    domain: str
    registrar: str | None
    country: str | None  # ISO code; None = unknown
    created: date | None
    privacy_service: str | None
    org: str | None
    brand: str | None
    blacklisted: bool = False

    @property
    def is_private(self) -> bool:
        """Whether a privacy/proxy service shields the registrant."""
        return self.privacy_service is not None

    @property
    def creation_year(self) -> int | None:
        """Year of the creation date (None when the date is unknown)."""
        return self.created.year if self.created else None


def entry_from_parsed(
    domain: str,
    parsed: ParsedRecord,
    *,
    registrar_hint: str | None = None,
    blacklisted: bool = False,
) -> DomainEntry:
    """Normalize one parsed record into a :class:`DomainEntry`.

    This is the survey's one ingestion transform: every row enters
    through :meth:`SurveyDatabase.add_parsed`, which runs records through
    here.
    """
    name = parsed.registrant.get("name")
    org = parsed.registrant.get("org")
    privacy = detect_privacy_service(name, org)
    return DomainEntry(
        domain=domain,
        registrar=canonical_registrar(parsed.registrar or registrar_hint),
        country=canonical_country(parsed.registrant.get("country")),
        created=parsed.created,
        privacy_service=privacy,
        org=org,
        brand=detect_brand(org) if privacy is None else None,
        blacklisted=blacklisted,
    )


class SurveyDatabase:
    """An append-only survey of :class:`DomainEntry` rows over a backend.

    Records the parser rejected live in a parallel quarantine table
    (:class:`~repro.resilience.QuarantinedRecord` rows) -- first-class
    and queryable, never silently dropped into the ``ok`` counts.

    Construction takes an optional backend (``SurveyDatabase()`` keeps
    the historical in-memory behavior); filters return views onto the
    same backend.  Callers iterate (``for entry in db``), count
    (``len(db)``), or query (:meth:`get`, :meth:`group_counts`); crawls
    enter through :func:`~repro.survey.ingest.sharded_ingest`.
    """

    def __init__(
        self,
        store: SurveyStore | None = None,
        *,
        _filter: EntryFilter = MATCH_ALL,
    ) -> None:
        self.store: SurveyStore = store if store is not None else MemoryStore()
        self._filter = _filter

    def __len__(self) -> int:
        return self.store.count(self._filter)

    def __iter__(self) -> Iterator[DomainEntry]:
        return self.store.iter_entries(self._filter)

    def iter_by_domain(self) -> Iterator[DomainEntry]:
        """Stream entries sorted by domain (insertion order within one
        domain) -- the access path the churn merge-join diffs on."""
        return self.store.iter_entries(self._filter, by_domain=True)

    def group_counts(self, key: str):
        """Counter of entries per distinct ``key`` value, aggregated in
        the backend (see :data:`repro.survey.store.GROUP_KEYS`)."""
        return self.store.group_counts(key, self._filter)

    def get(self, domain: str) -> DomainEntry | None:
        """Point query: the latest entry for ``domain`` in this view's
        scope (or None)."""
        entry = self.store.get(domain)
        if entry is None or not self._filter.matches(entry):
            return None
        return entry

    def flush(self) -> None:
        """Flush buffered ingest batches to the backend."""
        self.store.flush()

    def close(self) -> None:
        """Flush and release the backend (a no-op for memory stores)."""
        self.store.close()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def add_parsed(
        self,
        domain: str,
        parsed: ParsedRecord,
        *,
        registrar_hint: str | None = None,
        blacklisted: bool = False,
    ) -> DomainEntry:
        """Normalize one parsed record into the database.

        ``registrar_hint`` supplies the registrar from the thin record when
        the thick record's own registrar line is missing or garbled.
        Durable backends additionally persist the parsed record itself
        (its :meth:`~repro.parser.fields.ParsedRecord.to_jsonable` form),
        which is what ``repro query`` answers from.
        """
        entry = entry_from_parsed(
            domain, parsed,
            registrar_hint=registrar_hint, blacklisted=blacklisted,
        )
        record = (
            parsed.to_jsonable()
            if getattr(self.store, "persistent", False) else None
        )
        self.store.append(entry, record=record)
        obs.inc("survey.rows", blacklisted="true" if blacklisted else "false")
        if entry.privacy_service is not None:
            obs.inc("survey.private_rows")
        if entry.country is None:
            obs.inc("survey.unknown_country_rows")
        return entry

    def add_quarantined(
        self, domain: str, text: str | None, error: CrawlError
    ) -> QuarantinedRecord:
        """File one rejected record in the quarantine table."""
        record = QuarantinedRecord(domain=domain, text=text or "", error=error)
        self.store.append_quarantined(record)
        obs.inc("survey.quarantined_rows", reason=error.code)
        return record

    # -- quarantine queries --------------------------------------------

    def iter_quarantine(self) -> Iterator[QuarantinedRecord]:
        """Stream the quarantine table in insertion order."""
        return self.store.iter_quarantine()

    @property
    def n_quarantined(self) -> int:
        """Number of quarantined rows."""
        return self.store.n_quarantined()

    def quarantined_domains(self) -> list[str]:
        """Domains of every quarantined record, in insertion order."""
        return [record.domain for record in self.store.iter_quarantine()]

    def quarantine_counts(self) -> dict[str, int]:
        """Quarantined rows per taxonomy code (the coverage accounting
        complement: fetched but untrusted)."""
        return self.store.quarantine_counts()

    # ------------------------------------------------------------------
    # Filter views (share the store; no copying)
    # ------------------------------------------------------------------

    def _view(self, **changes) -> "SurveyDatabase":
        return SurveyDatabase(
            self.store, _filter=replace(self._filter, **changes)
        )

    def created_in(self, year: int) -> "SurveyDatabase":
        """View of entries created in exactly ``year``."""
        return self._view(year=year)

    def created_through(self, year: int) -> "SurveyDatabase":
        """View of entries with a known creation year ``<= year``."""
        return self._view(through_year=year)

    def blacklisted(self) -> "SurveyDatabase":
        """View of DBL-listed entries (the Section 6.4 scope)."""
        return self._view(blacklisted=True)

    def normal(self) -> "SurveyDatabase":
        """Entries not on the blacklist (the main Section 6.1-6.3 scope)."""
        return self._view(blacklisted=False)

    def public(self) -> "SurveyDatabase":
        """Entries without privacy protection (country analyses use these)."""
        return self._view(private=False)

    def private(self) -> "SurveyDatabase":
        """Privacy-protected entries (the Tables 6-7 scope)."""
        return self._view(private=True)

    def registered_with(self, registrar: str) -> "SurveyDatabase":
        """View of entries whose canonical registrar is ``registrar``."""
        return self._view(registrar=registrar)
