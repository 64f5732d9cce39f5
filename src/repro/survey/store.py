"""Survey storage backends: the ``SurveyStore`` protocol and its two
implementations.

The paper's survey covers 102M registrations (Section 6); a Python list
of :class:`~repro.survey.database.DomainEntry` caps the survey at one
process's RAM.  This module makes the storage layer a pluggable backend
behind one narrow protocol:

- :class:`MemoryStore` keeps today's append-only in-memory semantics
  bit-for-bit (the default, and the right choice at test scale);
- :class:`SqliteStore` persists entries and quarantine rows to a sqlite
  replica (stdlib :mod:`sqlite3`, WAL journal, batched transactional
  ingest) so Section 6 tables, the two-crawl churn diff, and per-
  registrar aggregations stream from disk via cursors and SQL
  ``GROUP BY`` instead of materialized lists -- the
  ``audioscavenger/whoisd`` shape of "bulk ingest into a real database,
  answer point queries against the replica".

Every read path is expressed against :class:`EntryFilter` (a conjunctive
filter over the survey's query dimensions) so the two backends answer
the same queries: ``MemoryStore`` evaluates the filter as a predicate
over its list, ``SqliteStore`` compiles it to a ``WHERE`` clause.
Aggregation results are identical between backends by construction --
ordering-sensitive consumers (:func:`repro.survey.analysis._ranking`)
sort ties deterministically rather than leaning on insertion order.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from repro import obs
from repro.errors import error_from_payload
from repro.resilience.quarantine import QuarantinedRecord

#: Columns ``group_counts`` may aggregate over (the survey's Section 6
#: query dimensions).  Both backends validate against this set so a typo
#: fails loudly instead of silently returning an empty Counter.
GROUP_KEYS = (
    "registrar",
    "country",
    "privacy_service",
    "brand",
    "creation_year",
)


@dataclass(frozen=True)
class EntryFilter:
    """A conjunctive filter over survey entries.

    ``None`` on any dimension means "no constraint".  The same filter
    value drives both backends: a Python predicate over
    :class:`MemoryStore`'s list and a compiled ``WHERE`` clause in
    :class:`SqliteStore`, so a filtered view answers identically no
    matter where the rows live.
    """

    #: require ``entry.blacklisted`` to equal this
    blacklisted: bool | None = None
    #: require ``entry.is_private`` (a privacy service is set) to equal this
    private: bool | None = None
    #: require ``entry.creation_year`` to equal this (excludes unknown dates)
    year: int | None = None
    #: require a known creation year ``<=`` this
    through_year: int | None = None
    #: require the canonical registrar to equal this
    registrar: str | None = None

    def matches(self, entry) -> bool:
        """Evaluate the filter as a predicate (the MemoryStore path)."""
        if self.blacklisted is not None and entry.blacklisted != self.blacklisted:
            return False
        if self.private is not None and entry.is_private != self.private:
            return False
        if self.year is not None and entry.creation_year != self.year:
            return False
        if self.through_year is not None and (
            entry.creation_year is None
            or entry.creation_year > self.through_year
        ):
            return False
        if self.registrar is not None and entry.registrar != self.registrar:
            return False
        return True

    def where(self) -> tuple[str, list]:
        """Compile to a SQL ``WHERE`` clause (the SqliteStore path)."""
        clauses: list[str] = []
        params: list = []
        if self.blacklisted is not None:
            clauses.append("blacklisted = ?")
            params.append(int(self.blacklisted))
        if self.private is not None:
            clauses.append(
                "privacy_service IS NOT NULL" if self.private
                else "privacy_service IS NULL"
            )
        if self.year is not None:
            clauses.append("creation_year = ?")
            params.append(self.year)
        if self.through_year is not None:
            clauses.append("creation_year IS NOT NULL AND creation_year <= ?")
            params.append(self.through_year)
        if self.registrar is not None:
            clauses.append("registrar = ?")
            params.append(self.registrar)
        if not clauses:
            return "", []
        return " WHERE " + " AND ".join(clauses), params


#: The unconstrained filter (module-level so views can share it).
MATCH_ALL = EntryFilter()


@runtime_checkable
class SurveyStore(Protocol):
    """What a survey storage backend must answer.

    The protocol is deliberately narrow: appends, filtered streaming
    reads, filtered counts, grouped counts, point queries, and the
    quarantine table.  Everything Section 6 renders -- and everything
    the churn diff and the ``repro query`` replica need -- composes from
    these, so a backend never has to materialize the full entry list.
    """

    def append(self, entry, *, record: dict | None = None) -> None:
        """Ingest one entry (plus, optionally, its parsed-record JSON)."""
        ...

    def append_quarantined(self, record: QuarantinedRecord) -> None:
        """File one rejected record in the quarantine table."""
        ...

    def append_audit(self, audit) -> None:
        """File one cross-protocol consistency verdict
        (:class:`~repro.consistency.audit.AuditRecord`)."""
        ...

    def iter_audits(self, *, by_domain: bool = False) -> Iterator:
        """Stream audit records in insertion order (or sorted by domain,
        insertion order within a domain, with ``by_domain``)."""
        ...

    def get_audit(self, domain: str):
        """Point query: the most recent audit for ``domain`` (or None)."""
        ...

    def n_audits(self) -> int:
        """Number of audit rows."""
        ...

    def audit_registrar_counts(self) -> "dict[str | None, tuple[int, int]]":
        """Per-registrar ``(audited, disagreeing)`` counts over rows with
        a definite verdict (incomparable rows are excluded)."""
        ...

    def count(self, flt: EntryFilter = MATCH_ALL) -> int:
        """Number of entries matching ``flt``."""
        ...

    def iter_entries(
        self, flt: EntryFilter = MATCH_ALL, *, by_domain: bool = False
    ) -> Iterator:
        """Stream matching entries in insertion order (or sorted by
        domain, insertion order within a domain, with ``by_domain``)."""
        ...

    def group_counts(
        self, key: str, flt: EntryFilter = MATCH_ALL
    ) -> Counter:
        """``Counter`` of entries per distinct value of ``key``
        (one of :data:`GROUP_KEYS`; ``None`` groups missing values)."""
        ...

    def get(self, domain: str):
        """Point query: the most recently ingested entry for ``domain``
        (or ``None``)."""
        ...

    def get_record(self, domain: str) -> dict | None:
        """The parsed-record JSON stored alongside the latest entry for
        ``domain``, when the backend retains it."""
        ...

    def iter_quarantine(self) -> Iterator[QuarantinedRecord]:
        """Stream the quarantine table in insertion order."""
        ...

    def quarantine_counts(self) -> dict[str, int]:
        """Quarantined rows per taxonomy code."""
        ...

    def n_quarantined(self) -> int:
        """Number of quarantined rows."""
        ...

    def flush(self) -> None:
        """Make every buffered append visible to readers."""
        ...

    def close(self) -> None:
        """Flush and release the backend's resources."""
        ...

    def absorb(self, other: "SurveyStore") -> None:
        """Append every row of ``other`` in its order (the merge step of
        sharded ingest, whose shards are sqlite files)."""
        ...


def _group_value(entry, key: str):
    """The grouping value of one entry for ``key`` (MemoryStore path)."""
    if key == "creation_year":
        return entry.creation_year
    return getattr(entry, key)


class MemoryStore:
    """The in-memory backend: two append-only Python lists.

    Bit-identical to the pre-store ``SurveyDatabase`` semantics --
    insertion order preserved, duplicates allowed, nothing persisted.
    Parsed-record JSON passed to :meth:`append` is *not* retained: the
    memory backend keeps exactly the rows the original survey kept, so
    its RSS profile stays the baseline the scale benchmark measures
    sqlite against.  Point queries for full records need the sqlite
    replica.
    """

    persistent = False

    def __init__(self) -> None:
        self._entries: list = []
        self._quarantine: list[QuarantinedRecord] = []
        self._audits: list = []

    # -- ingest ---------------------------------------------------------

    def append(self, entry, *, record: dict | None = None) -> None:
        """Append one entry (``record`` JSON is dropped; see class doc)."""
        self._entries.append(entry)

    def append_quarantined(self, record: QuarantinedRecord) -> None:
        """Append one quarantined record."""
        self._quarantine.append(record)

    def append_audit(self, audit) -> None:
        """Append one consistency audit verdict."""
        self._audits.append(audit)

    # -- reads ----------------------------------------------------------

    def count(self, flt: EntryFilter = MATCH_ALL) -> int:
        """Number of entries matching ``flt``."""
        if flt is MATCH_ALL:
            return len(self._entries)
        return sum(1 for e in self._entries if flt.matches(e))

    def iter_entries(
        self, flt: EntryFilter = MATCH_ALL, *, by_domain: bool = False
    ) -> Iterator:
        """Stream matching entries (domain-sorted with ``by_domain``;
        the sort is stable, so insertion order survives within a
        domain)."""
        source = self._entries
        if by_domain:
            source = sorted(source, key=lambda e: e.domain)
        if flt is MATCH_ALL:
            yield from source
        else:
            yield from (e for e in source if flt.matches(e))

    def group_counts(
        self, key: str, flt: EntryFilter = MATCH_ALL
    ) -> Counter:
        """Counter of matching entries per distinct ``key`` value."""
        if key not in GROUP_KEYS:
            raise KeyError(f"cannot group entries by {key!r}")
        return Counter(
            _group_value(e, key) for e in self.iter_entries(flt)
        )

    def get(self, domain: str):
        """Latest entry for ``domain`` (or ``None``)."""
        for entry in reversed(self._entries):
            if entry.domain == domain:
                return entry
        return None

    def get_record(self, domain: str) -> dict | None:
        """Always ``None``: the memory backend drops record JSON."""
        return None

    # -- quarantine -----------------------------------------------------

    def iter_quarantine(self) -> Iterator[QuarantinedRecord]:
        """Stream the quarantine table in insertion order."""
        return iter(self._quarantine)

    def quarantine_counts(self) -> dict[str, int]:
        """Quarantined rows per taxonomy code."""
        counts: dict[str, int] = {}
        for record in self._quarantine:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return counts

    def n_quarantined(self) -> int:
        """Number of quarantined rows."""
        return len(self._quarantine)

    # -- audits ---------------------------------------------------------

    def iter_audits(self, *, by_domain: bool = False) -> Iterator:
        """Stream audit records (domain-sorted with ``by_domain``)."""
        source = self._audits
        if by_domain:
            source = sorted(source, key=lambda a: a.domain)
        return iter(source)

    def get_audit(self, domain: str):
        """Latest audit for ``domain`` (or ``None``)."""
        for audit in reversed(self._audits):
            if audit.domain == domain:
                return audit
        return None

    def n_audits(self) -> int:
        """Number of audit rows."""
        return len(self._audits)

    def audit_registrar_counts(self) -> "dict[str | None, tuple[int, int]]":
        """Per-registrar ``(audited, disagreeing)`` over definite verdicts."""
        counts: dict[str | None, tuple[int, int]] = {}
        for audit in self._audits:
            if audit.verdict == "incomparable":
                continue
            audited, bad = counts.get(audit.registrar, (0, 0))
            counts[audit.registrar] = (
                audited + 1, bad + (audit.verdict == "disagree")
            )
        return counts

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """No-op: memory appends are immediately visible."""

    def close(self) -> None:
        """No-op: nothing to release."""

    def absorb(self, other: "SurveyStore") -> None:
        """Merge another store's rows into this one, in its order."""
        other.flush()
        self._entries.extend(other.iter_entries())
        self._quarantine.extend(other.iter_quarantine())
        self._audits.extend(other.iter_audits())


_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    id INTEGER PRIMARY KEY,
    domain TEXT NOT NULL,
    registrar TEXT,
    country TEXT,
    created TEXT,
    creation_year INTEGER,
    privacy_service TEXT,
    org TEXT,
    brand TEXT,
    blacklisted INTEGER NOT NULL DEFAULT 0,
    record TEXT
);
CREATE INDEX IF NOT EXISTS entries_domain ON entries(domain);
CREATE INDEX IF NOT EXISTS entries_year ON entries(creation_year);
CREATE TABLE IF NOT EXISTS quarantine (
    id INTEGER PRIMARY KEY,
    domain TEXT NOT NULL,
    text TEXT NOT NULL,
    code TEXT NOT NULL,
    error TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS audits (
    id INTEGER PRIMARY KEY,
    domain TEXT NOT NULL,
    registrar TEXT,
    verdict TEXT NOT NULL,
    compared INTEGER NOT NULL,
    diffs TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS audits_domain ON audits(domain);
CREATE INDEX IF NOT EXISTS audits_registrar ON audits(registrar);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT
);
"""

#: Rows a :class:`SqliteStore` buffers per table before it commits them
#: in one transaction.
BATCH_SIZE = 2000

#: Bump when the table shapes change; refuses to open mismatched replicas.
#: v2 added the ``audits`` table (cross-protocol consistency verdicts).
SCHEMA_VERSION = "2"

_ENTRY_COLUMNS = (
    "domain", "registrar", "country", "created", "creation_year",
    "privacy_service", "org", "brand", "blacklisted", "record",
)


class SqliteStore:
    """The durable backend: a sqlite replica of the survey.

    Ingest is batched and transactional -- appends buffer in memory and
    commit :data:`BATCH_SIZE` rows per transaction, so a crash mid-ingest
    loses at most the uncommitted batch and never exposes a partial one
    (WAL recovery rolls the journal back to the last commit).  Reads
    flush the buffer first, so a single-process caller always sees its
    own writes.

    Entries keep their ingest order via the rowid; every read path is a
    streaming cursor (``ORDER BY id`` / ``ORDER BY domain, id``) or a
    SQL aggregate, so a 10-100x-of-RAM survey never materializes in the
    Python heap.  The optional ``record`` column stores each entry's
    parsed-record JSON, which is what ``repro query`` answers point
    queries from.
    """

    persistent = True

    def __init__(
        self,
        path: str | Path,
        *,
        fresh: bool = False,
        read_only: bool = False,
    ) -> None:
        self.path = str(path)
        if fresh and self.path != ":memory:":
            for suffix in ("", "-wal", "-shm"):
                Path(self.path + suffix).unlink(missing_ok=True)
        if read_only:
            uri = f"file:{self.path}?mode=ro"
            self._conn = sqlite3.connect(uri, uri=True)
        else:
            self._conn = sqlite3.connect(self.path)
        self._read_only = read_only
        cursor = self._conn.cursor()
        try:
            # WAL keeps readers unblocked during ingest and makes the
            # commit the atomicity unit; on :memory: (or read-only
            # replicas) the pragma is a no-op.
            cursor.execute("PRAGMA journal_mode=WAL")
            cursor.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.OperationalError:
            pass
        if not read_only:
            cursor.executescript(_SCHEMA)
            version = self._meta("schema_version")
            if version is None:
                cursor.execute(
                    "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
                    (SCHEMA_VERSION,),
                )
                self._conn.commit()
            elif version != SCHEMA_VERSION:
                raise ValueError(
                    f"{self.path} has survey schema v{version}; "
                    f"this build speaks v{SCHEMA_VERSION}"
                )
        self._pending: list[tuple] = []
        self._pending_quarantine: list[tuple] = []
        self._pending_audits: list[tuple] = []

    # -- helpers --------------------------------------------------------

    def _meta(self, key: str) -> str | None:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.OperationalError:
            return None
        return row[0] if row else None

    @staticmethod
    def _entry_row(entry, record: dict | None) -> tuple:
        return (
            entry.domain,
            entry.registrar,
            entry.country,
            entry.created.isoformat() if entry.created else None,
            entry.creation_year,
            entry.privacy_service,
            entry.org,
            entry.brand,
            int(entry.blacklisted),
            json.dumps(record) if record is not None else None,
        )

    @staticmethod
    def _audit_row(audit) -> tuple:
        return (
            audit.domain,
            audit.registrar,
            audit.verdict,
            audit.compared,
            json.dumps([[d.field, d.whois, d.rdap] for d in audit.diffs]),
        )

    @staticmethod
    def _audit_from_row(row: tuple):
        from repro.consistency.audit import AuditRecord
        from repro.consistency.diff import FieldDiff

        domain, registrar, verdict, compared, diffs = row
        return AuditRecord(
            domain=domain,
            registrar=registrar,
            verdict=verdict,
            compared=compared,
            diffs=tuple(FieldDiff(*item) for item in json.loads(diffs)),
        )

    @staticmethod
    def _entry_from_row(row: tuple):
        from repro.survey.database import DomainEntry

        (domain, registrar, country, created, _year,
         privacy_service, org, brand, blacklisted) = row
        return DomainEntry(
            domain=domain,
            registrar=registrar,
            country=country,
            created=date.fromisoformat(created) if created else None,
            privacy_service=privacy_service,
            org=org,
            brand=brand,
            blacklisted=bool(blacklisted),
        )

    # -- ingest ---------------------------------------------------------

    def append(self, entry, *, record: dict | None = None) -> None:
        """Buffer one entry; commits whenever a full batch accumulates."""
        self._pending.append(self._entry_row(entry, record))
        if len(self._pending) >= BATCH_SIZE:
            self.flush()

    def append_quarantined(self, record: QuarantinedRecord) -> None:
        """Buffer one quarantined record (text, taxonomy code, and the
        full error payload survive the round trip)."""
        self._pending_quarantine.append((
            record.domain,
            record.text,
            record.reason,
            json.dumps(record.error.to_payload()),
        ))
        if len(self._pending_quarantine) >= BATCH_SIZE:
            self.flush()

    def append_audit(self, audit) -> None:
        """Buffer one consistency audit verdict; commits per batch."""
        self._pending_audits.append(self._audit_row(audit))
        if len(self._pending_audits) >= BATCH_SIZE:
            self.flush()

    def flush(self) -> None:
        """Commit every buffered row in one transaction.

        This is the crash-safety boundary: rows are either all visible
        after the commit or absent entirely, never half a batch.
        """
        if (
            not self._pending
            and not self._pending_quarantine
            and not self._pending_audits
        ):
            return
        with self._conn:  # one transaction per flush
            if self._pending:
                self._conn.executemany(
                    "INSERT INTO entries (domain, registrar, country, "
                    "created, creation_year, privacy_service, org, brand, "
                    "blacklisted, record) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    self._pending,
                )
                obs.inc("survey.store.committed_rows", len(self._pending))
                self._pending.clear()
            if self._pending_quarantine:
                self._conn.executemany(
                    "INSERT INTO quarantine (domain, text, code, error) "
                    "VALUES (?, ?, ?, ?)",
                    self._pending_quarantine,
                )
                self._pending_quarantine.clear()
            if self._pending_audits:
                self._conn.executemany(
                    "INSERT INTO audits (domain, registrar, verdict, "
                    "compared, diffs) VALUES (?, ?, ?, ?, ?)",
                    self._pending_audits,
                )
                obs.inc(
                    "survey.store.committed_audits",
                    len(self._pending_audits),
                )
                self._pending_audits.clear()
        obs.inc("survey.store.commits")

    # -- reads ----------------------------------------------------------

    _SELECT = (
        "SELECT domain, registrar, country, created, creation_year, "
        "privacy_service, org, brand, blacklisted FROM entries"
    )

    def count(self, flt: EntryFilter = MATCH_ALL) -> int:
        """``SELECT COUNT(*)`` under the filter's WHERE clause."""
        self.flush()
        where, params = flt.where()
        row = self._conn.execute(
            f"SELECT COUNT(*) FROM entries{where}", params
        ).fetchone()
        return row[0]

    def iter_entries(
        self, flt: EntryFilter = MATCH_ALL, *, by_domain: bool = False
    ) -> Iterator:
        """Stream matching entries off a cursor (never materialized)."""
        self.flush()
        where, params = flt.where()
        order = "domain, id" if by_domain else "id"
        cursor = self._conn.execute(
            f"{self._SELECT}{where} ORDER BY {order}", params
        )
        for row in cursor:
            yield self._entry_from_row(row)

    def group_counts(
        self, key: str, flt: EntryFilter = MATCH_ALL
    ) -> Counter:
        """One ``GROUP BY`` aggregate per call; ``None`` groups NULLs."""
        if key not in GROUP_KEYS:
            raise KeyError(f"cannot group entries by {key!r}")
        self.flush()
        where, params = flt.where()
        counts: Counter = Counter()
        for value, n in self._conn.execute(
            f"SELECT {key}, COUNT(*) FROM entries{where} GROUP BY {key}",
            params,
        ):
            counts[value] = n
        return counts

    def get(self, domain: str):
        """Point query against the replica: latest entry for ``domain``."""
        self.flush()
        row = self._conn.execute(
            f"{self._SELECT} WHERE domain = ? ORDER BY id DESC LIMIT 1",
            (domain,),
        ).fetchone()
        return self._entry_from_row(row) if row else None

    def get_record(self, domain: str) -> dict | None:
        """The stored parsed-record JSON for ``domain`` (latest row)."""
        self.flush()
        row = self._conn.execute(
            "SELECT record FROM entries WHERE domain = ? "
            "ORDER BY id DESC LIMIT 1",
            (domain,),
        ).fetchone()
        if row is None or row[0] is None:
            return None
        return json.loads(row[0])

    # -- quarantine -----------------------------------------------------

    def iter_quarantine(self) -> Iterator[QuarantinedRecord]:
        """Stream quarantine rows, errors revived through the taxonomy."""
        self.flush()
        cursor = self._conn.execute(
            "SELECT domain, text, error FROM quarantine ORDER BY id"
        )
        for domain, text, payload in cursor:
            yield QuarantinedRecord(
                domain=domain,
                text=text,
                error=error_from_payload(json.loads(payload)),
            )

    def quarantine_counts(self) -> dict[str, int]:
        """Quarantined rows per taxonomy code (a SQL aggregate)."""
        self.flush()
        return dict(self._conn.execute(
            "SELECT code, COUNT(*) FROM quarantine GROUP BY code"
        ))

    def n_quarantined(self) -> int:
        """Number of quarantined rows."""
        self.flush()
        return self._conn.execute(
            "SELECT COUNT(*) FROM quarantine"
        ).fetchone()[0]

    # -- audits ---------------------------------------------------------

    _SELECT_AUDIT = (
        "SELECT domain, registrar, verdict, compared, diffs FROM audits"
    )

    def iter_audits(self, *, by_domain: bool = False) -> Iterator:
        """Stream audit rows off a cursor (never materialized)."""
        self.flush()
        order = "domain, id" if by_domain else "id"
        cursor = self._conn.execute(f"{self._SELECT_AUDIT} ORDER BY {order}")
        for row in cursor:
            yield self._audit_from_row(row)

    def get_audit(self, domain: str):
        """Point query: the latest audit row for ``domain``."""
        self.flush()
        row = self._conn.execute(
            f"{self._SELECT_AUDIT} WHERE domain = ? ORDER BY id DESC LIMIT 1",
            (domain,),
        ).fetchone()
        return self._audit_from_row(row) if row else None

    def n_audits(self) -> int:
        """Number of audit rows."""
        self.flush()
        return self._conn.execute(
            "SELECT COUNT(*) FROM audits"
        ).fetchone()[0]

    def audit_registrar_counts(self) -> "dict[str | None, tuple[int, int]]":
        """Per-registrar ``(audited, disagreeing)`` as one SQL aggregate."""
        self.flush()
        return {
            registrar: (audited, bad)
            for registrar, audited, bad in self._conn.execute(
                "SELECT registrar, COUNT(*), "
                "SUM(verdict = 'disagree') FROM audits "
                "WHERE verdict != 'incomparable' GROUP BY registrar"
            )
        }

    # -- merge / lifecycle ----------------------------------------------

    def absorb(self, other: "SqliteStore") -> None:
        """Bulk-merge a file-backed replica's rows (a shard) into this one.

        Runs entirely inside sqlite (``ATTACH`` + ``INSERT .. SELECT``),
        preserving the shard's internal order.  This is the reduce step
        of sharded ingest, whose shards are always sqlite files.
        """
        other.flush()
        self.flush()
        # ATTACH/DETACH must run outside the merge transaction.
        self._conn.execute("ATTACH DATABASE ? AS shard", (str(other.path),))
        try:
            with self._conn:
                before = self._conn.execute(
                    "SELECT COUNT(*) FROM shard.entries"
                ).fetchone()[0]
                cols = ", ".join(_ENTRY_COLUMNS)
                self._conn.execute(
                    f"INSERT INTO entries ({cols}) "
                    f"SELECT {cols} FROM shard.entries ORDER BY id"
                )
                self._conn.execute(
                    "INSERT INTO quarantine (domain, text, code, error) "
                    "SELECT domain, text, code, error FROM shard.quarantine "
                    "ORDER BY id"
                )
                self._conn.execute(
                    "INSERT INTO audits (domain, registrar, verdict, "
                    "compared, diffs) "
                    "SELECT domain, registrar, verdict, compared, diffs "
                    "FROM shard.audits ORDER BY id"
                )
        finally:
            self._conn.execute("DETACH DATABASE shard")
        obs.inc("survey.store.merged_rows", before)

    def close(self) -> None:
        """Flush pending batches and close the connection."""
        if self._conn is None:
            return
        if not self._read_only:
            self.flush()
        self._conn.close()
        self._conn = None


def open_store(
    backend: str = "memory",
    path: str | Path | None = None,
    *,
    fresh: bool = False,
) -> SurveyStore:
    """Build a backend by name: ``memory``, or ``sqlite`` (needs ``path``).

    The CLI's ``--store``/``--db`` flags and ``crawl_and_survey``'s
    ``store=`` argument both funnel through here.
    """
    if backend == "memory":
        return MemoryStore()
    if backend == "sqlite":
        if path is None:
            raise ValueError("sqlite store needs a database path (--db)")
        return SqliteStore(path, fresh=fresh)
    raise ValueError(f"unknown survey store backend {backend!r}")


__all__ = [
    "GROUP_KEYS",
    "EntryFilter",
    "MATCH_ALL",
    "MemoryStore",
    "SCHEMA_VERSION",
    "SqliteStore",
    "SurveyStore",
    "open_store",
]
