"""Survey ingest: the one way crawl results become survey rows.

The paper's survey parses 102M records from one thin -> thick crawl
(Sections 4.1 and 6).  Here every crawl enters the same way:
:func:`jobs_from_results` turns crawl results into :class:`IngestJob`
rows (the thick record, with the thin record's registrar as a hint),
and :func:`sharded_ingest` runs them through one body,
:func:`_ingest_inline`: gate and parse
(:func:`~repro.resilience.screen_and_parse`: one scoring pass over the
batch's structurally sound records, then one parse of the admitted
records), normalize, and write
-- the ``audioscavenger/whoisd`` shape of bulk ingest into a real
database.

With ``shards > 1`` that body runs once per shard, through the
process pool :meth:`WhoisParser.parse_many` uses too
(:func:`repro.parallel.map_chunks`):

1. the jobs are cut into ``shards`` contiguous chunks (chunk boundaries
   are deterministic, so sharded output is row-identical to
   single-process output);
2. each worker process runs the inline body over its chunk into its own
   sqlite shard -- beside a file-backed destination, under a temporary
   directory otherwise;
3. the coordinator merges the shards into the destination in shard
   order (:meth:`~repro.survey.store.SurveyStore.absorb`: ``ATTACH`` +
   ``INSERT .. SELECT`` for sqlite) and re-accounts quarantined domains
   into the crawl stats from each shard's quarantine table;
4. when the coordinator records metrics (``repro.obs``), the pool
   merges each worker's counters and histograms back, so they read as
   they would inline.

Workers never ship parsed records back through the pipe -- only shard
paths -- so the coordinator's memory stays flat no matter the record
count.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.parallel import map_chunks
from repro.resilience.quarantine import screen_and_parse
from repro.survey.database import SurveyDatabase
from repro.survey.store import MemoryStore, SqliteStore, SurveyStore

if TYPE_CHECKING:
    from repro.netsim.crawler import CrawlStats
    from repro.resilience.quarantine import RecordGate


@dataclass(frozen=True)
class IngestJob:
    """One record queued for survey ingest.

    ``rdap``, when set, carries the domain's RDAP payload: the worker
    then also diffs the parse against it (the cross-protocol audit of
    :mod:`repro.consistency`) and files the verdict in the store's
    audit table, in the same pass that ingests the entry.
    """

    domain: str
    text: str
    registrar_hint: str | None = None
    blacklisted: bool = False
    rdap: dict | None = None


def jobs_from_results(
    results: Iterable,
    *,
    blacklisted_domains: set[str] | None = None,
) -> list[IngestJob]:
    """Turn crawl results into ingest jobs (thick-carrying ones only).

    The registrar named by each thin record rides along as the hint used
    when the thick record's own registrar line is missing -- the
    two-step thin -> thick data flow of Section 4.1.
    """
    from repro.datagen.thin import extract_registrar

    blacklisted = blacklisted_domains or set()
    jobs = []
    for result in results:
        if getattr(result, "thick_text", None) is None:
            continue
        thin_text = getattr(result, "thin_text", None)
        jobs.append(IngestJob(
            domain=result.domain,
            text=result.thick_text,
            registrar_hint=extract_registrar(thin_text) if thin_text else None,
            blacklisted=result.domain in blacklisted,
        ))
    return jobs


def _ingest_shard(
    parser, jobs: list[IngestJob], *, shard_dir: str, gate
) -> str:
    """Worker body: the inline ingest of one chunk into a new sqlite
    shard under ``shard_dir``; returns the shard's path."""
    handle, shard_path = tempfile.mkstemp(suffix=".db", dir=shard_dir)
    os.close(handle)
    db = SurveyDatabase(SqliteStore(shard_path))
    try:
        _ingest_inline(jobs, parser, db, gate=gate, stats=None)
    finally:
        db.close()
    return shard_path


def _audit_for(job: IngestJob, parsed):
    """The job's consistency verdict, when it carries an RDAP payload."""
    if job.rdap is None:
        return None
    from repro.consistency.audit import audit_parsed

    return audit_parsed(job.domain, parsed, job.rdap)


def sharded_ingest(
    jobs: Sequence[IngestJob],
    parser,
    *,
    store: SurveyStore | None = None,
    shards: int = 4,
    gate: "RecordGate | None" = None,
    stats: "CrawlStats | None" = None,
    start_method: str | None = None,
) -> SurveyDatabase:
    """Ingest ``jobs`` into ``store`` across ``shards`` worker processes.

    Row-for-row identical to single-process ingest of the same jobs
    (shards are contiguous chunks, merged in shard order).  Records a
    :class:`~repro.resilience.RecordGate` rejects land in the store's
    quarantine table; ``stats``, when given, re-accounts those domains
    from ``ok`` to ``quarantined``.  Falls back to the in-process path
    for tiny inputs or ``shards <= 1``.
    """
    destination = store if store is not None else MemoryStore()
    db = SurveyDatabase(destination)
    jobs = list(jobs)
    if shards <= 1 or len(jobs) < 2 * shards:
        return _ingest_inline(jobs, parser, db, gate=gate, stats=stats)

    path = getattr(destination, "path", ":memory:")
    shard_root = None if path == ":memory:" else Path(path).parent
    with (
        obs.trace("survey.sharded_ingest_seconds", shards=str(shards)),
        tempfile.TemporaryDirectory(
            prefix=".survey-shards-", dir=shard_root
        ) as shard_dir,
    ):
        shard_paths = map_chunks(
            partial(_ingest_shard, shard_dir=shard_dir, gate=gate),
            parser,
            jobs,
            shards,
            start_method=start_method,
        )
        for shard_path in shard_paths:
            shard = SqliteStore(shard_path, read_only=True)
            try:
                destination.absorb(shard)
                if stats is not None:
                    for record in shard.iter_quarantine():
                        stats.record_quarantine(record.domain, record.error)
            finally:
                shard.close()
    db.flush()
    return db


def _ingest_inline(
    jobs: Sequence[IngestJob],
    parser,
    db: SurveyDatabase,
    *,
    gate: "RecordGate | None",
    stats: "CrawlStats | None",
) -> SurveyDatabase:
    """The one ingest body: gate, parse, normalize and write ``jobs``
    into ``db`` (run in-process for ``shards <= 1``, per shard
    otherwise)."""
    admitted, rejected = screen_and_parse(
        gate, parser, [(job.domain, job.text) for job in jobs]
    )
    for i, error in rejected:
        db.add_quarantined(jobs[i].domain, jobs[i].text, error)
        if stats is not None:
            stats.record_quarantine(jobs[i].domain, error)
    for i, parsed in admitted:
        job = jobs[i]
        db.add_parsed(
            job.domain, parsed,
            registrar_hint=job.registrar_hint,
            blacklisted=job.blacklisted,
        )
        audit = _audit_for(job, parsed)
        if audit is not None:
            db.store.append_audit(audit)
    db.flush()
    return db


__all__ = ["IngestJob", "jobs_from_results", "sharded_ingest"]
