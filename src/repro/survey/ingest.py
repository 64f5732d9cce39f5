"""Sharded survey ingest: fan crawl batches out to parser workers, merge
per-shard replicas into one store.

The paper's survey parses 102M records; one process's ``parse_many``
saturates one machine's cores but still funnels every normalized row
through a single writer.  This module completes the
``audioscavenger/whoisd`` shape -- bulk ingest into a real database --
by running the whole admit -> parse -> normalize -> write pipeline per
shard:

1. the coordinator splits the ingest jobs into ``shards`` contiguous
   chunks (a static work queue: chunk boundaries are deterministic, so
   sharded output is row-identical to single-process output);
2. each worker process (reusing the fork/mmap-friendly pool-initializer
   pattern of :meth:`WhoisParser.parse_many`) gates and parses its chunk
   (:func:`~repro.resilience.screen_and_parse`: one scoring pass over
   the chunk, then one parse of the admitted records), normalizes it,
   and writes a private per-shard replica --
   sqlite file or in-memory rows, matching the destination backend;
3. the coordinator merges shard replicas into the destination store in
   shard order (``ATTACH`` + ``INSERT .. SELECT`` for sqlite) and
   re-accounts quarantined domains into the crawl stats.

Workers never ship parsed records back through the pipe -- only shard
paths and small quarantine summaries -- so the coordinator's memory
stays flat no matter the record count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.errors import error_from_payload
from repro.resilience.quarantine import QuarantinedRecord, screen_and_parse
from repro.survey.database import SurveyDatabase, entry_from_parsed
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


#: Per-worker parser, installed once by the pool initializer (inherited
#: copy-on-write under fork; pickled once per worker under spawn, which
#: stays small for mmap-loaded models).
_INGEST_PARSER = None


def _init_ingest_worker(parser) -> None:
    global _INGEST_PARSER
    _INGEST_PARSER = parser


def _ingest_shard(payload):
    """Worker body: gate, parse, normalize, and store one shard.

    Returns ``(shard_db_path_or_entry_rows, n_entries, quarantine
    summaries)``; entries travel back through the pipe only for the
    in-memory backend.
    """
    jobs, shard_path, batch_size, gate = payload
    admitted, rejected = screen_and_parse(
        gate, _INGEST_PARSER, [(job.domain, job.text) for job in jobs]
    )
    quarantined = [
        (jobs[i].domain, jobs[i].text, error.to_payload())
        for i, error in rejected
    ]
    rows = [
        (
            entry_from_parsed(
                jobs[i].domain, parsed,
                registrar_hint=jobs[i].registrar_hint,
                blacklisted=jobs[i].blacklisted,
            ),
            parsed,
            _audit_for(jobs[i], parsed),
        )
        for i, parsed in admitted
    ]
    if shard_path is None:
        return (
            [(entry, audit) for entry, _, audit in rows],
            len(rows),
            quarantined,
        )
    store = SqliteStore(shard_path, batch_size=batch_size, fresh=True)
    try:
        for entry, parsed, audit in rows:
            store.append(entry, record=parsed.to_jsonable())
            if audit is not None:
                store.append_audit(audit)
        for domain, text, payload_dict in quarantined:
            store.append_quarantined(QuarantinedRecord(
                domain=domain, text=text,
                error=error_from_payload(payload_dict),
            ))
    finally:
        store.close()
    return shard_path, len(rows), quarantined


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
    batch_size: int = 2000,
) -> SurveyDatabase:
    """Ingest ``jobs`` into ``store`` across ``shards`` worker processes.

    Row-for-row identical to single-process ingest of the same jobs
    (shards are contiguous chunks, merged in shard order).  Records a
    :class:`~repro.resilience.RecordGate` rejects land in the store's
    quarantine table; ``stats``, when given, re-accounts those domains
    from ``ok`` to ``quarantined``.  Falls back to the in-process path
    for tiny inputs or ``shards <= 1``.
    """
    import multiprocessing as mp

    destination = store if store is not None else MemoryStore()
    db = SurveyDatabase(destination)
    jobs = list(jobs)
    if shards <= 1 or len(jobs) < 2 * shards:
        return _ingest_inline(jobs, parser, db, gate=gate, stats=stats)

    method = start_method
    if method is None:
        method = "fork" if "fork" in mp.get_all_start_methods() else None
    ctx = mp.get_context(method)
    sqlite_dest = (
        isinstance(destination, SqliteStore)
        and destination.path != ":memory:"
    )
    shard_dir = Path(destination.path).parent if sqlite_dest else None
    bounds = [len(jobs) * i // shards for i in range(shards + 1)]
    payloads = []
    for i in range(shards):
        shard_path = (
            str(shard_dir / f".{Path(destination.path).name}.shard{i}")
            if sqlite_dest else None
        )
        payloads.append(
            (jobs[bounds[i]:bounds[i + 1]], shard_path, batch_size, gate)
        )
    with obs.trace("survey.sharded_ingest_seconds", shards=str(shards)):
        with ctx.Pool(
            shards, initializer=_init_ingest_worker, initargs=(parser,)
        ) as pool:
            parts = pool.map(_ingest_shard, payloads)
        for result, n_rows, quarantined in parts:
            if sqlite_dest:
                destination.merge_file(result)
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.unlink(result + suffix)
                    except FileNotFoundError:
                        pass
            else:
                for entry, audit in result:
                    destination.append(entry)
                    if audit is not None:
                        destination.append_audit(audit)
                for domain, text, payload_dict in quarantined:
                    db.add_quarantined(
                        domain, text, error_from_payload(payload_dict)
                    )
            obs.inc("survey.sharded_rows", n_rows)
            if stats is not None:
                for domain, _text, payload_dict in quarantined:
                    stats.record_quarantine(
                        domain, error_from_payload(payload_dict)
                    )
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
    """The shards=1 path: same pipeline, no worker processes."""
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
