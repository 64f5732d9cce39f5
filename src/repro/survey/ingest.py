"""Survey ingest: the one way crawl results become survey rows.

The paper's survey parses 102M records from one thin -> thick crawl
(Sections 4.1 and 6).  Here every crawl enters the same way:
:func:`jobs_from_results` turns crawl results into :class:`IngestJob`
rows (the thick record, with the thin record's registrar as a hint),
and :func:`sharded_ingest` runs them through one body,
:func:`_ingest_inline`: gate and parse
(:func:`~repro.resilience.screen_and_parse`: one scoring pass over the
batch, then one parse of the admitted records), normalize, and write
-- the ``audioscavenger/whoisd`` shape of bulk ingest into a real
database.

With ``shards > 1`` that body runs once per shard:

1. the coordinator splits the jobs into ``shards`` contiguous chunks (a
   static work queue: chunk boundaries are deterministic, so sharded
   output is row-identical to single-process output);
2. each worker process (reusing the fork/mmap-friendly pool-initializer
   pattern of :meth:`WhoisParser.parse_many`) runs the inline body over
   its chunk into its own sqlite shard -- beside a file-backed
   destination, under a temporary directory otherwise;
3. the coordinator merges the shards into the destination in shard
   order (:meth:`~repro.survey.store.SurveyStore.absorb`: ``ATTACH`` +
   ``INSERT .. SELECT`` for sqlite) and re-accounts quarantined domains
   into the crawl stats from each shard's quarantine table;
4. when the coordinator records metrics (``repro.obs``), each worker
   records into a fresh registry and hands back a plain dump of it
   beside its shard path, and the coordinator merges the dumps: the
   counters and histograms read as they would inline.

Workers never ship parsed records back through the pipe -- only shard
paths -- so the coordinator's memory stays flat no matter the record
count.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
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


#: Per-worker parser, installed once by the pool initializer (inherited
#: copy-on-write under fork; pickled once per worker under spawn, which
#: stays small for mmap-loaded models).
_INGEST_PARSER = None


def _init_ingest_worker(parser) -> None:
    global _INGEST_PARSER
    _INGEST_PARSER = parser


def _ingest_shard(payload) -> tuple[str, dict | None]:
    """Worker body: the inline ingest of one chunk into its own sqlite
    shard.  Returns the shard's path and, when the coordinator records
    metrics (``registry_settings`` is set), a :meth:`dump
    <repro.obs.MetricsRegistry.dump>` of what this chunk recorded into
    a fresh registry."""
    jobs, shard_path, batch_size, gate, registry_settings = payload
    registry = (
        obs.MetricsRegistry(**registry_settings)
        if registry_settings is not None
        else None
    )
    with obs.use(registry):
        db = SurveyDatabase(SqliteStore(shard_path, batch_size=batch_size))
        try:
            _ingest_inline(jobs, _INGEST_PARSER, db, gate=gate, stats=None)
        finally:
            db.close()
    return shard_path, registry.dump() if registry is not None else None


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
    path = getattr(destination, "path", ":memory:")
    shard_root = None if path == ":memory:" else Path(path).parent
    bounds = [len(jobs) * i // shards for i in range(shards + 1)]
    registry = obs.active()
    registry_settings = None if registry is None else {
        "max_series": registry.max_series,
        "sample_size": registry.sample_size,
        "bounds": registry.bounds,
    }
    with (
        obs.trace("survey.sharded_ingest_seconds", shards=str(shards)),
        tempfile.TemporaryDirectory(
            prefix=".survey-shards-", dir=shard_root
        ) as shard_dir,
    ):
        payloads = [
            (jobs[bounds[i]:bounds[i + 1]],
             str(Path(shard_dir) / f"shard{i}.db"), batch_size, gate,
             registry_settings)
            for i in range(shards)
        ]
        with ctx.Pool(
            shards, initializer=_init_ingest_worker, initargs=(parser,)
        ) as pool:
            results = pool.map(_ingest_shard, payloads)
        for shard_path, metrics in results:
            if metrics is not None:
                registry.merge(metrics)
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
