"""``resurvey``: two crawls of one zone with churn between them.

Each round is two ``repro survey --store sqlite --encoder-cache`` runs
followed by queries: crawl 1 is ingested by a freshly loaded snapshot
into its own on-disk :class:`~repro.survey.store.SqliteStore` replica;
the line-encoder cache is saved, then reloaded with the snapshot before
crawl 2 of the churned zone (:func:`~repro.datagen.evolution.
evolve_snapshot`) is ingested into a second replica.  The round ends
with a record lookup for every domain in either replica and
:func:`~repro.survey.changes.diff_snapshots`.  No gate runs.  Crawl 1
meets a freshly loaded snapshot, so encoding its lines is about half a
round; most of crawl 2's lines hit the reloaded cache, and saving and
reloading that cache, decode, the lookups and the store share the
rest.

Operations are the per-domain churn verdicts (dropped, appeared or
kept), each checked against the registry's own zone membership.
``diff_snapshots`` reports a still-registered domain as dropped when
crawl 2 fetched only its thin record, and as appeared when crawl 1 did:
``jobs_from_results`` keeps no row for thin-only results.  Those
verdicts are failed operations.  So that they fail identically in
every run, the zone, its churn and both simulated internets are fixed
and do not depend on ``--seed``; the seed picks the fitted parser and
the sample the cache check re-parses.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import common
from harness import derive_seed, peak_rss_mib

from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.datagen.entities import EntityGenerator
from repro.datagen.evolution import DEFAULT_RATES, ChurnEvent, evolve_snapshot
from repro.datagen.registrars import REGISTRARS
from repro.datagen.zone import ZoneFile
from repro.netsim.crawler import WhoisCrawler
from repro.netsim.internet import build_com_internet
from repro.parser import WhoisParser
from repro.survey.changes import diff_snapshots
from repro.survey.database import SurveyDatabase
from repro.survey.ingest import jobs_from_results, sharded_ingest
from repro.survey.store import SqliteStore

#: The fixed zone: its size (a round takes about 2 s on two cores) and
#: the seeds of both crawls' worlds.
ZONE_DOMAINS = 600
ZONE_SEED = 20150217
CHURN_SEED = 20150701
SECOND_CRAWL_SEED = 20150702
#: Registrars a transfer moves a domain to.
TRANSFER_TARGETS = REGISTRARS[:10]
#: Crawl-2 records re-parsed by a cold snapshot for the cache check.
CACHE_SAMPLE = 50
#: Passes of record lookups over both replicas (about 3 % of a round).
QUERY_PASSES = 4
#: Stated recovery floor for transfers and privacy toggles.
MIN_RECOVERY = 0.8


def make_world():
    """Both crawls' zones and internets plus the churn ground truth.

    Deterministic and independent of ``--seed``: a fresh world per
    round replays exactly the same crawls.
    """
    first = CorpusGenerator(CorpusConfig(seed=ZONE_SEED))
    zone1, registrations = first.zone(ZONE_DOMAINS)
    internet1, _clock, _truth = build_com_internet(
        first, zone1, registrations
    )
    registered1 = set(zone1.active_domains())
    rng = random.Random(CHURN_SEED)
    evolved, events = evolve_snapshot(
        {d: registrations[d] for d in zone1.active_domains()},
        rng, EntityGenerator(rng),
        rates=DEFAULT_RATES, transfer_targets=TRANSFER_TARGETS,
    )
    zone2 = ZoneFile(tld="com", domains=list(evolved))
    second = CorpusGenerator(CorpusConfig(seed=SECOND_CRAWL_SEED))
    internet2, _clock, _truth = build_com_internet(second, zone2, evolved)
    return {
        "zone1": zone1,
        "zone2": zone2,
        "internet1": internet1,
        "internet2": internet2,
        "registered1": registered1,
        "registered2": set(evolved),
        "events": events,
    }


def open_replicas(workdir: Path) -> tuple:
    """Two fresh on-disk replicas, one per crawl."""
    return (
        SqliteStore(workdir / "crawl1.db", fresh=True),
        SqliteStore(workdir / "crawl2.db", fresh=True),
    )


def close_replicas(stores: tuple) -> None:
    """Close both replicas (an earlier set-up's)."""
    for store in stores:
        store.close()


def replica_bytes(store: SqliteStore) -> int:
    """Bytes of a closed replica's files, write-ahead log included."""
    return sum(
        Path(store.path + suffix).stat().st_size
        for suffix in ("", "-wal", "-shm")
        if Path(store.path + suffix).exists()
    )


def resurvey_round(parser, stores, world, model_dir, workdir, tracer, trace):
    """One timed round; returns what the checks need."""
    store1, store2 = stores
    cache_path = workdir / "encoder_cache.json"
    crawl1 = WhoisCrawler(world["internet1"])
    with tracer.span("netsim.crawl"):
        results1 = crawl1.crawl(world["zone1"])
    run_parser, _ = common.instrument(parser, None, tracer, trace)
    jobs1 = jobs_from_results(results1)
    with tracer.span("survey.ingest"):
        db1 = sharded_ingest(jobs1, run_parser, store=store1, shards=1)
    with tracer.span("parser.cache_save"):
        parser.save_encoder_cache(cache_path)
    with tracer.span("parser.cache_load"):
        warm = WhoisParser.load(model_dir, mmap=True)
        warm.load_encoder_cache(cache_path)
    crawl2 = WhoisCrawler(world["internet2"])
    with tracer.span("netsim.crawl"):
        results2 = crawl2.crawl(world["zone2"])
    run_warm, _ = common.instrument(warm, None, tracer, trace)
    jobs2 = jobs_from_results(results2)
    with tracer.span("survey.ingest"):
        db2 = sharded_ingest(jobs2, run_warm, store=store2, shards=1)
    with tracer.span("survey.close"):
        db1.close()
        db2.close()
    stored_bytes = replica_bytes(store1) + replica_bytes(store2)
    # Queries and the churn diff read the closed replicas afresh, as
    # ``repro query`` and a later analysis would.
    with tracer.span("survey.reopen"):
        db1 = SurveyDatabase(SqliteStore(store1.path, read_only=True))
        db2 = SurveyDatabase(SqliteStore(store2.path, read_only=True))
    domains = sorted(
        {r.domain for r in results1 if r.thick_text is not None}
        | {r.domain for r in results2 if r.thick_text is not None}
    )
    keys = [(db, d) for d in domains for db in (db1, db2)]
    with tracer.span("survey.query"):
        answers, lookup_seconds = common.point_queries(
            keys, lambda key: key[0].store.get_record(key[1]), QUERY_PASSES
        )
    records1, records2 = (
        {d: r for (db, d), r in answers.items() if db is side and r}
        for side in (db1, db2)
    )
    with tracer.span("survey.churn"):
        report = diff_snapshots(
            db1, db2,
            first_expiries={d: r["expires"] for d, r in records1.items()},
            second_expiries={d: r["expires"] for d, r in records2.items()},
        )
    return {
        "results1": results1,
        "results2": results2,
        "surveyed": len(jobs1) + len(jobs2),
        "dbs": (db1, db2),
        "stored_bytes": stored_bytes,
        "records1": records1,
        "records2": records2,
        "report": report,
        "lookup_seconds": lookup_seconds,
        "queries_sent": crawl1.stats.queries_sent + crawl2.stats.queries_sent,
        "cache_bytes": cache_path.stat().st_size,
    }


def check_round(outcome, world, done, model_dir, rng) -> None:
    """Check one round against zone membership and the churn events;
    spoiled verdicts are failed operations."""
    report = done["report"]
    db1, db2 = done["dbs"]
    rows1 = {entry.domain for entry in db1}
    rows2 = {entry.domain for entry in db2}
    thick1 = {r.domain for r in done["results1"] if r.thick_text is not None}
    thick2 = {r.domain for r in done["results2"] if r.thick_text is not None}
    thin_only1 = {r.domain for r in done["results1"] if r.status == "thin_only"}
    thin_only2 = {r.domain for r in done["results2"] if r.status == "thin_only"}
    registered1, registered2 = world["registered1"], world["registered2"]
    dropped, appeared = set(report.dropped), set(report.appeared)
    kept = rows1 & rows2

    wrong = [d for d in dropped if d in registered2]
    wrong += [d for d in appeared if d in registered1]
    wrong += [d for d in kept if d not in registered1 or d not in registered2]
    outcome.attempted += len(dropped) + len(appeared) + len(kept)
    outcome.failed += len(wrong)
    explained = all(
        (d in dropped and d in thin_only2) or (d in appeared and d in thin_only1)
        for d in wrong
    )
    outcome.check(
        "every failed verdict is a thin-only domain (the named fault)",
        explained,
        f"{len(wrong)} spoiled of {len(dropped)} dropped + "
        f"{len(appeared)} appeared",
    )
    outcome.check(
        "each replica holds exactly its crawl's thick records",
        rows1 == thick1 and rows2 == thick2
        and len(db1) + len(db2) == len(rows1) + len(rows2)
        and len(done["records1"]) == len(rows1)
        and len(done["records2"]) == len(rows2),
        f"{len(rows1)}/{len(thick1)} and {len(rows2)}/{len(thick2)}",
    )
    events = world["events"]
    injected_drops = {
        d for d in rows1 if events.get(d) is ChurnEvent.DROPPED
    }
    outcome.check(
        "every injected drop of a crawl-1 row is reported",
        injected_drops <= dropped,
        f"{len(injected_drops & dropped)}/{len(injected_drops)}",
    )
    transfers = {d for d in kept if events.get(d) is ChurnEvent.TRANSFERRED}
    found = transfers & {c.domain for c in report.transferred}
    outcome.check(
        f"transfers recovered at >= {MIN_RECOVERY:.0%}",
        len(found) >= MIN_RECOVERY * len(transfers),
        f"{len(found)}/{len(transfers)}",
    )
    added = {d for d in kept if events.get(d) is ChurnEvent.PRIVACY_ADDED}
    removed = {d for d in kept if events.get(d) is ChurnEvent.PRIVACY_REMOVED}
    toggled = (added & set(report.privacy_added)) | (
        removed & set(report.privacy_removed)
    )
    outcome.check(
        f"privacy toggles recovered at >= {MIN_RECOVERY:.0%}",
        len(toggled) >= MIN_RECOVERY * len(added | removed),
        f"{len(toggled)}/{len(added | removed)}",
    )
    texts = {r.domain: r.thick_text for r in done["results2"]}
    sample = rng.sample(sorted(rows2), min(CACHE_SAMPLE, len(rows2)))
    cold = WhoisParser.load(model_dir, mmap=True)
    fresh = cold.parse_many([texts[d] for d in sample])
    same = sum(
        _canonical(parsed.to_jsonable()) == _canonical(done["records2"][d])
        for d, parsed in zip(sample, fresh)
    )
    outcome.check(
        "crawl-2 parses with the reloaded cache equal a cold snapshot's",
        same == len(sample),
        f"{same}/{len(sample)}",
    )


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def run(seed: int, seconds: float, trace: bool, workdir) -> common.Outcome:
    """Set up, re-survey the fixed zone for ``seconds``, check, report."""
    outcome = common.Outcome()
    tracer = common.new_tracer(trace)
    corpus = common.fit_corpus(seed)
    world = make_world()
    model_dir = workdir / "model"
    rng = random.Random(derive_seed(seed, "resurvey-sample"))
    registry = common.new_registry(trace)
    rounds = common.Rounds()
    totals = {"rows": 0, "stored_bytes": 0, "queries_sent": 0,
              "cache_bytes": 0, "peak": 0.0}

    def measure(index, parser, stores):
        nonlocal world
        first = True
        while rounds.another(common.segment_end(seconds, index)):
            if rounds.walls:
                world = make_world()
            start = time.perf_counter()
            with common.observing(registry), tracer.span("resurvey.round"):
                if not first:
                    with tracer.span("parser.snapshot_load"):
                        parser = WhoisParser.load(model_dir, mmap=True)
                    with tracer.span("survey.store_open"):
                        stores = open_replicas(workdir)
                done = resurvey_round(
                    parser, stores, world, model_dir, workdir, tracer, trace
                )
            rounds.add(done["surveyed"], time.perf_counter() - start,
                       done["lookup_seconds"])
            totals["peak"] = peak_rss_mib()
            totals["rows"] += sum(len(db) for db in done["dbs"])
            totals["stored_bytes"] += done["stored_bytes"]
            totals["cache_bytes"] = done["cache_bytes"]
            totals["queries_sent"] += done["queries_sent"]
            check_round(outcome, world, done, model_dir, rng)
            for db in done["dbs"]:
                db.close()
            first = False

    setup = common.interleaved_setups(
        corpus, model_dir, open_fn=lambda _parser: open_replicas(workdir),
        close_fn=close_replicas, measure=measure,
    )
    wall, records = rounds.wall, sum(rounds.records)
    bytes_per_row = totals["stored_bytes"] / totals["rows"]
    outcome.metrics = rounds.metrics(setup["setup_s"], totals["peak"])
    outcome.report.append(
        f"resurvey: {len(rounds.walls)} round(s) of two crawls of "
        f"{ZONE_DOMAINS} zone domains, {records} thick records in "
        f"{wall:.3f} s; {bytes_per_row:.0f} B per stored row"
    )
    outcome.report.append(f"rounds: {rounds.describe()}")
    if trace:
        common.trace_rounds(
            outcome, tracer, registry, setup, rounds,
            "resurvey.round",
            ("netsim.crawl", "parser.parse", "parser.cache_save",
             "parser.cache_load", "survey.query", "survey.churn"),
        )
        outcome.layers["netsim.queries_per_record"] = (
            totals["queries_sent"] / records, "queries/rec"
        )
        outcome.layers["parser.cache_mb"] = (
            totals["cache_bytes"] / 1e6, "MB"
        )
        outcome.layers["survey.store_bytes_per_record"] = (
            bytes_per_row, "B"
        )
    return outcome
