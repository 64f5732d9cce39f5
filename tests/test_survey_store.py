"""Backend-equivalence and durability tests for the survey store layer.

The contract under test: every Section 6 table, the churn diff, and the
quarantine accounting are *bit-identical* between the in-memory backend
and the sqlite replica, sharded ingest is row-identical to inline
ingest, and a crash mid-ingest never exposes a partial batch.
"""

import datetime
import os
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.errors import GarbledRecord, Truncated, error_from_payload
from repro.parser import WhoisParser
from repro.parser.fields import ParsedRecord
from repro.survey.analysis import (
    brand_companies,
    country_proportions_by_year,
    creation_histogram,
    dbl_countries,
    dbl_registrars,
    privacy_by_registrar,
    privacy_rate,
    registrar_country_mix,
    top_privacy_services,
    top_registrant_countries,
    top_registrars,
)
from repro.survey.changes import diff_snapshots
from repro.survey.database import DomainEntry, SurveyDatabase
from repro.survey import store as store_module
from repro.survey.ingest import IngestJob, sharded_ingest
from repro.survey.store import (
    EntryFilter,
    MemoryStore,
    SqliteStore,
    open_store,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _parsed(country="United States", name="John Smith", org="BlueTech LLC",
            created=datetime.date(2014, 3, 5), registrar="GoDaddy.com, LLC"):
    record = ParsedRecord()
    record.registrar = registrar
    record.created = created
    record.registrant = {"name": name, "org": org, "country": country}
    return record


def _populate(db: SurveyDatabase, *, seed: int = 900, n: int = 400) -> None:
    """Fill a survey from generator registrations (mixed years, countries,
    privacy, blacklist) -- the same rows regardless of backend."""
    gen = CorpusGenerator(CorpusConfig(seed=seed))
    for i, registration in enumerate(gen.registrations(n)):
        record = ParsedRecord()
        record.registrar = registration.registrar_name
        record.created = registration.created
        privacy = registration.privacy_service
        record.registrant = {
            "name": "Registration Private" if privacy
            else registration.registrant.name,
            "org": privacy or registration.registrant.org,
            "country": registration.registrant.country_display,
        }
        db.add_parsed(registration.domain, record, blacklisted=(i % 17 == 0))
    db.flush()


def _both_backends(tmp_path, *, seed=900, n=400):
    memory = SurveyDatabase(MemoryStore())
    replica = SurveyDatabase(SqliteStore(tmp_path / "survey.db", fresh=True))
    _populate(memory, seed=seed, n=n)
    with pytest.MonkeyPatch.context() as patch:
        # The replica commits in several batches, as a large ingest does.
        patch.setattr(store_module, "BATCH_SIZE", 64)
        _populate(replica, seed=seed, n=n)
    return memory, replica


def _rows(table):
    return [(row.key, row.count, row.share) for row in table]


# ----------------------------------------------------------------------
# Backend equivalence: Section 6 tables
# ----------------------------------------------------------------------


def test_section6_tables_bit_identical_across_backends(tmp_path):
    memory, replica = _both_backends(tmp_path)
    assert len(memory) == len(replica)
    assert _rows(top_registrant_countries(memory)) == \
        _rows(top_registrant_countries(replica))
    assert _rows(top_registrars(memory)) == _rows(top_registrars(replica))
    assert _rows(top_privacy_services(memory)) == \
        _rows(top_privacy_services(replica))
    assert _rows(privacy_by_registrar(memory)) == \
        _rows(privacy_by_registrar(replica))
    assert _rows(brand_companies(memory)) == _rows(brand_companies(replica))
    assert _rows(dbl_countries(memory)) == _rows(dbl_countries(replica))
    assert _rows(dbl_registrars(memory)) == _rows(dbl_registrars(replica))
    assert privacy_rate(memory) == privacy_rate(replica)
    assert creation_histogram(memory) == creation_histogram(replica)
    assert country_proportions_by_year(memory) == \
        country_proportions_by_year(replica)
    registrar = top_registrars(memory)[0].key
    assert _rows(registrar_country_mix(memory, registrar)) == \
        _rows(registrar_country_mix(replica, registrar))
    replica.close()


def test_filter_views_compose_identically(tmp_path):
    memory, replica = _both_backends(tmp_path)
    for db_a, db_b in ((memory, replica),):
        for view in (
            lambda d: d.created_in(2014),
            lambda d: d.created_through(2012),
            lambda d: d.blacklisted(),
            lambda d: d.normal(),
            lambda d: d.public(),
            lambda d: d.private(),
            lambda d: d.created_in(2014).public(),
            lambda d: d.blacklisted().created_in(2014).private(),
        ):
            assert len(view(db_a)) == len(view(db_b))
            assert [e.domain for e in view(db_a)] == \
                [e.domain for e in view(db_b)]
    replica.close()


def test_churn_diff_identical_across_backends(tmp_path):
    mem_a, sql_a = _both_backends(tmp_path, seed=900, n=250)
    mem_b = SurveyDatabase(MemoryStore())
    sql_b = SurveyDatabase(SqliteStore(tmp_path / "b.db", fresh=True))
    _populate(mem_b, seed=901, n=250)
    _populate(sql_b, seed=901, n=250)
    # Duplicate-domain rows exercise the "last write wins" semantics.
    for db in (mem_a, sql_a):
        first = next(iter(db))
        db.add_parsed(first.domain, _parsed(registrar="eNom, Inc."))
        db.flush()
    mem_report = diff_snapshots(mem_a, mem_b)
    sql_report = diff_snapshots(sql_a, sql_b)
    assert mem_report.summary() == sql_report.summary()
    assert mem_report.dropped == sql_report.dropped
    assert mem_report.appeared == sql_report.appeared
    assert mem_report.transfer_flows() == sql_report.transfer_flows()
    # Cross-backend diffs work too: memory snapshot vs sqlite replica.
    cross = diff_snapshots(mem_a, sql_b)
    assert cross.summary() == mem_report.summary()
    sql_a.close()
    sql_b.close()


def test_quarantine_identical_across_backends(tmp_path):
    memory = SurveyDatabase(MemoryStore())
    replica = SurveyDatabase(SqliteStore(tmp_path / "q.db", fresh=True))
    for db in (memory, replica):
        db.add_parsed("ok.com", _parsed())
        db.add_quarantined("bad.com", "\x00binary", GarbledRecord(
            "binary response", server="whois.x.com", domain="bad.com"))
        db.add_quarantined("cut.com", "Domain N", Truncated(
            "cut mid-stream", domain="cut.com"))
        db.flush()
    assert memory.n_quarantined == replica.n_quarantined == 2
    assert memory.quarantine_counts() == replica.quarantine_counts() == {
        "garbled_record": 1, "truncated": 1,
    }
    assert memory.quarantined_domains() == replica.quarantined_domains()
    revived = {q.domain: q for q in replica.iter_quarantine()}
    assert isinstance(revived["bad.com"].error, GarbledRecord)
    assert revived["bad.com"].error.server == "whois.x.com"
    assert revived["bad.com"].text == "\x00binary"
    assert revived["cut.com"].reason == "truncated"
    replica.close()


# ----------------------------------------------------------------------
# Durability: reopen, crash mid-ingest, schema guard
# ----------------------------------------------------------------------


def test_sqlite_replica_survives_reopen(tmp_path):
    path = tmp_path / "survive.db"
    db = SurveyDatabase(SqliteStore(path, fresh=True))
    _populate(db, n=60)
    before = _rows(top_registrars(db))
    histogram = creation_histogram(db)
    db.close()

    reopened = SurveyDatabase(SqliteStore(path))
    assert len(reopened) == 60
    assert _rows(top_registrars(reopened)) == before
    assert creation_histogram(reopened) == histogram
    reopened.close()


def test_point_query_roundtrips_parsed_record(tmp_path):
    store = SqliteStore(tmp_path / "point.db", fresh=True)
    db = SurveyDatabase(store)
    parsed = _parsed()
    db.add_parsed("exact.com", parsed)
    db.flush()
    assert db.get("exact.com").registrar == "GoDaddy"
    assert db.get("absent.com") is None
    assert store.get_record("exact.com") == parsed.to_jsonable()
    assert store.get_record("absent.com") is None
    db.close()


def test_crash_mid_ingest_exposes_no_partial_batch(tmp_path):
    """Kill an ingesting process between commits: reopening shows whole
    batches only -- committed rows survive, the buffered tail and any
    in-flight transaction vanish."""
    path = tmp_path / "crash.db"
    child = textwrap.dedent(f"""
        import datetime, os
        from repro.survey.database import DomainEntry
        from repro.survey import store as store_module
        from repro.survey.store import SqliteStore

        store_module.BATCH_SIZE = 5
        store = SqliteStore({str(path)!r}, fresh=True)
        for i in range(7):  # 5 auto-commit as one batch, 2 stay buffered
            store.append(DomainEntry(
                domain=f"d{{i}}.com", registrar="GoDaddy", country="US",
                created=datetime.date(2014, 1, 1), privacy_service=None,
                org="X", brand=None, blacklisted=False,
            ))
        # An in-flight transaction on top: must roll back on crash.
        store._conn.execute(
            "INSERT INTO entries (domain, blacklisted) VALUES ('tx.com', 0)"
        )
        os._exit(137)  # simulated kill: no flush, no commit, no close
    """)
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    result = subprocess.run([sys.executable, "-c", child], env=env)
    assert result.returncode == 137

    store = SqliteStore(path)
    assert store.count(EntryFilter()) == 5
    domains = [entry.domain for entry in store.iter_entries(EntryFilter())]
    assert domains == [f"d{i}.com" for i in range(5)]
    store.close()


def test_schema_version_guard(tmp_path):
    path = tmp_path / "old.db"
    SqliteStore(path, fresh=True).close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
    conn.commit()
    conn.close()
    with pytest.raises(ValueError, match="schema v999"):
        SqliteStore(path)


# ----------------------------------------------------------------------
# Sharded ingest
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_world():
    gen = CorpusGenerator(CorpusConfig(seed=1200))
    parser = WhoisParser(l2=0.1).fit(gen.labeled_corpus(60))
    jobs = [
        IngestJob(domain=registration.domain,
                  text=gen.render(registration).text)
        for registration in gen.registrations(90)
    ]
    return parser, jobs


def test_sharded_ingest_rows_identical_to_inline(tmp_path, tiny_world):
    parser, jobs = tiny_world
    inline = sharded_ingest(jobs, parser, shards=1)
    sharded = sharded_ingest(
        jobs, parser,
        store=SqliteStore(tmp_path / "sharded.db", fresh=True), shards=3,
    )
    assert [e for e in inline] == [e for e in sharded]
    assert _rows(top_registrars(inline)) == _rows(top_registrars(sharded))
    sharded.close()


def test_sharded_ingest_memory_destination(tiny_world):
    parser, jobs = tiny_world
    inline = sharded_ingest(jobs, parser, shards=1)
    sharded = sharded_ingest(jobs, parser, shards=3)
    assert isinstance(sharded.store, MemoryStore)
    assert list(inline) == list(sharded)


def test_sharded_ingest_quarantines_through_the_gate(tmp_path, tiny_world):
    from repro.resilience import RecordGate

    parser, jobs = tiny_world
    poisoned = list(jobs) + [
        IngestJob(domain="garbled.com", text="\x00\x01\x02"),
        IngestJob(domain="empty.com", text="   "),
    ]
    db = sharded_ingest(
        poisoned, parser,
        store=SqliteStore(tmp_path / "gated.db", fresh=True),
        shards=3, gate=RecordGate(),
    )
    assert len(db) == len(jobs)
    assert db.n_quarantined == 2
    assert set(db.quarantined_domains()) == {"garbled.com", "empty.com"}
    assert set(db.quarantine_counts()) <= {"garbled_record", "truncated"}
    db.close()


# ----------------------------------------------------------------------
# Facade: factory, filter SQL
# ----------------------------------------------------------------------


def test_open_store_factory(tmp_path):
    assert isinstance(open_store("memory"), MemoryStore)
    store = open_store("sqlite", tmp_path / "f.db", fresh=True)
    assert isinstance(store, SqliteStore)
    store.close()
    with pytest.raises(ValueError):
        open_store("sqlite")  # needs a path
    with pytest.raises(ValueError):
        open_store("csv")


def test_entry_filter_sql_matches_predicate(tmp_path):
    memory, replica = _both_backends(tmp_path, n=120)
    filters = [
        EntryFilter(),
        EntryFilter(year=2014),
        EntryFilter(through_year=2011),
        EntryFilter(blacklisted=True),
        EntryFilter(private=False),
        EntryFilter(year=2014, private=True, blacklisted=False),
    ]
    for flt in filters:
        assert memory.store.count(flt) == replica.store.count(flt)
    replica.close()


def test_error_payload_roundtrip():
    original = GarbledRecord(
        "mojibake", server="whois.enom.com", domain="x.com", attempts=3
    )
    revived = error_from_payload(original.to_payload())
    assert isinstance(revived, GarbledRecord)
    assert revived.code == "garbled_record"
    assert revived.server == "whois.enom.com"
    assert revived.attempts == 3


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_sharded_ingest_reports_its_workers_metrics(
    tmp_path, tiny_world, start_method
):
    import multiprocessing

    from repro import obs
    from repro.resilience import RecordGate

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start_method} start method here")
    parser, jobs = tiny_world
    poisoned = list(jobs) + [
        IngestJob(domain="garbled.com", text="\x00\x01\x02"),
        IngestJob(domain="empty.com", text="   "),
    ]
    survey_counters = (
        "survey.rows", "survey.private_rows",
        "survey.unknown_country_rows", "survey.quarantined_rows",
    )
    seen = {}
    for shards in (1, 2):
        registry = obs.MetricsRegistry()
        with obs.use(registry):
            db = sharded_ingest(
                poisoned, parser,
                store=SqliteStore(tmp_path / f"m{shards}.db", fresh=True),
                shards=shards, gate=RecordGate(), start_method=start_method,
            )
            db.close()
        totals = {
            name: sum(registry.counter_series(name).values())
            for name in survey_counters
        }
        # Each worker has its own line cache, so hits and misses split
        # differently across shards; the lines looked up do not.
        for level in ("block", "registrant"):
            totals[f"parse.line_cache.{level}"] = registry.counter_value(
                "parse.line_cache.hits", level=level
            ) + registry.counter_value("parse.line_cache.misses", level=level)
        seen[shards] = totals
    assert seen[1] == seen[2]
    assert seen[2]["survey.rows"] == len(jobs)
    assert seen[2]["survey.quarantined_rows"] == 2
    assert seen[2]["parse.line_cache.block"] > 0
