"""``survey``: one process surveys fresh seeded zones, gated and audited.

Each round is what ``repro survey --quarantine --min-confidence`` does
to a new zone in a new process: load the snapshot (empty line cache),
crawl the zone over netsim, then :func:`repro.consistency.run_audit`
ingests every thick record through a :class:`RecordGate` into the
default in-memory store while diffing it against the zone's RDAP face,
which a seeded :class:`DisagreementPlan` perturbs.  The round ends with
the Section 6 tables and :data:`QUERY_PASSES` point queries for every
surveyed domain.

Every record is new to its round's parser, so the gate's per-record
inference and line-cache misses carry the weight.  Operations are the
fetched thick records.
"""

from __future__ import annotations

import time
from collections import Counter

import common
from harness import derive_seed, peak_rss_mib

from repro.consistency import audit as audit_module
from repro.consistency import run_audit
from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.netsim.crawler import WhoisCrawler
from repro.netsim.internet import build_com_internet
from repro.netsim.rdap import DisagreementKnob, DisagreementPlan, RdapFace
from repro.parser import WhoisParser
from repro.resilience import RecordGate
from repro.survey.analysis import (
    top_privacy_services,
    top_registrant_countries,
    top_registrars,
)
from repro.survey.ingest import jobs_from_results
from repro.survey.normalize import canonical_registrar
from repro.survey.report import format_table

#: Zone domains per round (about 90% come back as thick records); a
#: round takes about 2 s on two cores.
ZONE_DOMAINS = 300
#: Passes of point queries over a round's domains (about 3 % of a round).
QUERY_PASSES = 40
#: Every registrar's RDAP face contradicts this share of its domains.
DISAGREE_RATE = 0.10
DISAGREE_FIELDS = ("dates", "nameservers")
#: The gate's floor on mean and tail line marginals.  Clean records of a
#: 100-record fit bottom out near 0.57 on the tail, so no undamaged
#: record should fall under it.
GATE_MIN_CONFIDENCE = 0.25
#: Audit field diffs the plan's groups produce; any other field's diff
#: is a parser error, not an injected disagreement.
PLAN_DIFF_FIELDS = frozenset(
    {"created", "updated", "expires", "nameservers"}
)
#: Stated accuracy floors and tolerances of the oracle checks.  The
#: registrar floor lets at most 3 % of rows move between registrars, so
#: no Table 5 share can be off by more than 3 points.
MIN_FIELD_SHARE = 0.97
MAX_PARSER_DISAGREE_SHARE = 0.06
TOP_SHARE_TOLERANCE = 1.0 - MIN_FIELD_SHARE


def make_zone(seed: int, round_index: int):
    """A fresh zone, its registrations, the internet serving it and the
    RDAP face with the round's disagreement plan."""
    generator = CorpusGenerator(
        CorpusConfig(seed=derive_seed(seed, f"survey-zone-{round_index}"))
    )
    zone, registrations = generator.zone(ZONE_DOMAINS)
    internet, _clock, _truth = build_com_internet(
        generator, zone, registrations
    )
    plan = DisagreementPlan(
        {"*": DisagreementKnob(rate=DISAGREE_RATE, fields=DISAGREE_FIELDS)},
        seed=derive_seed(seed, f"survey-plan-{round_index}"),
    )
    face = RdapFace(registrations, plan=plan)
    return zone, registrations, internet, plan, face


def survey_round(parser, world, tracer, trace: bool):
    """One timed round; returns what the checks need."""
    zone, _registrations, internet, _plan, face = world
    crawler = WhoisCrawler(internet)
    with tracer.span("netsim.crawl"):
        results = crawler.crawl(zone)
    jobs = jobs_from_results(results)
    gate = RecordGate(min_mean_confidence=GATE_MIN_CONFIDENCE)
    run_parser, run_gate = common.instrument(parser, gate, tracer, trace)
    with tracer.span("survey.ingest"), common.traced_function(
        audit_module, "audit_parsed", tracer, "consistency.audit", trace
    ):
        db, summary = run_audit(
            jobs, run_parser, rdap_lookup=face.lookup, gate=run_gate,
            stats=crawler.stats,
        )
    with tracer.span("survey.tables"):
        tables = (
            top_registrant_countries(db),
            top_registrars(db),
            top_privacy_services(db),
        )
    with tracer.span("survey.query"):
        answers, query_seconds = common.point_queries(
            [job.domain for job in jobs], db.get, QUERY_PASSES
        )
    return {
        "results": results,
        "jobs": jobs,
        "db": db,
        "summary": summary,
        "tables": tables,
        "answers": answers,
        "query_seconds": query_seconds,
        "queries_sent": crawler.stats.queries_sent,
    }


def check_round(outcome: common.Outcome, world, done) -> None:
    """Check one round against the generator's registrations and the
    disagreement plan; failed records are failed operations."""
    _zone, registrations, _internet, plan, _face = world
    db = done["db"]
    fetched = [r.domain for r in done["results"] if r.thick_text is not None]
    rows = {entry.domain: entry for entry in db}
    quarantined = set(db.quarantined_domains())
    audits = {a.domain: a for a in db.store.iter_audits()}
    outcome.attempted += len(fetched)
    ingested = [registrations[d] for d in fetched if d in rows]
    expected = plan.expected_domains(ingested)
    injected = set().union(*expected.values()) if expected else set()

    failed = 0
    parser_noise = 0
    for domain in fetched:
        audit = audits.get(domain)
        if domain not in rows or domain in quarantined or audit is None:
            # Nothing in this zone is damaged: a record that is missing,
            # quarantined or unaudited failed.
            failed += 1
            continue
        plan_diffs = set(audit.diff_fields) & PLAN_DIFF_FIELDS
        other_diffs = set(audit.diff_fields) - PLAN_DIFF_FIELDS
        if (domain in injected) != bool(plan_diffs):
            failed += 1
        elif other_diffs:
            parser_noise += 1
    outcome.failed += failed
    outcome.check(
        "rows equal the thick records fetched",
        set(rows) | quarantined == set(fetched) and len(rows) == len(db),
        f"{len(rows)} rows, {len(fetched)} fetched",
    )
    outcome.check(
        "no undamaged record quarantined", not quarantined,
        f"{len(quarantined)} quarantined",
    )
    disagreeing = {
        d for d, a in audits.items()
        if set(a.diff_fields) & PLAN_DIFF_FIELDS
    }
    outcome.check(
        "domains disagreeing on the plan's fields equal the plan's set",
        disagreeing == injected,
        f"{len(disagreeing)} found, {len(injected)} injected",
    )
    outcome.check(
        "disagreements outside the plan's fields (parser errors) are rare",
        parser_noise <= MAX_PARSER_DISAGREE_SHARE * len(rows),
        f"{parser_noise} of {len(rows)} rows",
    )
    registrar_ok = year_ok = 0
    for domain, entry in rows.items():
        truth = registrations[domain]
        registrar_ok += entry.registrar == canonical_registrar(
            truth.registrar_name
        )
        year_ok += entry.creation_year == truth.creation_year
    outcome.check(
        f"registrar matches the registration on >= {MIN_FIELD_SHARE:.0%}",
        registrar_ok >= MIN_FIELD_SHARE * len(rows),
        f"{registrar_ok}/{len(rows)}",
    )
    outcome.check(
        f"creation year matches the registration on >= {MIN_FIELD_SHARE:.0%}",
        year_ok >= MIN_FIELD_SHARE * len(rows),
        f"{year_ok}/{len(rows)}",
    )
    truth_counts = Counter(
        canonical_registrar(registrations[d].registrar_name) for d in rows
    )
    worst = max(
        abs(row.share - truth_counts.get(row.key, 0) / len(rows))
        for row in done["tables"][1]
        if row.key != "(Other)"
    )
    outcome.check(
        f"top-registrar shares within {TOP_SHARE_TOLERANCE:.0%} of the "
        "registrations'",
        worst <= TOP_SHARE_TOLERANCE,
        f"largest gap {worst:.4f}",
    )
    answered = sum(
        1 for d, entry in done["answers"].items() if entry == rows.get(d)
    )
    outcome.check(
        "every point query returns its row",
        answered == len(done["answers"]),
        f"{answered}/{len(done['answers'])}",
    )


def run(seed: int, seconds: float, trace: bool, workdir) -> common.Outcome:
    """Set up, survey fresh zones for ``seconds``, check, report."""
    outcome = common.Outcome()
    tracer = common.new_tracer(trace)
    corpus = common.fit_corpus(seed)
    world = make_zone(seed, 0)
    model_dir = workdir / "model"
    registry = common.new_registry(trace)
    rounds = common.Rounds()
    totals = {"queries_sent": 0, "disagreements": 0, "peak": 0.0}
    last = {}

    def measure(index, parser, _opened):
        nonlocal world
        first = True
        while rounds.another(common.segment_end(seconds, index)):
            if rounds.walls:
                world = make_zone(seed, len(rounds.walls))
            start = time.perf_counter()
            with common.observing(registry), tracer.span("survey.round"):
                if not first:
                    with tracer.span("parser.snapshot_load"):
                        parser = WhoisParser.load(model_dir, mmap=True)
                done = survey_round(parser, world, tracer, trace)
            rounds.add(len(done["jobs"]), time.perf_counter() - start,
                       done["query_seconds"])
            totals["peak"] = peak_rss_mib()
            totals["queries_sent"] += done["queries_sent"]
            totals["disagreements"] += done["summary"].disagree
            check_round(outcome, world, done)
            last.update(done)
            first = False

    setup = common.interleaved_setups(
        corpus, model_dir, open_fn=lambda _parser: None,
        close_fn=lambda _opened: None, measure=measure,
    )
    wall, records = rounds.wall, sum(rounds.records)
    outcome.metrics = rounds.metrics(setup["setup_s"], totals["peak"])
    outcome.report.append(
        f"survey: {len(rounds.walls)} round(s) of {ZONE_DOMAINS} zone "
        f"domains, {records} thick records in {wall:.3f} s"
    )
    outcome.report.append(f"rounds: {rounds.describe()}")
    outcome.report.append(format_table(
        last["tables"][1], title="Top registrars (Table 5), last round",
        key_header="Registrar",
    ))
    if trace:
        common.trace_rounds(
            outcome, tracer, registry, setup, rounds,
            "survey.round",
            ("netsim.crawl", "resilience.gate", "parser.confidence",
             "parser.parse", "consistency.audit", "survey.tables",
             "survey.query"),
        )
        outcome.layers["netsim.queries_per_record"] = (
            totals["queries_sent"] / records, "queries/rec"
        )
        outcome.layers["consistency.disagreements"] = (
            totals["disagreements"], "count"
        )
    return outcome
