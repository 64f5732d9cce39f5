"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the paper's workflow:

- ``generate``  write a labeled synthetic corpus (JSONL)
- ``train``     fit the statistical parser from a labeled corpus
- ``parse``     parse raw record text with a saved model
- ``crawl``     run the simulated com crawl and save the thick records
- ``survey``    build the Section 6 tables from crawled records
- ``audit``     cross-protocol WHOIS/RDAP consistency audit
- ``query``     look up one domain in a sqlite survey replica
- ``rdap``      serve RDAP lookups over crawled records
- ``serve``     run the online serving tier (micro-batching, port 43 + HTTP)
- ``maintain``  run the §5.3 maintenance loop over a record stream
- ``eval``      line/document error of a saved model on a labeled corpus

``generate`` and ``train`` accept ``--domain`` to work a registered
record domain other than WHOIS (see :mod:`repro.domain`); ``parse``,
``serve``, ``maintain``, and ``eval`` accept it to *pin* the expected
domain, turning a wrong-snapshot mixup into a typed error instead of a
silent mislabeling.

Third-party domains plug in via ``--plugins MODULE[,MODULE]`` (before
the subcommand) or the ``REPRO_PLUGINS`` environment variable: the named
modules are imported before the argparse tree is built, so any domains
they register appear as ``--domain`` choices exactly like the built-ins
(see ``docs/COOKBOOK.md`` for authoring one).

A hidden ``docs-cli`` subcommand regenerates ``docs/CLI.md`` from this
argparse tree (``--check`` verifies freshness in CI).

``train``, ``parse``, ``crawl``, ``survey``, and ``rdap`` accept
``--metrics-out PATH``: the command runs with a fresh ``repro.obs``
registry installed and writes every pipeline metric (timings, cache hit
rates, rate-limit trips, ...) to ``PATH`` on exit -- JSON by default,
Prometheus text for ``.prom``/``.txt`` extensions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import obs
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.domain import DEFAULT_DOMAIN, available_domains, get_domain
from repro.eval.metrics import evaluate_parser
from repro.netsim.crawler import CrawlResult, WhoisCrawler
from repro.netsim.internet import build_com_internet
from repro.parser import WhoisParser
from repro.survey.analysis import (
    top_privacy_services,
    top_registrant_countries,
    top_registrars,
)
from repro.survey.database import SurveyDatabase
from repro.survey.report import format_table
from repro.whois.io import load_corpus, save_corpus


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = get_domain(args.domain).generator(
        seed=args.seed, drift=args.drift
    )
    count = save_corpus(generator.labeled_corpus(args.count), args.output)
    print(f"wrote {count} labeled records to {args.output}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    parser = WhoisParser(
        domain=args.domain, l2=args.l2, min_count=args.min_count
    ).fit(corpus)
    parser.save(args.model)
    n_features = parser.block_crf.index.n_features
    print(f"trained on {len(corpus)} records "
          f"({n_features:,} first-level features); model saved to {args.model}")
    return 0


def _parsed_to_json(parsed) -> dict:
    return parsed.to_jsonable()


def _cmd_parse(args: argparse.Namespace) -> int:
    """Parse raw records with a saved model (JSON to stdout)."""
    parser = WhoisParser.load(
        args.model, mmap=args.mmap, expect_domain=args.domain
    )
    if args.encoder_cache:
        parser.load_encoder_cache(args.encoder_cache)
    texts = [
        Path(path).read_text() if path != "-" else sys.stdin.read()
        for path in args.inputs
    ]
    # One bulk call covers any number of input records; with a single
    # input it degenerates to the per-record pipeline's output.
    parsed_records = parser.parse_many(texts, jobs=args.jobs)
    labeled = (
        parser.label_lines_many(texts, jobs=args.jobs) if args.lines else None
    )
    if args.encoder_cache:
        parser.save_encoder_cache(args.encoder_cache)
    outputs = []
    for i, parsed in enumerate(parsed_records):
        output = _parsed_to_json(parsed)
        if labeled is not None:
            output["lines"] = [
                {"text": line, "block": block, "sub": sub}
                for line, block, sub in labeled[i]
            ]
        outputs.append(output)
    print(json.dumps(outputs[0] if len(outputs) == 1 else outputs, indent=2))
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.resilience import BreakerPolicy, RetryPolicy

    generator = CorpusGenerator(CorpusConfig(seed=args.seed))
    zone, registrations = generator.zone(args.domains)
    internet, clock, _truth = build_com_internet(
        generator, zone, registrations,
        faults=args.fault_profile, fault_seed=args.fault_seed,
    )
    registry = obs.active()
    if registry is not None:
        # Spans during the crawl measure *simulated* seconds.
        registry.clock = clock
    crawler = WhoisCrawler(
        internet,
        retry_policy=(
            RetryPolicy.from_json(args.retry_policy)
            if args.retry_policy else None
        ),
        breaker=(
            BreakerPolicy() if args.breaker == "default"
            else BreakerPolicy.from_json(args.breaker) if args.breaker
            else None
        ),
    )
    with obs.trace("crawl.zone_seconds"):
        results = crawler.crawl(zone)
    if registry is not None:
        registry.clock = None
    stats = crawler.stats
    with Path(args.output).open("w", encoding="utf-8") as handle:
        for result in results:
            row = {
                "domain": result.domain,
                "status": result.status,
                "registrar_server": result.registrar_server,
                "thin_text": result.thin_text,
                "thick_text": result.thick_text,
            }
            if result.error is not None:
                row["error"] = result.error.to_payload()
            handle.write(json.dumps(row) + "\n")
    print(f"crawled {stats.total} domains in simulated {clock.now():,.0f}s: "
          f"{stats.ok} thick ({stats.thick_coverage:.1%}), "
          f"{stats.no_match} no-match, "
          f"{stats.thin_only + stats.failed} failed "
          f"({stats.failure_rate:.1%}); saved to {args.output}")
    if stats.error_counts:
        taxonomy = ", ".join(
            f"{code}={count}"
            for code, count in sorted(stats.error_counts.items())
        )
        print(f"failures by cause: {taxonomy}")
    if stats.breaker_skips:
        print(f"circuit breaker shed {stats.breaker_skips} queries")
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    """Build the Section 6 survey tables from a crawl JSONL."""
    from repro.survey.ingest import jobs_from_results, sharded_ingest
    from repro.survey.store import open_store

    if args.store == "sqlite" and not args.db:
        print("error: --store sqlite requires --db PATH", file=sys.stderr)
        return 2
    parser = WhoisParser.load(args.model, mmap=args.mmap)
    if args.encoder_cache:
        parser.load_encoder_cache(args.encoder_cache)
    with Path(args.crawl).open("r", encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    # Crawl files written before rows carried ``thin_text`` survey
    # without the thin record's registrar hint.
    jobs = jobs_from_results(
        CrawlResult(
            row["domain"],
            thin_text=row.get("thin_text"),
            thick_text=row.get("thick_text"),
        )
        for row in rows
    )
    gate = None
    if args.quarantine:
        from repro.resilience import RecordGate

        gate = RecordGate(min_mean_confidence=args.min_confidence)
    # The survey is the paper's bulk workload: the whole crawl runs
    # through the sharded admit -> parse -> normalize -> write pipeline
    # (--shards worker processes; --shards 1 parses inline).
    store = open_store(args.store, args.db, fresh=True)
    db = sharded_ingest(
        jobs, parser, store=store, shards=args.shards, gate=gate
    )
    if args.encoder_cache:
        parser.save_encoder_cache(args.encoder_cache)
    print(f"parsed {len(db)} records")
    if args.db:
        print(f"survey replica: {args.db}")
    if db.n_quarantined:
        counts = ", ".join(f"{code}={n}" for code, n
                           in sorted(db.quarantine_counts().items()))
        print(f"quarantined {db.n_quarantined} records: {counts}")
    print()
    print(format_table(top_registrant_countries(db),
                       title="Top registrant countries (Table 3)",
                       key_header="Country"))
    print()
    print(format_table(top_registrars(db),
                       title="Top registrars (Table 5)",
                       key_header="Registrar"))
    print()
    print(format_table(top_privacy_services(db),
                       title="Top privacy services (Table 7)",
                       key_header="Protection Service"))
    db.close()
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Cross-protocol consistency audit: WHOIS parse vs RDAP object."""
    from repro.consistency import run_audit
    from repro.netsim.rdap import DisagreementKnob, DisagreementPlan, RdapFace
    from repro.survey.ingest import jobs_from_results
    from repro.survey.report import format_inconsistency_table
    from repro.survey.store import open_store

    if args.store == "sqlite" and not args.db:
        print("error: --store sqlite requires --db PATH", file=sys.stderr)
        return 2
    parser = WhoisParser.load(args.model, mmap=args.mmap)
    # The simulated internet serves both protocol faces of one
    # ground-truth zone; --disagree injects known RDAP-side
    # perturbations so recovered rates have an exact oracle.
    generator = CorpusGenerator(CorpusConfig(seed=args.seed))
    zone, registrations = generator.zone(args.domains)
    internet, clock, _truth = build_com_internet(
        generator, zone, registrations
    )
    results = WhoisCrawler(internet).crawl(zone)
    jobs = jobs_from_results(results)
    knobs = {}
    if args.disagree > 0.0:
        knob = DisagreementKnob(
            rate=args.disagree,
            fields=tuple(args.disagree_fields.split(",")),
        )
        knobs[args.disagree_registrar or "*"] = knob
    plan = DisagreementPlan(knobs, seed=args.plan_seed)
    lookup = RdapFace(registrations, plan=plan, clock=clock).lookup
    store = open_store(args.store, args.db, fresh=True)
    db, summary = run_audit(
        jobs, parser, rdap_lookup=lookup, store=store, shards=args.shards
    )
    definite = summary.agree + summary.disagree
    print(f"audited {summary.total} domains: {summary.agree} agree, "
          f"{summary.disagree} disagree "
          f"({summary.disagreement_rate:.1%} of {definite} definite), "
          f"{summary.incomparable} incomparable")
    if args.db:
        print(f"audit replica: {args.db}")
    print()
    print(format_inconsistency_table(
        summary, title="WHOIS/RDAP inconsistency by registrar",
        top=args.top,
    ))
    db.close()
    return 0


#: ``--status`` choice -> the :class:`EntryFilter` dimension it pins.
_STATUS_DIMS = {
    "private": ("private", True),
    "public": ("private", False),
    "blacklisted": ("blacklisted", True),
    "clean": ("blacklisted", False),
}


def build_query_filter(
    registrar: str | None = None, statuses: "list[str] | None" = None
):
    """Compose ``repro query`` flags into one ``EntryFilter``.

    ``statuses`` are ``--status`` choices (:data:`_STATUS_DIMS` keys);
    each pins the ``private`` or ``blacklisted`` dimension, so
    ``--status private --status clean`` composes conjunctively while
    ``--status private --status public`` is a contradiction and raises
    ``ValueError``.  Backend-agnostic: the returned filter drives
    ``MemoryStore`` and ``SqliteStore`` identically.
    """
    from repro.survey.store import EntryFilter

    dims: dict[str, bool] = {}
    for status in statuses or ():
        dim, wanted = _STATUS_DIMS[status]
        if dims.get(dim, wanted) != wanted:
            raise ValueError(f"--status {status} contradicts an earlier "
                             f"--status constraint on {dim!r}")
        dims[dim] = wanted
    return EntryFilter(registrar=registrar, **dims)


def _entry_payload(store, entry, *, full: bool) -> dict:
    """One survey entry as JSON: the full stored record, or a thin row."""
    if full:
        record = store.get_record(entry.domain)
        if record is not None:
            return record
    return {
        "domain": entry.domain,
        "registrar": entry.registrar,
        "created": entry.created.isoformat() if entry.created else None,
        "registrant": {"org": entry.org, "country": entry.country},
        "private": entry.is_private,
        "blacklisted": entry.blacklisted,
    }


def _audit_payload(store, domain: str) -> "dict | None":
    """One domain's audit verdict as JSON (None when never audited)."""
    audit = store.get_audit(domain)
    if audit is None:
        return None
    return {
        "verdict": audit.verdict,
        "compared": audit.compared,
        "diffs": [
            {"field": diff.field, "whois": diff.whois, "rdap": diff.rdap}
            for diff in audit.diffs
        ],
    }


def _print_audit(store, domain: str) -> None:
    audit = store.get_audit(domain)
    if audit is None:
        print("consistency: (not audited)")
    elif audit.verdict == "agree":
        print(f"consistency: agree ({audit.compared} fields compared)")
    elif audit.verdict == "incomparable":
        print("consistency: incomparable (no field stated by both sides)")
    else:
        print(f"consistency: DISAGREE on {', '.join(audit.diff_fields)}")
        for diff in audit.diffs:
            print(f"  {diff.field}: whois={diff.whois!r} rdap={diff.rdap!r}")


def _print_entry(entry) -> None:
    print(f"domain:     {entry.domain}")
    print(f"registrar:  {entry.registrar or '(unknown)'}")
    print(f"created:    {entry.created or '(unknown)'}")
    print(f"country:    {entry.country or '(unknown)'}")
    print(f"org:        {entry.org or '(unknown)'}")
    if entry.is_private:
        print(f"privacy:    {entry.privacy_service or '(unnamed service)'}")
    if entry.blacklisted:
        print("blacklist:  listed")


def _cmd_query(args: argparse.Namespace) -> int:
    """Point or filtered queries against a sqlite survey replica."""
    from repro.survey.store import SqliteStore

    if not Path(args.db).exists():
        print(f"error: no survey replica at {args.db}", file=sys.stderr)
        return 2
    try:
        flt = build_query_filter(args.registrar, args.status)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    full = args.full or args.json
    store = SqliteStore(args.db, read_only=True)
    try:
        if args.domain is not None:
            entry = store.get(args.domain.lower())
            if entry is None:
                print(f"{args.domain}: not in survey", file=sys.stderr)
                return 1
            if not flt.matches(entry):
                print(f"{args.domain}: in survey but excluded by the "
                      f"filter", file=sys.stderr)
                return 1
            if full:
                payload = _entry_payload(store, entry, full=True)
                if args.consistency:
                    payload["consistency"] = _audit_payload(
                        store, entry.domain
                    )
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                _print_entry(entry)
                if args.consistency:
                    _print_audit(store, entry.domain)
            return 0
        # No domain: list every entry matching the filter flags.
        entries = list(store.iter_entries(flt, by_domain=True))
        payloads = []
        for entry in entries:
            payload = _entry_payload(store, entry, full=full)
            if args.consistency:
                payload["consistency"] = _audit_payload(store, entry.domain)
            payloads.append(payload)
        if full:
            print(json.dumps(payloads, indent=2, sort_keys=True))
        else:
            for row in payloads:
                flags = "".join((
                    "P" if row["private"] else "-",
                    "B" if row["blacklisted"] else "-",
                ))
                line = (f"{row['domain']:<30} {flags} "
                        f"{row['created'] or '----------'} "
                        f"{row['registrar'] or '(unknown)'}")
                if args.consistency:
                    audit = row.get("consistency")
                    if audit is None:
                        line += "  [unaudited]"
                    elif audit["diffs"]:
                        fields = ",".join(
                            diff["field"] for diff in audit["diffs"]
                        )
                        line += f"  [disagree: {fields}]"
                    else:
                        line += f"  [{audit['verdict']}]"
                print(line)
        print(f"{len(payloads)} matching entr"
              f"{'y' if len(payloads) == 1 else 'ies'}", file=sys.stderr)
        return 0 if payloads else 1
    finally:
        store.close()


def _cmd_rdap(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.rdap.server import RdapGateway

    parser = WhoisParser.load(args.model)
    records = _load_crawl_records(args.crawl)
    gateway = RdapGateway(parser, records.get, cache_size=args.cache_size)
    status = 0
    bodies = []
    # One parse covers every domain; a failed one prints its error body.
    for domain, result in zip(
        args.domains, gateway.try_lookup_many(args.domains)
    ):
        if isinstance(result, ReproError):
            result = json.loads(gateway.error_json(domain, exc=result))
            status = 1
        bodies.append(result)
    print(json.dumps(bodies[0] if len(bodies) == 1 else bodies, indent=2))
    return status


def _load_crawl_records(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    with Path(path).open("r", encoding="utf-8") as handle:
        return {
            row["domain"].lower(): row["thick_text"]
            for row in map(json.loads, handle)
            if row.get("thick_text")
        }


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ModelRegistry, ServeApp, ServeConfig

    models = ModelRegistry(
        args.model_dir, mmap=not args.no_mmap, domain=args.domain
    )
    if not models.has_active:
        print(f"no model versions under {args.model_dir}; "
              f"run `repro train` or publish one first", file=sys.stderr)
        return 1
    records = _load_crawl_records(args.crawl)
    app = ServeApp(
        models,
        records.get,
        config=ServeConfig(
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            queue_depth=args.queue_depth,
            rate_limit=args.rate_limit,
        ),
    )

    async def serve() -> None:
        await app.start(
            host=args.host,
            http_port=args.http_port,
            whois_port=args.whois_port,
        )
        print(f"serving model {models.current_version} "
              f"({len(records)} records)")
        if app.http_port is not None:
            print(f"  http:  http://{args.host}:{app.http_port}  "
                  f"(/parse, /rdap/domain/<name>, /healthz, /metrics)")
        if app.whois_port is not None:
            print(f"  whois: {args.host}:{app.whois_port}  (RFC 3912)")
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await app.stop()
            print(f"served {app.admission.admitted} requests "
                  f"({app.admission.rejected} shed); "
                  f"{app.parse_batcher.batches + app.rdap_batcher.batches} "
                  f"batches")

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted; shut down cleanly", file=sys.stderr)
    return 0


def _cmd_maintain(args: argparse.Namespace) -> int:
    from repro.pipeline import (
        CorpusOracle,
        MaintenanceConfig,
        MaintenanceLoop,
        PendingOracle,
    )
    from repro.serve import ModelRegistry

    models = ModelRegistry(args.model_dir, domain=args.domain)
    if not models.has_active:
        print(f"no model versions under {args.model_dir}; "
              f"run `repro train` or publish one first", file=sys.stderr)
        return 1
    oracle = (
        CorpusOracle(load_corpus(args.labels)) if args.labels
        else PendingOracle()
    )
    loop = MaintenanceLoop(
        models,
        oracle,
        replay=load_corpus(args.replay) if args.replay else (),
        holdout=load_corpus(args.holdout) if args.holdout else (),
        config=MaintenanceConfig(
            min_confidence=args.min_confidence,
            min_cluster_size=args.min_cluster_size,
            replay_size=args.replay_size,
            max_regression=args.max_regression,
            activate=not args.no_activate,
        ),
    )
    with Path(args.stream).open("r", encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    report = loop.process(
        (row["domain"], row["thick_text"])
        for row in rows if row.get("thick_text")
    )
    print(f"observed {report.records_seen} records "
          f"({report.quarantined} quarantined): "
          f"{len(report.alerts)} drift alerts, "
          f"{len(report.label_requests)} labels requested")
    for event in report.events:
        line = f"  [{event.kind}] {event.family_id}: {event.detail}"
        if event.version is not None:
            line += f" ({event.version})"
        print(line)
    pending = getattr(oracle, "pending", [])
    if pending:
        print(f"{len(pending)} label request(s) pending")
    if args.requests_out:
        with Path(args.requests_out).open("w", encoding="utf-8") as handle:
            for request in report.label_requests:
                handle.write(json.dumps({
                    "family_id": request.family_id,
                    "domain": request.domain,
                    "min_confidence": request.min_confidence,
                    "text": request.text,
                }) + "\n")
        print(f"wrote {len(report.label_requests)} label requests "
              f"to {args.requests_out}")
    if report.activated_versions:
        print(f"active model is now {models.current_version}")
    return 0


def _cmd_docs_cli(args: argparse.Namespace) -> int:
    from repro.docsgen import check_cli_doc, cli_doc_path, render_cli_markdown

    if args.check:
        fresh, path = check_cli_doc(args.root)
        if not fresh:
            print(f"{path} is stale; regenerate with "
                  f"`python -m repro docs-cli`", file=sys.stderr)
            return 1
        print(f"{path} is up to date")
        return 0
    path = cli_doc_path(args.root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_cli_markdown(), encoding="utf-8")
    print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reportgen import ReportScale, generate_report

    scale = ReportScale.smoke() if args.smoke else ReportScale(seed=args.seed)
    text = generate_report(scale)
    Path(args.output).write_text(text)
    print(f"wrote reproduction report to {args.output} "
          f"({len(text.splitlines())} lines)")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    parser = WhoisParser.load(args.model, expect_domain=args.domain)
    corpus = load_corpus(args.corpus)
    evaluation = evaluate_parser(parser, corpus)
    print(f"records:        {evaluation.n_records}")
    print(f"lines:          {evaluation.n_lines}")
    print(f"line error:     {evaluation.line_error_rate:.5f}")
    print(f"document error: {evaluation.document_error_rate:.5f}")
    if args.confusion and evaluation.confusion:
        print("confusion (gold -> predicted):")
        for (gold, predicted), count in sorted(
            evaluation.confusion.items(), key=lambda item: -item[1]
        ):
            print(f"  {gold:>10} -> {predicted:<10} {count}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argparse tree (also rendered into docs/CLI.md)."""
    root = argparse.ArgumentParser(
        prog="repro",
        description="Statistical WHOIS parsing (IMC 2015 reproduction)",
    )
    root.add_argument(
        "--plugins", metavar="MODULE[,MODULE]", default=None,
        help="import domain plug-in module(s) before dispatch; their "
             "registered domains become --domain choices (must precede "
             "the subcommand; REPRO_PLUGINS works too)",
    )
    sub = root.add_subparsers(dest="command", required=True)

    def add_metrics_out(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write pipeline metrics to PATH on exit "
                 "(.json, or .prom/.txt for Prometheus text)",
        )

    def add_domain(
        command: argparse.ArgumentParser, *, expect: bool = False
    ) -> None:
        """``--domain``: select a registered record domain.

        With ``expect=True`` the flag defaults to None (accept any
        snapshot) and merely *verifies* the loaded model's domain,
        raising a typed error on mismatch.
        """
        command.add_argument(
            "--domain", choices=available_domains(),
            default=None if expect else DEFAULT_DOMAIN,
            help=("require the model snapshot to be trained for this "
                  "domain (default: accept any)" if expect
                  else "record domain (default: %(default)s)"),
        )

    generate = sub.add_parser("generate", help="write a labeled corpus")
    generate.add_argument("output", help="output JSONL path")
    generate.add_argument("--count", type=int, default=500)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--drift", type=float, default=0.0,
                          help="schema-drift probability")
    add_domain(generate)
    generate.set_defaults(func=_cmd_generate)

    train = sub.add_parser("train", help="train the statistical parser")
    train.add_argument("corpus", help="labeled JSONL corpus")
    train.add_argument("model", help="model output directory")
    train.add_argument("--l2", type=float, default=0.1)
    train.add_argument("--min-count", type=int, default=1)
    add_domain(train)
    add_metrics_out(train)
    train.set_defaults(func=_cmd_train)

    parse = sub.add_parser("parse", help="parse structured records")
    parse.add_argument("model", help="model directory")
    parse.add_argument("inputs", nargs="+", metavar="input",
                       help="record file(s), or - for stdin")
    parse.add_argument("--lines", action="store_true",
                       help="include per-line labels")
    parse.add_argument("--jobs", type=int, default=1,
                       help="parser worker processes")
    parse.add_argument("--mmap", action="store_true",
                       help="memory-map model weights read-only (one "
                            "physical copy shared across --jobs workers)")
    parse.add_argument("--encoder-cache", metavar="PATH", default=None,
                       help="warm-start the line-encoder caches from PATH "
                            "and write them back after parsing")
    add_domain(parse, expect=True)
    add_metrics_out(parse)
    parse.set_defaults(func=_cmd_parse)

    crawl = sub.add_parser("crawl", help="run the simulated com crawl")
    crawl.add_argument("output", help="output JSONL path")
    crawl.add_argument("--domains", type=int, default=2000)
    crawl.add_argument("--seed", type=int, default=0)
    crawl.add_argument(
        "--fault-profile", default=None, metavar="NAME|PATH",
        help="inject faults: a named profile (none, default_hostile, "
             "flapping, degraded_zoo) or a FaultProfile JSON file",
    )
    crawl.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the deterministic fault plan")
    crawl.add_argument(
        "--retry-policy", default=None, metavar="PATH",
        help="RetryPolicy JSON (base_delay, multiplier, max_delay, jitter)",
    )
    crawl.add_argument(
        "--breaker", default=None, metavar="PATH|default",
        help="enable per-server circuit breaking: BreakerPolicy JSON, "
             "or 'default' for the stock policy",
    )
    add_metrics_out(crawl)
    crawl.set_defaults(func=_cmd_crawl)

    survey = sub.add_parser("survey", help="survey crawled records")
    survey.add_argument("model", help="model directory")
    survey.add_argument("crawl", help="crawl JSONL from the crawl command")
    survey.add_argument("--store", choices=("memory", "sqlite"),
                        default="memory",
                        help="survey backend: in-memory rows, or a durable "
                             "sqlite replica (requires --db)")
    survey.add_argument("--db", metavar="PATH", default=None,
                        help="sqlite replica path for --store sqlite")
    survey.add_argument("--shards", type=int, default=1,
                        help="ingest worker processes; each shard gates, "
                             "parses, and writes its own replica before the "
                             "merge (1 parses inline)")
    survey.add_argument("--quarantine", action="store_true",
                        help="gate records before parsing; reject garbled/"
                             "truncated ones into the quarantine table")
    survey.add_argument("--min-confidence", type=float, default=None,
                        help="with --quarantine: also reject records whose "
                             "mean parser marginal falls below this")
    survey.add_argument("--mmap", action="store_true",
                        help="memory-map model weights read-only (one "
                             "physical copy shared across --shards workers)")
    survey.add_argument("--encoder-cache", metavar="PATH", default=None,
                        help="warm-start the line-encoder caches from PATH "
                             "and write them back after the survey")
    add_metrics_out(survey)
    survey.set_defaults(func=_cmd_survey)

    query = sub.add_parser(
        "query", help="point and filtered queries on a survey replica"
    )
    query.add_argument("domain", nargs="?", default=None,
                       help="domain to look up (omit to list every entry "
                            "matching the filter flags)")
    query.add_argument("--db", required=True, metavar="PATH",
                       help="sqlite replica written by survey --store sqlite")
    query.add_argument("--registrar", default=None, metavar="NAME",
                       help="only entries under this canonical registrar")
    query.add_argument("--status", action="append", default=None,
                       choices=sorted(_STATUS_DIMS),
                       help="only entries with this status (repeatable; "
                            "constraints compose conjunctively)")
    detail = query.add_mutually_exclusive_group()
    detail.add_argument("--thin", action="store_true",
                        help="one summary line per entry (the default)")
    detail.add_argument("--full", action="store_true",
                        help="print full parsed records as JSON")
    query.add_argument("--json", action="store_true",
                       help=argparse.SUPPRESS)  # legacy alias for --full
    query.add_argument("--consistency", action="store_true",
                       help="include the WHOIS/RDAP audit verdict (and "
                            "the differing fields) for each entry, from "
                            "the replica's audit table")
    query.set_defaults(func=_cmd_query)

    audit = sub.add_parser(
        "audit", help="cross-protocol WHOIS/RDAP consistency audit"
    )
    audit.add_argument("model", help="model directory")
    audit.add_argument("--domains", type=int, default=300,
                       help="simulated zone size")
    audit.add_argument("--seed", type=int, default=0,
                       help="corpus/zone seed")
    audit.add_argument("--disagree", type=float, default=0.0,
                       help="inject RDAP-side disagreements at this rate "
                            "(per-domain, seeded)")
    audit.add_argument("--disagree-fields", default="dates,nameservers",
                       metavar="CSV",
                       help="field groups the injection perturbs: "
                            "dates,nameservers,registrar,statuses,"
                            "registrant")
    audit.add_argument("--disagree-registrar", default=None, metavar="NAME",
                       help="only inject under this canonical registrar "
                            "(default: all registrars)")
    audit.add_argument("--plan-seed", type=int, default=0,
                       help="seed for the injection plan's domain choice")
    audit.add_argument("--store", choices=("memory", "sqlite"),
                       default="memory",
                       help="audit backend: in-memory rows, or a durable "
                            "sqlite replica (requires --db)")
    audit.add_argument("--db", metavar="PATH", default=None,
                       help="sqlite replica path for --store sqlite "
                            "(query it with `repro query --consistency`)")
    audit.add_argument("--shards", type=int, default=1,
                       help="ingest worker processes for the audit run")
    audit.add_argument("--top", type=int, default=None,
                       help="show only the N most inconsistent registrars")
    audit.add_argument("--mmap", action="store_true",
                       help="memory-map model weights read-only")
    add_metrics_out(audit)
    audit.set_defaults(func=_cmd_audit)

    rdap = sub.add_parser(
        "rdap", help="RDAP lookups over crawled records"
    )
    rdap.add_argument("model", help="model directory")
    rdap.add_argument("crawl", help="crawl JSONL from the crawl command")
    rdap.add_argument("domains", nargs="+", metavar="domain",
                      help="domain(s) to look up")
    rdap.add_argument("--cache-size", type=int, default=256,
                      help="LRU response cache entries (0 disables)")
    add_metrics_out(rdap)
    rdap.set_defaults(func=_cmd_rdap)

    serve = sub.add_parser(
        "serve", help="serve the parser and RDAP gateway online"
    )
    serve.add_argument("--model-dir", required=True,
                       help="model registry directory (versioned, or a "
                            "plain `repro train` output)")
    serve.add_argument("--crawl", default=None,
                       help="crawl JSONL backing /rdap and port-43 lookups")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--http-port", type=int, default=8043,
                       help="HTTP port (0 for ephemeral)")
    serve.add_argument("--whois-port", type=int, default=None,
                       help="also serve RFC 3912 on this port (0 ephemeral)")
    serve.add_argument("--max-batch-size", type=int, default=32,
                       help="micro-batch size cap")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="micro-batch top-up wait under load")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="admission bound on in-flight requests")
    serve.add_argument("--no-mmap", action="store_true",
                       help="load model weights into private memory "
                            "instead of memory-mapping the snapshots")
    serve.add_argument("--rate-limit", type=int, default=None,
                       help="per-client requests/second (netsim.ratelimit "
                            "semantics; unset disables)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for this many seconds, then exit "
                            "(default: until interrupted)")
    add_domain(serve, expect=True)
    serve.set_defaults(func=_cmd_serve)

    maintain = sub.add_parser(
        "maintain", help="run the maintenance loop over a record stream"
    )
    maintain.add_argument("--model-dir", required=True,
                          help="model registry directory (versioned, or a "
                               "plain `repro train` output); retrained "
                               "versions are published back here")
    maintain.add_argument("--stream", required=True,
                          help="crawl JSONL to stream through the loop")
    maintain.add_argument("--replay", default=None,
                          help="labeled JSONL of past training records "
                               "(seeds known formats, replayed on retrain)")
    maintain.add_argument("--holdout", default=None,
                          help="labeled JSONL gating rollout: candidates "
                               "that regress on it are not activated")
    maintain.add_argument("--labels", default=None,
                          help="labeled JSONL answering label requests "
                               "(omit to queue requests for a human)")
    maintain.add_argument("--requests-out", default=None, metavar="PATH",
                          help="write label requests to PATH as JSONL")
    maintain.add_argument("--min-confidence", type=float, default=0.90,
                          help="line-marginal floor; records below it are "
                               "drift candidates")
    maintain.add_argument("--min-cluster-size", type=int, default=3,
                          help="records a candidate family needs to alert")
    maintain.add_argument("--replay-size", type=int, default=50,
                          help="past records replayed during each retrain")
    maintain.add_argument("--max-regression", type=float, default=0.002,
                          help="held-out line-error increase still allowed "
                               "to activate")
    maintain.add_argument("--no-activate", action="store_true",
                          help="publish retrained versions without "
                               "activating them")
    add_domain(maintain, expect=True)
    add_metrics_out(maintain)
    maintain.set_defaults(func=_cmd_maintain)

    docs_cli = sub.add_parser("docs-cli", help=argparse.SUPPRESS)
    docs_cli.add_argument("--check", action="store_true",
                          help="verify docs/CLI.md is current (exit 1 if "
                               "stale) instead of rewriting it")
    docs_cli.add_argument("--root", default=None,
                          help="repository root (default: cwd)")
    docs_cli.set_defaults(func=_cmd_docs_cli)

    report = sub.add_parser(
        "report", help="regenerate every table/figure into one markdown file"
    )
    report.add_argument("output", help="markdown output path")
    report.add_argument("--smoke", action="store_true",
                        help="tiny scales for a fast end-to-end check")
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(func=_cmd_report)

    evaluate = sub.add_parser("eval", help="evaluate a saved model")
    evaluate.add_argument("model", help="model directory")
    evaluate.add_argument("corpus", help="labeled JSONL corpus")
    evaluate.add_argument("--confusion", action="store_true")
    add_domain(evaluate, expect=True)
    evaluate.set_defaults(func=_cmd_eval)
    return root


def _load_plugins(argv: "list[str] | None") -> list[str]:
    """Import domain plug-in modules named by ``--plugins``/``REPRO_PLUGINS``.

    Runs *before* :func:`build_arg_parser`: the ``--domain`` choices are
    computed from the registry at tree-build time, so plug-ins must have
    registered by then.  The flag is therefore pre-scanned straight from
    ``argv`` here (argparse also declares it, for ``--help`` and so the
    token is accepted).  Returns the modules imported, in order.
    """
    import importlib

    from repro import errors

    tokens = list(sys.argv[1:] if argv is None else argv)
    modules: list[str] = []
    env = os.environ.get("REPRO_PLUGINS", "")
    if env:
        modules.extend(env.split(","))
    for i, token in enumerate(tokens):
        if token == "--plugins" and i + 1 < len(tokens):
            modules.extend(tokens[i + 1].split(","))
        elif token.startswith("--plugins="):
            modules.extend(token[len("--plugins="):].split(","))
    loaded: list[str] = []
    for module in modules:
        module = module.strip()
        if not module:
            continue
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise errors.Unavailable(
                f"cannot import domain plug-in {module!r}: {exc}"
            ) from exc
        loaded.append(module)
    return loaded


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse ``argv``, run the subcommand, return its exit code.

    When the subcommand accepts ``--metrics-out``, a
    :class:`~repro.obs.MetricsRegistry` is installed around the run and
    archived to that path afterwards.
    """
    from repro import errors

    try:
        _load_plugins(argv)
    except errors.ReproError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    args = build_arg_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    try:
        if metrics_out is None:
            return args.func(args)
        registry = obs.MetricsRegistry()
        with obs.use(registry):
            status = args.func(args)
    except errors.ReproError as exc:
        # The typed taxonomy renders as one clean line, not a traceback
        # (a wrong --domain or a missing model is an operator error, not
        # a crash).
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``repro query ... | head``);
        # re-point stdout at devnull so the interpreter's shutdown flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    path = obs.write_metrics(metrics_out, registry)
    print(f"wrote metrics to {path}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
