"""The cross-protocol consistency engine.

Field-level diff policy (date spellings, nameserver casing/ordering,
status vocabularies, privacy-redacted contacts), the seeded
disagreement injection plan and its oracle, audit-table equivalence
across store backends and shard counts, the registrar-disagreement
drift signal, and the drift detector's new memory bounds.
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.cli import build_query_filter, main as cli_main
from repro.consistency import (
    AuditRecord,
    ComparableRecord,
    attach_rdap,
    audit_parsed,
    comparable_from_parsed,
    comparable_from_rdap,
    diff_records,
    run_audit,
)
from repro.consistency.diff import FieldDiff
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.netsim.rdap import DisagreementKnob, DisagreementPlan, RdapFace
from repro.parser.fields import ParsedRecord, assemble_record, parse_whois_date
from repro.pipeline import drift
from repro.pipeline.drift import DriftDetector, RegistrarDisagreementSignal
from repro.rdap.convert import rdap_from_json, registration_to_rdap
from repro.rdap.schema import RdapDomain, RdapEntity
from repro.survey.ingest import IngestJob
from repro.survey.store import MemoryStore, SqliteStore


def _record(**overrides) -> ComparableRecord:
    base = dict(
        domain="example.com",
        registrar="GoDaddy",
        created=date(2010, 1, 2),
        updated=date(2015, 3, 4),
        expires=date(2020, 5, 6),
        statuses=frozenset({"clienttransferprohibited"}),
        nameservers=frozenset({"ns1.example.net", "ns2.example.net"}),
        registrant_name="jane roe",
        registrant_org="roe industries",
        registrant_country="US",
        registrant_email="jane@example.com",
        private=False,
    )
    base.update(overrides)
    return ComparableRecord(**base)


# ----------------------------------------------------------------------
# Diff policy: field-level cases
# ----------------------------------------------------------------------


def test_identical_records_agree_on_every_field():
    outcome = diff_records(_record(), _record())
    assert outcome.verdict == "agree"
    assert outcome.diffs == ()
    assert outcome.compared == 11
    assert outcome.consistent is True


def test_date_format_spellings_parse_to_one_date():
    # Three registrar spellings of the same day are the same date after
    # WHOIS date parsing, so cross-protocol comparison can't see them.
    spellings = ["15-jan-1999", "1999-01-15", "1999/01/15"]
    parsed_dates = {parse_whois_date(s) for s in spellings}
    assert parsed_dates == {date(1999, 1, 15)}
    whois = _record(created=date(1999, 1, 15))
    rdap = _record(created=date(1999, 1, 15))
    assert diff_records(whois, rdap).verdict == "agree"


def test_shifted_date_disagrees():
    outcome = diff_records(
        _record(created=date(1999, 1, 15)),
        _record(created=date(1999, 1, 26)),
    )
    assert outcome.verdict == "disagree"
    assert [d.field for d in outcome.diffs] == ["created"]
    assert outcome.consistent is False


def test_missing_side_is_skipped_not_flagged():
    outcome = diff_records(_record(created=None), _record())
    assert outcome.verdict == "agree"
    # the skipped field is not in the compared count
    assert outcome.compared == 10


def test_nameserver_casing_and_ordering_agree():
    parsed = ParsedRecord(
        domain="example.com",
        name_servers=["NS2.EXAMPLE.NET.", "NS1.Example.Net"],
    )
    whois = comparable_from_parsed("example.com", parsed)
    rdap = comparable_from_rdap(RdapDomain(
        ldh_name="example.com",
        nameservers=["ns1.example.net", "ns2.example.net"],
    ))
    outcome = diff_records(whois, rdap)
    assert outcome.verdict == "agree"


def test_whois_nameserver_subset_tolerated_superset_not():
    two = frozenset({"ns1.example.net", "ns2.example.net"})
    three = two | {"ns3.example.net"}
    # WHOIS templates truncate lists; fewer on the WHOIS side is fine.
    assert diff_records(
        _record(nameservers=two), _record(nameservers=three)
    ).verdict == "agree"
    # Extra servers only WHOIS knows about are a real disagreement.
    outcome = diff_records(
        _record(nameservers=three), _record(nameservers=two)
    )
    assert outcome.verdict == "disagree"
    assert outcome.diffs[0].field == "nameservers"


def test_status_vocabularies_collapse():
    # EPP camelCase (WHOIS) vs RFC 8056 space-separated (RDAP).
    parsed = ParsedRecord(
        domain="example.com",
        statuses=["clientTransferProhibited "
                  "https://icann.org/epp#clientTransferProhibited"],
    )
    whois = comparable_from_parsed("example.com", parsed)
    rdap = comparable_from_rdap(RdapDomain(
        ldh_name="example.com",
        statuses=["client transfer prohibited"],
    ))
    assert diff_records(whois, rdap).verdict == "agree"


def test_liveness_statuses_drop_out():
    # Several families print "Active"/"ok" unconditionally; with only
    # liveness tokens on the WHOIS side the status sets are skipped.
    parsed = ParsedRecord(domain="example.com", statuses=["Active"])
    whois = comparable_from_parsed("example.com", parsed)
    assert whois.statuses == frozenset()
    rdap = comparable_from_rdap(RdapDomain(
        ldh_name="example.com", statuses=["clientTransferProhibited"],
    ))
    assert diff_records(whois, rdap).verdict == "agree"


def test_first_status_only_rendering_tolerated():
    # Most families render only statuses[0]; a WHOIS proper subset of
    # the RDAP status set must not read as disagreement...
    one = frozenset({"clienttransferprohibited"})
    both = one | {"clientdeleteprohibited"}
    assert diff_records(
        _record(statuses=one), _record(statuses=both)
    ).verdict == "agree"
    # ...but disjoint vocabularies are the injected-perturbation shape.
    outcome = diff_records(
        _record(statuses=one),
        _record(statuses=frozenset({"serverhold", "pendingdelete"})),
    )
    assert outcome.verdict == "disagree"


def test_privacy_redacted_contacts_excluded_from_comparison():
    whois = _record(
        registrant_name="domains by proxy, llc",
        registrant_org="domains by proxy, llc",
        registrant_email="proxy@domainsbyproxy.com",
        private=True,
    )
    rdap = _record()  # the real registrant
    outcome = diff_records(whois, rdap)
    assert outcome.verdict == "agree"
    assert not any(d.field.startswith("registrant") for d in outcome.diffs)


def test_contact_decorations_are_canonicalized_away():
    # enom prints "Name (email)"; some families drop the corporate
    # suffix period; the odd family labels the email line "contact".
    parsed = ParsedRecord(
        domain="example.com",
        registrant={
            "name": "Michael Walker (michael.walker@orange.fr)",
            "org": "Northnet K.K",
            "email": "contact michael.walker@orange.fr",
        },
    )
    whois = comparable_from_parsed("example.com", parsed)
    assert whois.registrant_name == "michael walker"
    assert whois.registrant_org == "northnet k.k"
    assert whois.registrant_email == "michael.walker@orange.fr"
    rdap = comparable_from_rdap(RdapDomain(
        ldh_name="example.com",
        entities=[RdapEntity(
            role="registrant", full_name="Michael Walker",
            organization="Northnet K.K.",
            email="michael.walker@orange.fr",
        )],
    ))
    assert diff_records(whois, rdap).verdict == "agree"


def test_registrar_display_decoration_agrees():
    whois = _record(registrar="GoDaddy.com, LLC")
    rdap = _record(registrar="GoDaddy")
    assert diff_records(whois, rdap).verdict == "agree"


def test_incomparable_when_no_field_is_stated_by_both():
    whois = ComparableRecord(domain="a.com", created=date(2000, 1, 1))
    rdap = ComparableRecord(domain=None, expires=date(2001, 1, 1))
    outcome = diff_records(whois, rdap)
    assert outcome.verdict == "incomparable"
    assert outcome.compared == 0
    assert outcome.consistent is None


def test_audit_parsed_attributes_registrar_from_rdap():
    parsed = ParsedRecord(domain="example.com", registrar="Wrong Name")
    payload = RdapDomain(
        ldh_name="example.com",
        nameservers=["ns1.example.net"],
        entities=[RdapEntity(role="registrar", full_name="GoDaddy.com, LLC")],
    ).to_json()
    audit = audit_parsed("example.com", parsed, payload)
    assert isinstance(audit, AuditRecord)
    assert audit.registrar == "GoDaddy"
    assert audit.verdict == "disagree"
    assert audit.diff_fields == ("registrar",)


# ----------------------------------------------------------------------
# The injection plan and its oracle
# ----------------------------------------------------------------------


def test_knob_rejects_unknown_field_group():
    with pytest.raises(ValueError):
        DisagreementKnob(rate=0.5, fields=("dates", "nonsense"))


@pytest.fixture(scope="module")
def small_zone():
    generator = CorpusGenerator(CorpusConfig(seed=31))
    zone, registrations = generator.zone(80)
    return generator, zone, registrations


def test_plan_is_deterministic_and_matches_oracle(small_zone):
    _generator, _zone, registrations = small_zone
    plan = DisagreementPlan(
        {"*": DisagreementKnob(rate=0.4, fields=("dates",))}, seed=9
    )
    first = {d: plan.fields_for(r) for d, r in registrations.items()}
    second = {d: plan.fields_for(r) for d, r in registrations.items()}
    assert first == second
    expected = plan.expected_domains(registrations.values())
    injected = {d for d, fields in first.items() if fields}
    assert injected == set().union(*expected.values()) if expected else not injected
    assert 0 < len(injected) < len(registrations)


def test_rdap_face_serves_valid_payloads_and_404s(small_zone):
    _generator, _zone, registrations = small_zone
    plan = DisagreementPlan(
        {"*": DisagreementKnob(
            rate=1.0,
            fields=("dates", "nameservers", "registrar", "statuses",
                    "registrant"),
        )},
        seed=2,
    )
    face = RdapFace(registrations, plan=plan)
    assert face.lookup("not-in-zone.com") is None
    domain, registration = next(iter(registrations.items()))
    payload = face.lookup(domain)
    # Perturbed payloads still parse as structurally valid RDAP.
    obj = rdap_from_json(payload)
    assert obj.ldh_name == registration.domain
    assert obj.nameservers and "rdap-disagrees" in obj.nameservers[0]
    clean = comparable_from_rdap(registration_to_rdap(registration))
    poisoned = comparable_from_rdap(payload)
    assert poisoned.created != clean.created
    assert poisoned.registrar != clean.registrar
    assert poisoned.registrant_name != clean.registrant_name


# ----------------------------------------------------------------------
# The auditor at survey scale: backends, shards, the oracle
# ----------------------------------------------------------------------


class GoldParser:
    """A parse_many stand-in that returns the gold assembly per text.

    Audit-machinery tests must not depend on CRF accuracy: with gold
    parses, any measured disagreement is the injection plan's doing and
    nothing else.
    """

    def __init__(self, records):
        self._by_text = {}
        for record in records:
            lines = [line.text for line in record.lines]
            blocks = [line.block for line in record.lines]
            subs = [
                line.sub or "other"
                for line in record.lines
                if line.block == "registrant"
            ]
            self._by_text[record.text] = assemble_record(
                lines, blocks, subs
            )

    def parse_many(self, texts):
        return [self._by_text[text] for text in texts]


@pytest.fixture(scope="module")
def audit_world(small_zone):
    generator, _zone, registrations = small_zone
    # Render once: rendering consumes the generator's RNG, so the jobs
    # and the gold parser must share the same rendered records.
    records = {
        domain: generator.render(registration)
        for domain, registration in sorted(registrations.items())
    }
    jobs = [
        IngestJob(domain=domain, text=record.text)
        for domain, record in records.items()
    ]
    plan = DisagreementPlan(
        {"*": DisagreementKnob(rate=0.3, fields=("dates", "registrant"))},
        seed=4,
    )
    parser = GoldParser(records.values())
    return registrations, jobs, plan, parser


def _audit_rows(store):
    return [
        (a.domain, a.registrar, a.verdict, a.compared, a.diffs)
        for a in store.iter_audits()
    ]


def test_measured_rates_match_injected_rates_exactly(audit_world):
    registrations, jobs, plan, parser = audit_world
    face = RdapFace(registrations, plan=plan)
    db, summary = run_audit(jobs, parser, rdap_lookup=face.lookup)
    expected = plan.expected_domains(registrations.values())
    expected_all = set().union(*expected.values())
    measured = {
        a.domain for a in db.store.iter_audits() if a.verdict == "disagree"
    }
    # Exact recovery: every injected domain found, zero false positives.
    assert measured == expected_all
    assert summary.disagree == len(expected_all)
    assert summary.agree == len(jobs) - len(expected_all)
    assert summary.incomparable == 0
    for registrar, (audited, disagreeing) in summary.registrar_counts.items():
        assert disagreeing == len(expected.get(registrar, set()))
        assert audited >= disagreeing
    db.close()


def test_audit_rows_identical_across_backends_and_shards(
    audit_world, tmp_path
):
    registrations, jobs, plan, parser = audit_world

    def run(store, shards):
        face = RdapFace(registrations, plan=plan)
        db, _summary = run_audit(
            jobs, parser, rdap_lookup=face.lookup, store=store,
            shards=shards,
        )
        rows = _audit_rows(db.store)
        counts = db.store.audit_registrar_counts()
        db.close()
        return rows, counts

    baseline_rows, baseline_counts = run(MemoryStore(), 1)
    assert baseline_rows  # the comparison below must compare something
    for i, shards in enumerate((1, 3)):
        rows, counts = run(
            SqliteStore(tmp_path / f"audit{i}.db", fresh=True), shards
        )
        assert rows == baseline_rows
        assert counts == baseline_counts
    rows, counts = run(MemoryStore(), 3)
    assert rows == baseline_rows
    assert counts == baseline_counts


def test_attach_rdap_reports_missing_payloads(audit_world):
    _registrations, jobs, _plan, _parser = audit_world
    payloads = {jobs[0].domain: {"ldhName": jobs[0].domain}}
    attached, missing = attach_rdap(jobs[:3], payloads.get)
    assert len(attached) == 3
    assert attached[0].rdap is not None
    assert attached[1].rdap is None and attached[2].rdap is None
    assert missing == [jobs[1].domain, jobs[2].domain]


def test_unaudited_jobs_ingest_without_audit_rows(audit_world):
    registrations, jobs, _plan, parser = audit_world
    store = MemoryStore()
    db, summary = run_audit(
        jobs, parser, rdap_lookup=lambda domain: None, store=store
    )
    assert len(db) == len(jobs)       # the survey side still ingested
    assert store.n_audits() == 0      # but nothing was auditable
    assert summary.total == 0
    db.close()


def test_point_audit_lookup_composes_with_entry_filter(
    audit_world, tmp_path
):
    registrations, jobs, plan, parser = audit_world
    for store in (MemoryStore(), SqliteStore(tmp_path / "q.db", fresh=True)):
        face = RdapFace(registrations, plan=plan)
        db, _ = run_audit(
            jobs, parser, rdap_lookup=face.lookup, store=store
        )
        flt = build_query_filter(registrar="GoDaddy")
        entries = list(store.iter_entries(flt, by_domain=True))
        assert entries, "expected GoDaddy entries in the fixture zone"
        verdicts = {
            e.domain: store.get_audit(e.domain).verdict for e in entries
        }
        expected = plan.expected_domains(registrations.values())
        godaddy_injected = expected.get("GoDaddy", set())
        assert {
            d for d, v in verdicts.items() if v == "disagree"
        } == godaddy_injected
        db.close()


# ----------------------------------------------------------------------
# repro query --consistency
# ----------------------------------------------------------------------


def test_cli_query_consistency(audit_world, tmp_path, capsys):
    registrations, jobs, plan, parser = audit_world
    db_path = tmp_path / "replica.db"
    face = RdapFace(registrations, plan=plan)
    db, _ = run_audit(
        jobs, parser, rdap_lookup=face.lookup,
        store=SqliteStore(db_path, fresh=True),
    )
    db.close()
    expected = plan.expected_domains(registrations.values())
    bad_domain = sorted(set().union(*expected.values()))[0]
    status = cli_main(
        ["query", "--db", str(db_path), bad_domain, "--consistency"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "DISAGREE" in out
    assert "created" in out or "registrant" in out
    # List mode: verdict markers ride each row.
    status = cli_main(["query", "--db", str(db_path), "--consistency"])
    out = capsys.readouterr().out
    assert status == 0
    assert "[disagree:" in out and "[agree]" in out


# ----------------------------------------------------------------------
# The registrar-disagreement drift signal
# ----------------------------------------------------------------------


def _audit(domain, registrar, verdict, fields=()):
    return AuditRecord(
        domain=domain,
        registrar=registrar,
        verdict=verdict,
        compared=5,
        diffs=tuple(FieldDiff(field=f, whois="a", rdap="b") for f in fields),
    )


def test_signal_alerts_on_systematic_disagreement(monkeypatch):
    monkeypatch.setattr(drift, "MAX_EXEMPLARS", 3)
    signal = RegistrarDisagreementSignal(rate_threshold=0.5, min_audits=4)
    alerts = []
    for i in range(6):
        alert = signal.observe(
            _audit(f"bad{i}.com", "BadCo", "disagree", ("created",)),
            text=f"Domain Name: bad{i}.com\nRegistrar: BadCo\n",
        )
        if alert:
            alerts.append(alert)
        # A healthy registrar interleaved: never alerts.
        assert signal.observe(
            _audit(f"good{i}.com", "GoodCo", "agree"),
            text=f"Domain Name: good{i}.com\n",
        ) is None
    assert len(alerts) == 1, "one alert per registrar, not per audit"
    alert = alerts[0]
    assert alert.family_id == "registrar-disagreement:badco"
    assert 1 <= len(alert.members) <= 3
    assert all(m.text for m in alert.members)
    assert signal.rates()["BadCo"] == 1.0
    assert signal.rates()["GoodCo"] == 0.0


def test_signal_ignores_incomparable_and_resets_on_resolve():
    signal = RegistrarDisagreementSignal(rate_threshold=0.5, min_audits=2)
    for i in range(10):
        assert signal.observe(
            _audit(f"x{i}.com", "SomeCo", "incomparable"), text="t"
        ) is None
    assert "SomeCo" not in signal.rates()
    first = None
    for i in range(3):
        first = signal.observe(
            _audit(f"y{i}.com", "SomeCo", "disagree", ("expires",)),
            text="Domain Name: y.com\n",
        ) or first
    assert first is not None
    signal.resolve(first.family_id)
    assert "SomeCo" not in signal.rates()
    # Post-retrain audits accumulate from scratch and may alert again.
    again = None
    for i in range(3):
        again = signal.observe(
            _audit(f"z{i}.com", "SomeCo", "disagree", ("expires",)),
            text="Domain Name: z.com\n",
        ) or again
    assert again is not None


def test_signal_scan_runs_a_whole_table():
    signal = RegistrarDisagreementSignal(rate_threshold=0.9, min_audits=3)
    audits = [
        _audit(f"d{i}.com", "DriftCo", "disagree", ("created",))
        for i in range(4)
    ]
    texts = {a.domain: f"Domain Name: {a.domain}\n" for a in audits}
    texts.pop("d3.com")  # missing text: skipped, not fatal
    alerts = signal.scan(audits, texts.get)
    assert len(alerts) == 1
    assert len(alerts[0].members) == 3


# ----------------------------------------------------------------------
# Drift detector memory bounds
# ----------------------------------------------------------------------


def _low(detector, domain, titles):
    text = "\n".join(f"{t}: value" for t in titles)
    return detector.observe(domain, text, [(text, "domain", 0.1)])


def test_detector_evicts_idle_clusters_by_ttl(monkeypatch):
    monkeypatch.setattr(drift, "CLUSTER_TTL", 5)
    monkeypatch.setattr(drift, "MERGE_THRESHOLD", 0.9)
    detector = DriftDetector(min_cluster_size=10)
    _low(detector, "a.com", ["alpha one", "alpha two"])
    assert len(detector.clusters) == 1
    # Confident traffic advances the tick without touching the cluster.
    for i in range(8):
        detector.observe(
            f"ok{i}.com", f"Title {i}: v", [("l", "domain", 0.99)]
        )
    _low(detector, "b.com", ["beta one", "beta two"])
    assert detector.evicted_clusters == 1
    assert [c.members[0].domain for c in detector.clusters] == ["b.com"]


def test_detector_caps_open_clusters(monkeypatch):
    # Five records stay far inside the cluster TTL.
    monkeypatch.setattr(drift, "MAX_OPEN_CLUSTERS", 2)
    monkeypatch.setattr(drift, "MERGE_THRESHOLD", 0.9)
    detector = DriftDetector(min_cluster_size=10)
    for i in range(5):
        _low(detector, f"c{i}.com", [f"unique {i} x", f"unique {i} y"])
    assert len(detector.clusters) == 2
    assert detector.evicted_clusters == 3
    # The freshest clusters survive.
    survivors = {c.members[0].domain for c in detector.clusters}
    assert survivors == {"c3.com", "c4.com"}


def test_detector_trims_resolved_signatures(monkeypatch):
    monkeypatch.setattr(drift, "MAX_RESOLVED", 2)
    monkeypatch.setattr(drift, "MERGE_THRESHOLD", 0.9)
    detector = DriftDetector(min_cluster_size=1)
    families = []
    for i in range(4):
        alert = _low(detector, f"r{i}.com", [f"res {i} a", f"res {i} b"])
        assert alert is not None  # min_cluster_size=1 alerts immediately
        families.append(alert.family_id)
    for family_id in families:
        detector.resolve(family_id)
    assert len(detector._resolved) <= 2
