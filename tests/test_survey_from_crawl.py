"""Integration: crawl results flow into the survey with thin-record hints."""

from dataclasses import dataclass

from repro.datagen import CorpusConfig, CorpusGenerator
from repro.netsim.crawler import WhoisCrawler
from repro.netsim.internet import build_com_internet
from repro.parser import WhoisParser
from repro.parser.fields import ParsedRecord
from repro.survey.ingest import jobs_from_results, sharded_ingest
from repro.survey.normalize import canonical_registrar


@dataclass
class _FakeResult:
    domain: str
    thin_text: str | None
    thick_text: str | None


class _FakeParser:
    """Parses every record to a registrant with no registrar line."""

    def parse_many(self, texts):
        records = []
        for _ in texts:
            parsed = ParsedRecord()
            parsed.registrant = {"name": "John Smith"}
            records.append(parsed)
        return records


def _survey(results, parser):
    return sharded_ingest(jobs_from_results(results), parser, shards=1)


def test_registrar_hint_from_thin_record():
    """A thick record without a registrar line falls back to the thin one."""
    thick = "Registrant Name: John Smith\n"

    def thin(registrar):
        return f"   Domain Name: X.COM\n   Registrar: {registrar}\n"

    db = _survey([
        _FakeResult("x.com", thin("ENOM, INC."), thick),
        _FakeResult("y.com", thin("KEY-SYSTEMS GMBH"), thick),
    ], _FakeParser())
    assert db.get("x.com").registrar == "eNom"
    # The registry upper-cases the name; the hint still names the
    # registrar the way its thick records spell it.
    assert db.get("y.com").registrar == "Key-Systems"


def test_results_without_thick_records_skipped():
    db = _survey([_FakeResult("x.com", "thin", None)], _FakeParser())
    assert len(db) == 0


def test_crawl_to_survey_registrar_agreement():
    """Surveyed registrars must match the ground-truth registrations."""
    gen = CorpusGenerator(CorpusConfig(seed=700))
    parser = WhoisParser(l2=0.1).fit(gen.labeled_corpus(150))
    zone, registrations = gen.zone(400)
    internet, _, _ = build_com_internet(gen, zone, registrations)
    crawler = WhoisCrawler(internet)
    results = crawler.crawl(zone)
    db = _survey(results, parser)
    assert len(db) > 250

    agree = total = 0
    for entry in db:
        expected = canonical_registrar(
            registrations[entry.domain].registrar_name
        )
        total += 1
        agree += entry.registrar == expected
    assert agree / total > 0.95


def test_crawl_to_survey_country_agreement():
    gen = CorpusGenerator(CorpusConfig(seed=701))
    parser = WhoisParser(l2=0.1).fit(gen.labeled_corpus(150))
    zone, registrations = gen.zone(400)
    internet, _, _ = build_com_internet(gen, zone, registrations)
    results = WhoisCrawler(internet).crawl(zone)
    db = _survey(results, parser)

    agree = total = 0
    for entry in db:
        registration = registrations[entry.domain]
        if registration.is_private:
            continue
        expected = registration.registrant_country
        got = entry.country
        total += 1
        agree += (got == expected) or (expected == "??" and got is None)
    assert total > 100
    assert agree / total > 0.9
