"""Tests for normalization, the survey database, and the Section 6 analyses."""

import datetime

import pytest

from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.datagen.registrars import (
    REGISTRARS,
    TAIL_REGISTRAR_COUNT,
    tail_registrar_profile,
)
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
from repro.survey.database import DomainEntry, SurveyDatabase
from repro.survey.normalize import (
    canonical_country,
    canonical_registrar,
    detect_brand,
    detect_privacy_service,
)
from repro.survey.report import format_histogram, format_proportions, format_table


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,code",
    [
        ("United States", "US"),
        ("UNITED STATES", "US"),
        ("U.S.A.", "US"),
        ("us", "US"),
        ("CHINA", "CN"),
        ("P.R. China", "CN"),
        ("Viet Nam", "VN"),
        ("Deutschland", "DE"),
        ("", None),
        (None, None),
        ("Atlantis", None),
    ],
)
def test_canonical_country(text, code):
    assert canonical_country(text) == code


@pytest.mark.parametrize(
    "name,display",
    [
        ("GoDaddy.com, LLC", "GoDaddy"),
        ("GODADDY.COM, LLC", "GoDaddy"),
        ("eNom, Inc.", "eNom"),
        ("PDR Ltd. d/b/a PublicDomainRegistry.com", "Public Domain Reg."),
        ("Xin Net Technology Corporation", "Xinnet"),
        ("Some Unknown Registrar, Inc.", "Some Unknown Registrar"),
        (None, None),
        # The registry's thin records upper-case the registrar's name.
        ("KEY-SYSTEMS GMBH", "Key-Systems"),
        ("GANDI SAS", "Gandi"),
        ("UNITED-DOMAINS AG", "united-domains"),
        ("ENAME TECHNOLOGY CO., LTD.", "eName Technology Co."),
        ("LAUNCHPAD.COM INC.", "Launchpad.com"),
        ("DYNADOT, LLC", "Dynadot"),
        ("TODAYNIC.COM, INC.", "Todaynic.com"),
        ("VITALWERKS INTERNET SOLUTIONS, LLC", "Vitalwerks Internet Solutions"),
        ("DOMAIN REGISTRAR 07, INC.", "Domain Registrar 07"),
    ],
)
def test_canonical_registrar(name, display):
    assert canonical_registrar(name) == display


def test_canonical_registrar_ignores_the_registrys_upper_casing():
    """A thin-record hint and a thick record name one registrar once."""
    profiles = list(REGISTRARS) + [
        tail_registrar_profile(i) for i in range(TAIL_REGISTRAR_COUNT)
    ]
    for profile in profiles:
        assert canonical_registrar(profile.name) == canonical_registrar(
            profile.name.upper()
        ), profile.name


def test_detect_privacy_service():
    assert detect_privacy_service(
        "Registration Private", "Domains By Proxy, LLC"
    ) == "Domains By Proxy, LLC"
    assert detect_privacy_service("John Smith", "WhoisGuard, Inc.") \
        == "WhoisGuard, Inc."
    assert detect_privacy_service("John Smith", "BlueTech LLC") is None
    assert detect_privacy_service(None, None) is None
    # Name-only detection falls back to the name field.
    assert detect_privacy_service("Whois Privacy Protection Service", None) \
        == "Whois Privacy Protection Service"


def test_detect_brand():
    assert detect_brand("Amazon Inc.") == "Amazon"
    assert detect_brand("Warner Bros. Entertainment") == "Warner Bros."
    assert detect_brand("BlueTech LLC") is None
    assert detect_brand(None) is None


# ----------------------------------------------------------------------
# Database
# ----------------------------------------------------------------------


def _parsed(country="United States", name="John Smith", org="BlueTech LLC",
            created=datetime.date(2014, 3, 5), registrar="GoDaddy.com, LLC"):
    record = ParsedRecord()
    record.registrar = registrar
    record.created = created
    record.registrant = {"name": name, "org": org, "country": country}
    return record


def test_add_parsed_normalizes():
    db = SurveyDatabase()
    entry = db.add_parsed("x.com", _parsed())
    assert entry.country == "US"
    assert entry.registrar == "GoDaddy"
    assert not entry.is_private
    assert entry.creation_year == 2014


def test_add_parsed_detects_privacy():
    db = SurveyDatabase()
    entry = db.add_parsed(
        "y.com",
        _parsed(name="Registration Private", org="Domains By Proxy, LLC"),
    )
    assert entry.is_private
    assert entry.privacy_service == "Domains By Proxy, LLC"
    assert entry.brand is None


def test_registrar_hint_used_when_missing():
    db = SurveyDatabase()
    parsed = _parsed(registrar=None)
    entry = db.add_parsed("z.com", parsed, registrar_hint="eNom, Inc.")
    assert entry.registrar == "eNom"


def test_database_filters():
    db = SurveyDatabase()
    db.add_parsed("a.com", _parsed(created=datetime.date(2014, 1, 1)))
    db.add_parsed("b.com", _parsed(created=datetime.date(2010, 1, 1)))
    db.add_parsed("c.com", _parsed(name="Registration Private",
                                   org="Domains By Proxy, LLC"),
                  blacklisted=True)
    assert len(db.created_in(2014)) == 2  # a + c
    assert len(db.created_through(2010)) == 1
    assert len(db.blacklisted()) == 1
    assert len(db.public()) == 2


# ----------------------------------------------------------------------
# Analyses over a synthetic survey
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def survey_db():
    gen = CorpusGenerator(CorpusConfig(seed=400))
    corpus = gen.labeled_corpus(200)
    parser = WhoisParser(l2=0.1).fit(corpus)
    db = SurveyDatabase()
    for registration in gen.registrations(1200):
        record = gen.render(registration)
        db.add_parsed(record.domain, parser.parse(record.text))
    for registration in gen.dbl_registrations(400):
        record = gen.render(registration)
        db.add_parsed(record.domain, parser.parse(record.text),
                      blacklisted=True)
    return db


def test_table3_us_leads(survey_db):
    rows = top_registrant_countries(survey_db)
    assert rows[0].key == "United States"
    assert 0.30 < rows[0].share < 0.65
    keys = [r.key for r in rows]
    assert "(Other)" in keys
    assert "China" in keys[:6]


def test_table3_2014_china_rises(survey_db):
    # The synthetic DBL sample is oversampled relative to reality, so the
    # Table 3 comparison runs on non-blacklisted entries, as the tiny real
    # DBL share makes it effectively do in the paper.
    scope = survey_db.normal()
    all_time = {r.key: r.share for r in top_registrant_countries(scope)}
    in_2014 = {
        r.key: r.share for r in top_registrant_countries(scope, year=2014)
    }
    if "China" in all_time and "China" in in_2014:
        assert in_2014["China"] > all_time["China"]


def test_table5_godaddy_leads(survey_db):
    rows = top_registrars(survey_db.created_through(2014))
    assert rows[0].key == "GoDaddy"
    assert 0.2 < rows[0].share < 0.5


def test_table7_privacy_services(survey_db):
    rows = top_privacy_services(survey_db)
    assert rows
    assert rows[0].count >= rows[-2].count
    total_share = sum(r.share for r in rows)
    assert total_share == pytest.approx(1.0, abs=0.01)


def test_table6_privacy_registrars(survey_db):
    rows = privacy_by_registrar(survey_db)
    assert rows[0].key == "GoDaddy"  # Domains By Proxy rides GoDaddy


def test_privacy_rate_near_paper(survey_db):
    rate = privacy_rate(survey_db)
    assert 0.05 < rate < 0.40  # paper: ~20%


def test_table4_brands(survey_db):
    rows = brand_companies(survey_db)
    # Brand domains are rare; the list may be short but must be sorted.
    counts = [r.count for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_table8_dbl_countries(survey_db):
    rows = dbl_countries(survey_db)
    top3 = [r.key for r in rows[:3]]
    assert top3[0] == "United States"
    assert "Japan" in top3 and "China" in top3


def test_table9_dbl_registrars(survey_db):
    rows = dbl_registrars(survey_db)
    top3 = {r.key for r in rows[:3]}
    assert {"eNom", "GoDaddy", "GMO Internet"} & top3


def test_figure4a_histogram(survey_db):
    histogram = creation_histogram(survey_db)
    assert max(histogram, key=histogram.get) in (2013, 2014)
    assert sum(histogram.values()) == len(survey_db)


def test_figure4b_proportions(survey_db):
    proportions = country_proportions_by_year(survey_db)
    for year, breakdown in proportions.items():
        assert sum(breakdown.values()) == pytest.approx(1.0, abs=1e-9)


def test_figure5_registrar_mixes(survey_db):
    gmo = registrar_country_mix(survey_db, "GMO Internet")
    if gmo:
        assert gmo[0].key == "JP"
    hichina = registrar_country_mix(survey_db, "HiChina")
    if hichina:
        assert hichina[0].key == "CN"


# ----------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------


def test_format_table(survey_db):
    text = format_table(top_registrars(survey_db), title="Registrars",
                        key_header="Registrar")
    assert "GoDaddy" in text
    assert "Total" in text
    assert "(100.0)" in text


def test_format_histogram():
    text = format_histogram({2013: 10, 2014: 20}, title="Creations")
    assert "2014" in text and "#" in text


def test_format_proportions():
    text = format_proportions({2014: {"US": 0.5, "Private": 0.5}})
    assert "2014" in text and "50.0%" in text


def test_format_histogram_empty():
    assert "(empty)" in format_histogram({})
