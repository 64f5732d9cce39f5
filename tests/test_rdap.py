"""Tests for the RDAP schema, converters, and gateway."""

import json
from datetime import date

import pytest

from repro.datagen import CorpusConfig, CorpusGenerator
from repro.parser import WhoisParser
from repro.parser.api import ParserBase
from repro.rdap.convert import parsed_to_rdap, registration_to_rdap
from repro.rdap.schema import (
    RdapDomain,
    RdapEntity,
    RdapEvent,
    RdapValidationError,
    validate_rdap,
)
from repro.rdap.server import DomainNotFound, RdapGateway


@pytest.fixture(scope="module")
def world():
    generator = CorpusGenerator(CorpusConfig(seed=1400))
    corpus = generator.labeled_corpus(150)
    parser = WhoisParser(l2=0.1).fit(corpus[:120])
    return generator, corpus, parser


# ----------------------------------------------------------------------
# Schema and validation
# ----------------------------------------------------------------------


def test_minimal_domain_serializes_and_validates():
    domain = RdapDomain(
        ldh_name="example.com",
        statuses=["active"],
        events=[RdapEvent("registration", date(2014, 3, 5))],
        nameservers=["ns1.example.com"],
        entities=[RdapEntity(role="registrant", full_name="J. Smith")],
    )
    payload = domain.to_json()
    validate_rdap(payload)
    assert payload["ldhName"] == "example.com"
    assert payload["events"][0]["eventDate"] == "2014-03-05"
    assert payload["nameservers"][0]["objectClassName"] == "nameserver"
    assert payload["secureDNS"] == {"delegationSigned": False}


def test_vcard_contains_contact_details():
    entity = RdapEntity(
        role="registrant", full_name="Jane Doe", organization="Doe LLC",
        street="1 Main St", city="Springfield", region="IL",
        postal_code="62701", country="US", phone="+1.555", email="j@d.com",
        handle="C1",
    )
    payload = entity.to_json()
    vcard = payload["vcardArray"][1]
    kinds = [item[0] for item in vcard]
    assert {"version", "fn", "org", "adr", "tel", "email"} <= set(kinds)
    adr = next(item for item in vcard if item[0] == "adr")[3]
    assert adr[2] == "1 Main St" and adr[6] == "US"


@pytest.mark.parametrize(
    "mutation,message",
    [
        (lambda p: p.update(objectClassName="entity"), "objectClassName"),
        (lambda p: p.update(rdapConformance=[]), "conformance"),
        (lambda p: p.update(ldhName=""), "ldhName"),
        (lambda p: p.update(ldhName="exämple.com"), "ASCII"),
        (lambda p: p["events"].append(
            {"eventAction": "party", "eventDate": "2014-01-01"}), "eventAction"),
        (lambda p: p["entities"][0].update(roles=["boss"]), "roles"),
        (lambda p: p["entities"][0].update(vcardArray=["x"]), "vcard"),
    ],
)
def test_validation_rejects_malformed(mutation, message):
    payload = RdapDomain(
        ldh_name="example.com",
        events=[RdapEvent("registration", date(2014, 1, 1))],
        entities=[RdapEntity(role="registrant", full_name="X")],
    ).to_json()
    mutation(payload)
    with pytest.raises(RdapValidationError, match=message):
        validate_rdap(payload)


# ----------------------------------------------------------------------
# Converters
# ----------------------------------------------------------------------


def test_registration_to_rdap_roundtrips_ground_truth(world):
    generator, _, _ = world
    registration = generator.sample_registration()
    payload = registration_to_rdap(registration).to_json()
    validate_rdap(payload)
    assert payload["ldhName"] == registration.domain
    roles = {e["roles"][0] for e in payload["entities"]}
    assert {"registrant", "registrar", "administrative", "technical"} <= roles
    actions = {e["eventAction"] for e in payload["events"]}
    assert actions == {"registration", "expiration", "last changed"}


def test_parsed_to_rdap_from_parser_output(world):
    generator, corpus, parser = world
    record = corpus[130]
    parsed = parser.parse(record.to_record())
    payload = parsed_to_rdap(record.domain, parsed).to_json()
    validate_rdap(payload)
    assert payload["ldhName"] == record.domain
    registrant = next(
        (e for e in payload["entities"] if "registrant" in e["roles"]), None
    )
    assert registrant is not None


def test_parsed_to_rdap_handles_empty_parse():
    from repro.parser.fields import ParsedRecord

    payload = parsed_to_rdap("x.com", ParsedRecord()).to_json()
    validate_rdap(payload)
    assert payload["ldhName"] == "x.com"
    assert payload["entities"] == []


# ----------------------------------------------------------------------
# Gateway
# ----------------------------------------------------------------------


def test_gateway_end_to_end(world):
    generator, corpus, parser = world
    records = {r.domain: r.text for r in corpus[120:]}
    gateway = RdapGateway(parser, records.get)
    domain = corpus[125].domain
    payload = gateway.lookup(domain)
    assert payload["ldhName"] == domain
    body = gateway.lookup_json(domain)
    assert json.loads(body)["objectClassName"] == "domain"
    assert gateway.lookups == 2


def test_gateway_not_found(world):
    *_, parser = world
    gateway = RdapGateway(parser, lambda domain: None)
    with pytest.raises(DomainNotFound):
        gateway.lookup("missing.com")
    error = json.loads(gateway.error_json("missing.com"))
    assert error["errorCode"] == 404


def test_gateway_lookup_many_matches_lookup_loop(world):
    """Bulk lookups must be bit-identical to a loop of lookup() calls."""
    generator, corpus, parser = world
    records = {r.domain: r.text for r in corpus[120:]}
    domains = [r.domain for r in corpus[120:135]]
    # Duplicates and mixed case exercise the dedup/fan-out path.
    domains = domains + [domains[0].upper(), domains[3]]

    loop_gateway = RdapGateway(parser, records.get, cache_size=32)
    loop_payloads = [loop_gateway.lookup(d) for d in domains]

    bulk_gateway = RdapGateway(parser, records.get, cache_size=32)
    bulk_payloads = bulk_gateway.lookup_many(domains)

    assert bulk_payloads == loop_payloads
    assert bulk_gateway.lookups == loop_gateway.lookups
    assert sorted(bulk_gateway._cache) == sorted(loop_gateway._cache)


def test_gateway_lookup_many_not_found_in_input_order(world):
    *_, parser = world
    gateway = RdapGateway(parser, lambda domain: None)
    with pytest.raises(DomainNotFound) as excinfo:
        gateway.lookup_many(["first-missing.com", "second-missing.com"])
    assert "first-missing.com" in str(excinfo.value)


def test_gateway_lru_cache_hits_and_eviction(world):
    generator, corpus, parser = world
    records = {r.domain: r.text for r in corpus[120:]}
    fetches = []

    def counted_fetch(domain):
        fetches.append(domain)
        return records.get(domain)

    gateway = RdapGateway(parser, counted_fetch, cache_size=2)
    a, b, c = (corpus[i].domain for i in (120, 121, 122))

    gateway.lookup(a)
    gateway.lookup(a)  # cache hit: no second fetch
    assert fetches == [a]
    assert gateway.cache_hits == 1 and gateway.cache_misses == 1

    gateway.lookup(b)
    gateway.lookup(a)  # refreshes a's recency
    gateway.lookup(c)  # evicts b, the least recently used
    gateway.lookup(b)  # must re-fetch, evicting a
    assert fetches == [a, b, c, b]
    assert set(gateway._cache) == {b, c}


def test_gateway_cache_disabled_by_default(world):
    generator, corpus, parser = world
    records = {r.domain: r.text for r in corpus[120:]}
    fetches = []

    def counted_fetch(domain):
        fetches.append(domain)
        return records.get(domain)

    gateway = RdapGateway(parser, counted_fetch)
    domain = corpus[123].domain
    gateway.lookup(domain)
    gateway.lookup(domain)
    assert fetches == [domain, domain]
    assert gateway.cache_hits == 0 and gateway.cache_misses == 0


def test_error_json_derived_from_exception(world):
    *_, parser = world
    gateway = RdapGateway(parser, lambda domain: None)
    not_found = json.loads(
        gateway.error_json("x.com", exc=DomainNotFound("x.com"))
    )
    assert not_found["errorCode"] == 404
    assert not_found["title"] == "Not Found"
    assert "x.com" in not_found["description"][0]

    crash = json.loads(
        gateway.error_json("y.com", exc=ValueError("parse exploded"))
    )
    assert crash["errorCode"] == 500
    assert crash["title"] == "Internal Server Error"
    assert "ValueError: parse exploded" in crash["description"][0]

    override = json.loads(gateway.error_json("z.com", status=429))
    assert override["errorCode"] == 429
    assert override["title"] == "Too Many Requests"


def test_gateway_emits_obs_metrics(world):
    from repro import obs

    generator, corpus, parser = world
    records = {r.domain: r.text for r in corpus[120:]}
    domains = [r.domain for r in corpus[125:130]]
    registry = obs.MetricsRegistry()
    with obs.use(registry):
        gateway = RdapGateway(parser, records.get, cache_size=4)
        gateway.lookup(domains[0])  # parses
        gateway.lookup(domains[0])  # cache hit: no parse
        gateway.lookup_many(domains)  # one parse for the four uncached
        with pytest.raises(DomainNotFound):
            gateway.lookup("missing.com")  # nothing to parse
    assert registry.counter_value("rdap.lookups") == 2 + len(domains) + 1
    assert registry.counter_value("rdap.cache.hits") >= 2
    assert registry.counter_value("rdap.errors", code="404") == 1
    # One latency histogram, observed once per call that parsed.
    assert registry.histogram("rdap.lookup_seconds").count == 2
    assert "rdap.lookup_many_seconds" not in registry.names()


class _PoisonParser(ParserBase):
    """The real parser, except that one record's parse names a domain
    RDAP validation rejects (a non-ASCII ldhName)."""

    def __init__(self, parser, poison_text):
        self.parser = parser
        self.poison_text = poison_text

    def parse(self, record):
        return self.parse_many([record])[0]

    def parse_many(self, records):
        parsed = self.parser.parse_many(records)
        for record, result in zip(records, parsed):
            if record == self.poison_text:
                result.domain = "bäd.example"
        return parsed


@pytest.mark.parametrize("cache_size", [0, 64])
def test_lookup_loop_lookup_many_and_try_lookup_many_agree(world, cache_size):
    """``lookup`` in a loop, ``lookup_many`` and ``try_lookup_many`` are
    one body: the same payloads, errors, cache and counters."""
    from repro import obs
    from repro.errors import ReproError, Timeout

    _generator, corpus, parser = world
    records = {r.domain: r.text for r in corpus[120:]}
    poison = corpus[140].domain
    stub = _PoisonParser(parser, records[poison])
    found = [r.domain for r in corpus[120:128]]
    domains = (
        found[:4] + ["missing.com", found[0].upper(), poison]
        + found[4:] + [found[3], "MISSING.com", poison.upper(), found[0]]
        + ["down.example"]
    )

    def fetch(domain):
        if domain == "down.example":
            raise Timeout("registrar went dark", domain=domain)
        return records.get(domain)

    def run(call):
        registry = obs.MetricsRegistry()
        gateway = RdapGateway(stub, fetch, cache_size=cache_size)
        with obs.use(registry):
            results = call(gateway)
        counters = {
            name: registry.counter_series(name)
            for name in ("rdap.lookups", "rdap.cache.hits",
                         "rdap.cache.misses", "rdap.errors")
        }
        state = (
            dict(gateway._cache), gateway.lookups,
            gateway.cache_hits, gateway.cache_misses,
        )
        return results, state, counters

    def loop(gateway):
        results = []
        for domain in domains:
            try:
                results.append(gateway.lookup(domain))
            except ReproError as exc:
                results.append(exc)
        return results

    def many(gateway):
        with pytest.raises(ReproError) as excinfo:
            gateway.lookup_many(domains)
        return excinfo.value

    def shape(results):
        return [
            (type(r).__name__, r.http_status)
            if isinstance(r, ReproError) else r
            for r in results
        ]

    looped, loop_state, loop_counters = run(loop)
    tried, try_state, try_counters = run(
        lambda gateway: gateway.try_lookup_many(domains)
    )
    raised, many_state, many_counters = run(many)

    assert shape(tried) == shape(looped)
    assert [type(r) for r in looped].count(DomainNotFound) == 2
    assert [
        type(r) for r in looped if isinstance(r, ReproError)
    ].count(ReproError) == 2  # the render failure, typed as a 500
    # lookup_many raises the first error in input order, after the
    # whole batch was looked up (its cache and counters match).
    assert isinstance(raised, DomainNotFound)
    assert "missing.com" in str(raised)
    assert loop_state == try_state == many_state
    assert loop_counters == try_counters == many_counters
    assert isinstance(looped[-1], Timeout)  # the fetch's own typed error
    assert loop_counters["rdap.errors"] == {
        (("code", "404"),): 2.0, (("code", "500"),): 2.0,
        (("code", "504"),): 1.0,
    }
    if cache_size:
        assert loop_state[2] == 3  # the repeats of found domains hit
        assert set(loop_state[0]) == {d.lower() for d in found}


def test_gateway_agreement_with_ground_truth(world):
    """Gateway output must match native RDAP from the registry's own data."""
    generator, _, parser = world
    agree = total = 0
    for _ in range(25):
        registration = generator.sample_registration()
        text = generator.render(registration).text
        gateway = RdapGateway(parser, {registration.domain: text}.get)
        via_parser = gateway.lookup(registration.domain)
        native = registration_to_rdap(registration).to_json()
        total += 1
        if via_parser["ldhName"] == native["ldhName"] and {
            e["eventAction"]: e["eventDate"] for e in via_parser["events"]
        }.get("registration") == {
            e["eventAction"]: e["eventDate"] for e in native["events"]
        }.get("registration"):
            agree += 1
    assert agree / total > 0.9
