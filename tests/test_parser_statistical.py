"""Tests for the two-level statistical parser and field extraction."""

import datetime
import json

import pytest

from repro import errors
from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.parser import WhoisParser
from repro.whois.features import FeaturizerConfig
from repro.parser.fields import (
    assemble_record,
    parse_whois_date,
    title_of,
    value_of,
)


@pytest.fixture(scope="module")
def trained():
    gen = CorpusGenerator(CorpusConfig(seed=100))
    corpus = gen.labeled_corpus(150)
    parser = WhoisParser(l2=0.1).fit(corpus)
    test = gen.labeled_corpus(60)
    return parser, corpus, test


# ----------------------------------------------------------------------
# Date parsing
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2014-03-05", datetime.date(2014, 3, 5)),
        ("2014-03-05T10:22:31Z", datetime.date(2014, 3, 5)),
        ("2014/03/05", datetime.date(2014, 3, 5)),
        ("05-Mar-2014", datetime.date(2014, 3, 5)),
        ("05 mar 2014", datetime.date(2014, 3, 5)),
        ("March 5, 2014", datetime.date(2014, 3, 5)),
        ("03/05/2014", datetime.date(2014, 3, 5)),
        ("Record expires on 15-sep-2016.", datetime.date(2016, 9, 15)),
        ("no date here", None),
        ("13/45/2014", None),
    ],
)
def test_parse_whois_date(text, expected):
    assert parse_whois_date(text) == expected


def test_title_and_value_helpers():
    assert title_of("Registrant Name: John") == "registrant name"
    assert value_of("Registrant Name: John") == "John"
    assert title_of("John Smith") == ""
    assert value_of("John Smith") == "John Smith"
    assert value_of("Created on....: 1997-01-01") == "1997-01-01"


# ----------------------------------------------------------------------
# assemble_record
# ----------------------------------------------------------------------


def test_assemble_record_extracts_fields():
    lines = [
        "Domain Name: EXAMPLE.COM",
        "Registrar: GoDaddy.com, LLC",
        "Creation Date: 2014-03-05",
        "Registry Expiry Date: 2016-03-05",
        "Updated Date: 2015-01-10",
        "Domain Status: clientTransferProhibited",
        "Name Server: NS1.EXAMPLE.COM",
        "Name Server: NS2.EXAMPLE.COM",
        "Registrant Name: John Smith",
        "Registrant Country: United States",
    ]
    blocks = ["domain", "registrar", "date", "date", "date", "domain",
              "domain", "domain", "registrant", "registrant"]
    subs = ["name", "country"]
    record = assemble_record(lines, blocks, subs)
    assert record.domain == "example.com"
    assert record.registrar == "GoDaddy.com, LLC"
    assert record.created == datetime.date(2014, 3, 5)
    assert record.expires == datetime.date(2016, 3, 5)
    assert record.updated == datetime.date(2015, 1, 10)
    assert record.statuses == ["clientTransferProhibited"]
    assert record.name_servers == ["ns1.example.com", "ns2.example.com"]
    assert record.registrant_name == "John Smith"
    assert record.registrant_country == "United States"


def test_assemble_record_banner_sectioned_domain():
    """Banner templates title the domain line just 'Name:' (regression:
    the fallback once misread the nameserver host as the domain)."""
    lines = [
        "DOMAIN INFORMATION",
        "   Name: travelweb.com",
        "   Nameservers: ns1.domaincontrol.com, ns2.domaincontrol.com",
    ]
    record = assemble_record(lines, ["domain", "domain", "domain"], [])
    assert record.domain == "travelweb.com"
    assert "ns1.domaincontrol.com" in record.name_servers


def test_assemble_record_multiline_street():
    lines = ["Registrant Street: 1 Main St", "Registrant Street: Suite 2"]
    blocks = ["registrant", "registrant"]
    record = assemble_record(lines, blocks, ["street", "street"])
    assert record.registrant["street"] == "1 Main St, Suite 2"


def test_field_memos_stay_bounded_over_fresh_lines():
    # A long survey meets new lines every round; the per-line memos must
    # age them out rather than keep every line alive for the process.
    from repro.parser import fields

    fresh = fields.MEMO_SIZE + 600
    for i in range(fresh):
        assemble_record(
            [
                f"Domain Name: memo-{i}.com",
                f"Registrar: Memo Registrar {i}",
                f"Creation Date: {2000 + i % 20}-{1 + i % 12:02d}-"
                f"{1 + i % 28:02d}T00:00:{i}Z",
                f"Registrant Name: Memo Person {i}",
            ],
            ["domain", "registrar", "date", "registrant"],
            ["name"],
        )
    for memo in (fields.value_of, fields.title_of, fields.parse_whois_date):
        info = memo.cache_info()
        assert info.maxsize == fields.MEMO_SIZE
        assert info.currsize <= fields.MEMO_SIZE


def test_assemble_record_length_mismatch():
    with pytest.raises(ValueError):
        assemble_record(["a"], ["domain", "domain"])


# ----------------------------------------------------------------------
# WhoisParser end to end
# ----------------------------------------------------------------------


def test_parser_requires_training_data():
    with pytest.raises(ValueError):
        WhoisParser().fit([])


def test_block_accuracy_in_distribution(trained):
    parser, _, test = trained
    errors = total = 0
    for record in test:
        pred = parser.predict_blocks(record)
        errors += sum(p != g for p, g in zip(pred, record.block_labels))
        total += len(record.block_labels)
    assert errors / total < 0.01  # paper: >99% with ample training data


def test_registrant_subfield_accuracy(trained):
    parser, _, test = trained
    errors = total = 0
    for record in test:
        for line, block, sub in parser.label_lines(record):
            pass  # smoke: runs without error
        segments = []
        current = []
        for line in record.lines:
            if line.block == "registrant":
                current.append(line)
            elif current:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        for segment in segments:
            pred = parser.predict_registrant_fields([l.text for l in segment])
            errors += sum(p != (l.sub or "other")
                          for p, l in zip(pred, segment))
            total += len(segment)
    assert total > 0
    assert errors / total < 0.03


def _squash(text):
    return "".join(ch for ch in text.lower() if ch.isalnum())


def test_parse_recovers_ground_truth_fields(trained):
    parser, _, test = trained
    domain_hits = registrar_hits = checked = 0
    for record in test:
        parsed = parser.parse(record.to_record())
        checked += 1
        if parsed.domain == record.domain:
            domain_hits += 1
        gold_registrar = _squash(record.registrar or "")
        got = _squash(parsed.registrar or "")
        if got and (got in gold_registrar or gold_registrar in got):
            registrar_hits += 1
    assert domain_hits / checked > 0.9
    assert registrar_hits / checked > 0.85


def test_parse_accepts_plain_text(trained):
    parser, corpus, _ = trained
    parsed = parser.parse(corpus[0].text)
    assert parsed.domain == corpus[0].domain


def test_label_lines_alignment(trained):
    parser, _, test = trained
    record = test[0]
    labeled = parser.label_lines(record)
    assert [line for line, _, _ in labeled] == [l.text for l in record.lines]
    for _, block, sub in labeled:
        if block == "registrant":
            assert sub is not None
        else:
            assert sub is None


def test_partial_fit_adapts_to_new_format(trained):
    parser, corpus, _ = trained
    gen = CorpusGenerator(CorpusConfig(seed=999))
    novel = gen.new_tld_record("coop")
    before = parser.predict_blocks(novel)
    errors_before = sum(p != g for p, g in zip(before, novel.block_labels))
    # Retrain a fresh parser (module-scoped fixture must stay pristine).
    adapted = WhoisParser(l2=0.1).fit(corpus[:50])
    adapted.partial_fit([novel], replay=corpus[:50])
    after = adapted.predict_blocks(novel)
    errors_after = sum(p != g for p, g in zip(after, novel.block_labels))
    assert errors_after == 0
    assert errors_after <= errors_before


def test_partial_fit_keeps_old_ids_and_copies_old_weights(monkeypatch):
    import numpy as np

    from repro.crf import model
    from repro.crf.objective import ParamView

    corpus = CorpusGenerator(CorpusConfig(seed=101)).labeled_corpus(20)
    parser = WhoisParser(l2=0.1, max_iterations=20).fit(corpus)
    olds = [(crf, crf.index, crf.params.copy())
            for crf in (parser.block_crf, parser.registrant_crf)]
    starts = []

    class Recording(model.LBFGSTrainer):
        def fit(self, dataset, index, *, initial=None, **kwargs):
            starts.append((index, initial.copy()))
            return super().fit(dataset, index, initial=initial, **kwargs)

    monkeypatch.setattr(model, "LBFGSTrainer", Recording)
    novel = CorpusGenerator(CorpusConfig(seed=999)).new_tld_record("coop")
    parser.partial_fit([novel], replay=corpus[:5])
    assert [index for index, _ in starts] == [
        parser.block_crf.index, parser.registrant_crf.index
    ]
    for (crf, old, old_params), (new, initial) in zip(olds, starts):
        assert crf.index is new
        for old_vocab, new_vocab, names in (
            (old.obs_vocab, new.obs_vocab, new.obs_attribute_names()),
            (old.edge_vocab, new.edge_vocab, new.edge_attribute_names()),
        ):
            assert old_vocab.items() <= new_vocab.items()
            assert names[len(old_vocab):] == sorted(set(new_vocab) - set(old_vocab))
        assert new.n_obs > old.n_obs
        was, now = ParamView.of(old_params, old), ParamView.of(initial, new)
        assert np.array_equal(now.start, was.start)
        assert np.array_equal(now.trans, was.trans)
        assert np.array_equal(now.obs[:old.n_obs], was.obs)
        assert np.array_equal(now.edge[:old.n_edge], was.edge)
        assert not now.obs[old.n_obs:].any() and not now.edge[old.n_edge:].any()


def test_save_load_roundtrip(tmp_path, trained):
    parser, corpus, _ = trained
    parser.save(tmp_path / "model")
    clone = WhoisParser.load(tmp_path / "model")
    record = corpus[0]
    assert clone.predict_blocks(record) == parser.predict_blocks(record)
    assert clone.parse(record.text).domain == record.domain


def test_save_load_roundtrip_parse_many_equivalence(tmp_path, trained):
    """A reloaded parser is bit-equivalent on the whole bulk path."""
    parser, _, test = trained
    parser.save(tmp_path / "model")
    clone = WhoisParser.load(tmp_path / "model")
    texts = [record.text for record in test]
    assert clone.parse_many(texts) == parser.parse_many(texts)


def test_save_load_preserves_featurizer_config_and_settings(tmp_path):
    """Non-default feature switches and fit settings survive a save.

    Serving loads models from disk (`repro serve --model-dir`), so a
    round trip must reproduce the featurization exactly -- a parser
    reloaded with default switches would silently emit different
    attributes and mispredict -- and the maintenance loop retrains the
    loaded parser, which must fit as the original would.
    """
    gen = CorpusGenerator(CorpusConfig(seed=77))
    corpus = gen.labeled_corpus(40)
    config = FeaturizerConfig(prefixes=False, plain_words=False)
    parser = WhoisParser(
        featurizer_config=config, min_count=2, l2=0.1, max_iterations=60
    ).fit(corpus[:30])
    parser.save(tmp_path / "model")
    clone = WhoisParser.load(tmp_path / "model")
    assert clone.featurizer.config == config
    assert clone.settings == parser.settings == {
        "domain": "whois",
        "featurizer_config": config,
        "l2": 0.1,
        "min_count": 2,
        "max_iterations": 60,
        "second_level": True,
    }
    for crf in (clone.block_crf, clone.registrant_crf):
        assert (crf._l2, crf._max_iterations) == (0.1, 60)
    for record in corpus[30:]:
        assert clone.predict_blocks(record) == parser.predict_blocks(record)


def test_settings_build_an_unfitted_twin(trained):
    parser, _, _ = trained
    twin = WhoisParser(**parser.settings)
    assert twin.settings == parser.settings
    assert not twin.block_crf.is_fitted
    assert twin.featurizer.config == parser.featurizer.config


def test_snapshot_with_a_lexicon_is_refused(tmp_path, trained):
    """Snapshots of parsers that marked out-of-vocabulary words carry
    the lexicon; this featurizer has no UNK attributes to give them."""
    parser, _, _ = trained
    parser.save(tmp_path / "model")
    meta_path = tmp_path / "model" / "parser.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "lexicon": ["registrant"]}))
    with pytest.raises(errors.ReproError, match="lexicon"):
        WhoisParser.load(tmp_path / "model")


def test_top_features_expose_table1_view(trained):
    parser, _, _ = trained
    top = parser.top_block_features("registrant", k=20)
    words = [w for w, _ in top]
    assert any("registrant" in w or "owner" in w or "holder" in w
               for w in words)
    transitions = parser.top_transition_features(k=10)
    assert len(transitions) == 10
    attr, prev_label, label, weight = transitions[0]
    assert prev_label != label


def test_second_level_disabled():
    gen = CorpusGenerator(CorpusConfig(seed=5))
    corpus = gen.labeled_corpus(30)
    parser = WhoisParser(second_level=False).fit(corpus)
    with pytest.raises(RuntimeError):
        parser.predict_registrant_fields(["Registrant Name: X"])
    labeled = parser.label_lines(corpus[0])
    assert all(sub is None for _, _, sub in labeled)
