"""Char granularity in the core: segmentation, features, drift, loop.

The citations plug-in rides on a small amount of core support added
behind the existing API: ``granularity="char"`` makes one CRF token a
*character* of the whitespace-normalized record, every character
(spaces and punctuation included) carries a label, drift detection
fingerprints on the punctuation skeleton instead of field titles, and
the maintenance loop picks char-appropriate defaults from the spec.
These tests pin that support independently of any particular plug-in.
"""

import random

import pytest

from repro import errors
from repro.domain import DomainSpec, FeaturizerConfig, register
from repro.parser import WhoisParser
from repro.parser.bulk import LineEncoder
from repro.pipeline import CorpusOracle, MaintenanceConfig, MaintenanceLoop
from repro.pipeline.drift import (
    DriftDetector,
    format_fingerprint,
    shape_fingerprint,
)
from repro.serve import ModelRegistry
from repro.whois.io import record_from_dict, record_to_dict
from repro.whois.records import (
    LabeledLine,
    LabeledRecord,
    labelable_units,
    segment_chars,
)
from tests.crf_data import names


# ----------------------------------------------------------------------
# A tiny char-grained domain (registered once for this module)
# ----------------------------------------------------------------------

_LABELS = ("key", "value", "sep", "null")


def _toy_record(work_id: str, key: str, value: str, style: str):
    spans = (
        [(key, "key"), (": ", "sep"), (value, "value")]
        if style == "colon"
        else [(value, "value"), (" <- ", "sep"), (key, "key")]
    )
    text = "".join(t for t, _ in spans)
    lines = [
        LabeledLine(text=ch, block=label) for t, label in spans for ch in t
    ]
    return LabeledRecord(
        domain=work_id, raw_lines=list(text), lines=lines,
        schema_family=style, granularity="char",
    )


class _ToyGen:
    def __init__(self, seed=0):
        self._rng = random.Random(seed)
        self._n = 0

    def _one(self, style):
        self._n += 1
        key = self._rng.choice(("host", "port", "user", "zone"))
        value = str(self._rng.randrange(10, 99999))
        return _toy_record(f"toy-{self._n:04d}", key, value, style)

    def labeled_corpus(self, n, styles=("colon",)):
        return [self._one(self._rng.choice(styles)) for _ in range(n)]

    def style_corpus(self, style, n):
        return [self._one(style) for _ in range(n)]


TOY = register(DomainSpec(
    name="toychar",
    block_labels=_LABELS,
    featurizer_config=FeaturizerConfig(granularity="char"),
    make_generator=lambda *, seed=0, drift=0.0: _ToyGen(seed),
    description="char-granularity core-support test domain",
))


@pytest.fixture(scope="module")
def toy_parser():
    corpus = _ToyGen(3).labeled_corpus(40)
    return WhoisParser(domain=TOY, l2=0.1).fit(corpus), corpus


# ----------------------------------------------------------------------
# Segmentation
# ----------------------------------------------------------------------


def test_segment_chars_normalizes_whitespace():
    assert segment_chars("a  b\n\tc ") == list("a b c")
    assert segment_chars("  ") == []
    assert segment_chars("x") == ["x"]


def test_every_char_unit_is_labelable():
    units = segment_chars("Smith, J. (2014).")
    assert labelable_units(units, "char") == units
    # ... unlike line granularity, where bare punctuation is filtered.
    assert labelable_units(["---", "Domain Name: X"], "line") == [
        "Domain Name: X"
    ]


def test_char_record_text_concatenates_without_separators():
    record = _toy_record("t", "host", "8080", "colon")
    assert record.text == "host: 8080"
    assert [line.text for line in record.lines] == list("host: 8080")


def test_char_record_validates_label_alignment():
    with pytest.raises(ValueError):
        LabeledRecord(
            domain="bad", raw_lines=list("ab"),
            lines=[LabeledLine(text="a", block="key")],
            granularity="char",
        )


def test_char_record_io_roundtrip():
    record = _toy_record("t", "user", "42", "arrow")
    back = record_from_dict(record_to_dict(record))
    assert back.granularity == "char"
    assert back == record


# ----------------------------------------------------------------------
# Featurization and the bulk encoder
# ----------------------------------------------------------------------


def _char_reference(featurizer, units):
    """Per character, its ``(obs, edge)`` attribute names, intrinsic
    then context: what the encoder's char path resolves to ids."""
    return [
        (obs + ctx_obs, edge + ctx_edge)
        for (obs, edge), (ctx_obs, ctx_edge) in zip(
            map(featurizer.char_attributes, units),
            featurizer.char_context(units),
        )
    ]


def test_char_featurize_text_matches_featurize_chars():
    from repro.parser.bulk import fit_encoder
    from repro.whois.features import WhoisFeaturizer

    featurizer = WhoisFeaturizer(TOY.featurizer_config)
    text = "host:  8080\n"
    units = featurizer.segment(text)
    assert units == segment_chars(text)
    encoder = fit_encoder(featurizer, _LABELS, [units])
    obs, edge = names(encoder.index, encoder.encode_record(units))
    reference = _char_reference(featurizer, units)
    assert len(obs) == len(reference) == len(units)
    assert [sorted(attrs) for attrs in obs] == [
        sorted(ref_obs) for ref_obs, _ in reference
    ]
    # The first character's edge attributes precede no transition, so
    # they are not in a vocabulary built from this record alone.
    assert [sorted(attrs) for attrs in edge[1:]] == [
        sorted(ref_edge) for _, ref_edge in reference[1:]
    ]
def test_parser_splits_text_by_its_own_featurizer_config():
    # The featurizer's configuration decides the units, not the
    # domain's default, in both directions.
    text = "host:  8080\nport: 1"
    line_on_char = WhoisParser(domain=TOY, featurizer_config=FeaturizerConfig())
    assert line_on_char._raw_lines(text) == ["host:  8080", "port: 1"]
    char_on_line = WhoisParser(
        featurizer_config=FeaturizerConfig(granularity="char")
    )
    assert char_on_line._raw_lines(text) == segment_chars(text)


def test_char_line_encoder_matches_featurize_then_encode(toy_parser):
    parser, corpus = toy_parser
    index = parser.block_crf.index
    encoder = LineEncoder(parser.featurizer, index)
    for record in corpus[:10]:
        units = [line.text for line in record.lines]
        obs, edge = names(index, encoder.encode_record(units))
        # Featurize, then keep what the vocabulary knows.
        reference = _char_reference(parser.featurizer, units)
        assert [sorted(attrs) for attrs in obs] == [
            sorted(a for a in ref_obs if a in index.obs_vocab)
            for ref_obs, _ in reference
        ]
        assert [sorted(attrs) for attrs in edge] == [
            sorted(a for a in ref_edge if a in index.edge_vocab)
            for _, ref_edge in reference
        ]


def test_char_parser_labels_every_char(toy_parser):
    parser, _corpus = toy_parser
    labeled = parser.label_lines("zone: 123")
    assert [text for text, _, _ in labeled] == list("zone: 123")
    assert all(block in _LABELS for _, block, _ in labeled)


def test_char_snapshot_roundtrips_granularity(tmp_path, toy_parser):
    parser, corpus = toy_parser
    parser.save(tmp_path / "model")
    loaded = WhoisParser.load(tmp_path / "model")
    assert loaded.spec.name == "toychar"
    assert loaded.featurizer.config.granularity == "char"
    assert loaded.parse(corpus[0].text) == parser.parse(corpus[0].text)


# ----------------------------------------------------------------------
# Drift: the punctuation-skeleton fingerprint
# ----------------------------------------------------------------------


def test_shape_fingerprint_collapses_runs():
    # Alpha runs -> "a", digit runs -> "9", whitespace -> "_",
    # punctuation verbatim; 4-grams of the skeleton.
    assert shape_fingerprint("ab12", n=10) == frozenset({"a9"})
    assert shape_fingerprint("Smith, J.", n=10) == frozenset({"a,_a."})
    assert shape_fingerprint("") == frozenset()


def test_shape_fingerprint_is_value_invariant():
    a = shape_fingerprint("Smith, J. (2014). Parsing records.")
    b = shape_fingerprint("Novak, R. (1999). Auditing zones.")
    assert a == b


def test_shape_fingerprint_separates_styles():
    paren = shape_fingerprint("Smith, J. (2014). Parsing records.")
    semi = shape_fingerprint("Parsing records; Smith, J.; 2014.")
    union = paren | semi
    assert union, "fingerprints must be non-empty"
    assert len(paren & semi) / len(union) < 0.6


def test_spec_fingerprint_dispatches_on_granularity():
    text = "host: 8080"
    assert TOY.fingerprint_text(text) == shape_fingerprint(text)
    from repro.domain import get_domain

    whois = get_domain("whois")
    sample = "Domain Name: EXAMPLE.COM\nRegistrar: X"
    assert whois.fingerprint_text(sample) == format_fingerprint(sample)


def test_drift_detector_accepts_custom_fingerprint():
    detector = DriftDetector(fingerprint=shape_fingerprint)
    assert detector.fingerprint is shape_fingerprint


# ----------------------------------------------------------------------
# Maintenance-loop defaults for char domains
# ----------------------------------------------------------------------


def test_loop_picks_char_defaults_from_the_registry(toy_parser):
    parser, corpus = toy_parser
    models = ModelRegistry(domain="toychar")
    models.publish(parser)
    loop = MaintenanceLoop(
        models, CorpusOracle(corpus), replay=corpus,
        config=MaintenanceConfig(min_cluster_size=3),
    )
    # One-line records pass the gate; fingerprints use the skeleton.
    assert loop.gate.min_lines == 1
    assert loop.detector.fingerprint("a: 1") == shape_fingerprint("a: 1")


def test_loop_keeps_line_defaults_for_whois():
    models = ModelRegistry(domain="whois")
    loop = MaintenanceLoop(
        models, CorpusOracle([]), replay=[],
        config=MaintenanceConfig(min_cluster_size=3),
    )
    assert loop.gate.min_lines > 1
    sample = "Domain Name: EXAMPLE.COM\nRegistrar: X"
    assert loop.detector.fingerprint(sample) == format_fingerprint(sample)


def test_register_rejects_unknown_granularity():
    with pytest.raises((ValueError, errors.ReproError)):
        WhoisParser(
            domain=DomainSpec(
                name="brokenchar",
                block_labels=("a", "b"),
                featurizer_config=FeaturizerConfig(granularity="word"),
            )
        )
