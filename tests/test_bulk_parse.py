"""The bulk inference path must be bit-identical to the per-record path.

``predict_many`` / ``parse_many`` / ``label_lines_many`` exist purely for
throughput (the Section 6 survey); every test here pins their outputs to
the corresponding per-record loop, across input kinds, process counts,
and the edge cases batching tends to break (length-1 sequences, empty
batches, records with no registrant block).
"""

import pickle

import numpy as np
import pytest

from repro.crf import model as crf_model
from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.parser import WhoisParser
from repro.parser.bulk import LineEncoder


@pytest.fixture(scope="module")
def world():
    gen = CorpusGenerator(CorpusConfig(seed=7))
    train = gen.labeled_corpus(80)
    parser = WhoisParser(l2=0.1).fit(train)
    # Mixed test set: drifted schemas exercise templates the model never
    # saw, where tie-breaking and unknown-attribute handling matter most.
    test = [
        r.to_record()
        for r in CorpusGenerator(
            CorpusConfig(seed=8, drift_probability=0.3)
        ).labeled_corpus(200)
    ]
    return parser, train, test


# ----------------------------------------------------------------------
# ChainCRF.predict_many / predict_with_marginals_many
# ----------------------------------------------------------------------


def _encoded(parser, texts):
    encoder = LineEncoder(parser.featurizer, parser.block_crf.index)
    return [encoder.encode_record(lines) for lines in texts]


def test_predict_many_matches_predict(world, monkeypatch):
    parser, _train, test = world
    crf = parser.block_crf
    sequences = _encoded(parser, [r.lines for r in test[:60]])
    loop = [crf.predict_many([s])[0] for s in sequences]
    assert crf.predict_many(sequences) == loop
    # Small chunks force multi-chunk batching with length-sorted rows.
    monkeypatch.setattr(crf_model, "CHUNK_SIZE", 7)
    assert crf.predict_many(sequences) == loop


def test_predict_marginals_many_matches_per_sequence(world, monkeypatch):
    parser, _train, test = world
    crf = parser.block_crf
    sequences = _encoded(parser, [r.lines for r in test[:30]])
    # Small chunks force multi-chunk batching with length-sorted rows.
    monkeypatch.setattr(crf_model, "CHUNK_SIZE", 11)
    many = crf.predict_with_marginals_many(sequences)
    assert [labels for labels, _ in many] == crf.predict_many(sequences)
    for seq, (labels, batched) in zip(sequences, many):
        ((single_labels, single),) = crf.predict_with_marginals_many([seq])
        assert labels == single_labels
        np.testing.assert_allclose(batched, single, atol=1e-10)


def test_predict_many_empty_and_single(world):
    parser, _train, test = world
    crf = parser.block_crf
    assert crf.predict_many([]) == []
    (seq,) = _encoded(parser, [test[0].lines])
    assert crf.predict_many([seq]) == [parser.predict_blocks(test[0])]


def test_predict_many_length_one_sequences(world):
    parser, _train, _test = world
    crf = parser.block_crf
    sequences = _encoded(
        parser, [["Domain Name: EXAMPLE.COM"], ["Registrant:"]]
    )
    assert crf.predict_many(sequences) == [
        crf.predict_many([s])[0] for s in sequences
    ]


# ----------------------------------------------------------------------
# WhoisParser.parse_many / label_lines_many
# ----------------------------------------------------------------------


def test_parse_many_matches_parse_loop(world):
    parser, _train, test = world
    loop = [parser.parse(r) for r in test]
    assert parser.parse_many(test) == loop
    # A second call runs from a warm line cache; still identical.
    assert parser.parse_many(test) == loop


def test_parse_many_sharded_matches_loop(world):
    parser, _train, test = world
    loop = [parser.parse(r) for r in test]
    assert parser.parse_many(test, jobs=2) == loop


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("method", ["parse_many", "label_lines_many"])
def test_sharded_bulk_calls_match_and_report_worker_metrics(
    world, method, start_method
):
    """``jobs=2`` returns what ``jobs=1`` returns and records the same
    lookups and the same ``parse.*`` spans, through the one process pool."""
    import multiprocessing

    from repro import obs

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start_method} start method here")
    parser, _train, test = world
    # A copy with cold line caches and nothing left undrained.
    parser = pickle.loads(pickle.dumps(parser))
    records = test[:40]
    spans = [("parse.encode_seconds", {"level": "block"}),
             ("parse.encode_seconds", {"level": "registrant"}),
             ("parse.decode_seconds", {"level": "block"}),
             ("parse.decode_seconds", {"level": "registrant"})]
    if method == "parse_many":
        spans.append(("parse.assemble_seconds", {}))
    outputs, lookups = {}, {}
    for jobs in (1, 2):
        registry = obs.MetricsRegistry()
        with obs.use(registry):
            outputs[jobs] = getattr(parser, method)(
                records, jobs=jobs, start_method=start_method
            )
        # Each worker has its own line cache, so hits and misses split
        # differently across workers; the lines looked up do not.
        lookups[jobs] = {
            level: registry.counter_value("parse.line_cache.hits", level=level)
            + registry.counter_value("parse.line_cache.misses", level=level)
            for level in ("block", "registrant")
        }
        for name, labels in spans:
            assert registry.histogram(name, **labels).count >= 1, (jobs, name)
    assert outputs[2] == outputs[1]
    assert lookups[2] == lookups[1]
    assert lookups[1]["block"] > 0 and lookups[1]["registrant"] > 0


def test_label_lines_many_matches_label_lines(world):
    parser, _train, test = world
    subset = test[:60]
    assert parser.label_lines_many(subset) == [
        parser.label_lines(r) for r in subset
    ]


def test_parse_many_edge_cases(world):
    parser, _train, test = world
    assert parser.parse_many([]) == []
    assert parser.parse_many([test[0]]) == [parser.parse(test[0])]
    # No labelable lines at all.
    blank = "\n%%\n\n"
    assert parser.parse_many([blank]) == [parser.parse(blank)]
    # A one-line record and a no-registrant fragment mixed with real ones.
    one_line = "Domain Name: SOLO.COM"
    no_registrant = "Domain Name: BARE.COM\nName Server: NS1.BARE.COM"
    mixed = [one_line, blank, no_registrant, test[1].text]
    assert parser.parse_many(mixed) == [parser.parse(t) for t in mixed]


def test_parse_many_without_second_level():
    gen = CorpusGenerator(CorpusConfig(seed=9))
    parser = WhoisParser(l2=0.1, second_level=False).fit(
        gen.labeled_corpus(40)
    )
    test = [r.to_record() for r in gen.labeled_corpus(30)]
    assert parser.parse_many(test) == [parser.parse(r) for r in test]


# ----------------------------------------------------------------------
# LineEncoder cache semantics
# ----------------------------------------------------------------------


def test_bulk_encoders_invalidated_by_partial_fit(world):
    _parser, train, test = world
    gen = CorpusGenerator(CorpusConfig(seed=11, drift_probability=0.5))
    parser = WhoisParser(l2=0.1).fit(train)
    parser.parse_many(test[:20])
    assert parser._bulk_encoders is not None
    parser.partial_fit(gen.labeled_corpus(10))
    assert parser._bulk_encoders is None
    # Post-refit, bulk still mirrors the (new) per-record behavior.
    assert parser.parse_many(test[:20]) == [
        parser.parse(r) for r in test[:20]
    ]


def test_parser_pickles_without_encoder_cache(world):
    parser, _train, test = world
    parser.parse_many(test[:10])  # populate the caches
    clone = pickle.loads(pickle.dumps(parser))
    assert clone._bulk_encoders is None
    assert clone.parse_many(test[:10]) == parser.parse_many(test[:10])
