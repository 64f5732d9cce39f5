"""Engine performance: objective evaluation and decoding throughput.

These are classic pytest-benchmark targets (many rounds, statistics):
the batched objective is the training bottleneck, Viterbi decoding the
parse-time bottleneck; both underpin the 102M-record ambitions of
Section 6.  The forward-backward targets run the recursions alone at
the two levels' real shapes (200 records' block lines, 6 labels; their
registrant segments, 12 labels) and check them bit for bit against the
per-step reference kept in ``tests/test_crf_batch.py``.  With
``--benchmark-disable`` each target runs once, untimed, and only its
assertions are checked.
"""

import numpy as np
import pytest
from conftest import emit

from repro.crf.batch import EncodedBatch, batch_forward_backward, batch_nll_grad
from repro.crf.objective import ParamView
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.domain import get_domain, sub_segments
from repro.parser.bulk import fit_encoder
from repro.whois.features import WhoisFeaturizer
from repro.whois.labels import BLOCK_LABELS
from tests.test_crf_batch import reference_forward_backward


@pytest.fixture(scope="module")
def encoded_world():
    generator = CorpusGenerator(CorpusConfig(seed=42))
    corpus = generator.labeled_corpus(200)
    featurizer = WhoisFeaturizer()
    encoder = fit_encoder(
        featurizer, BLOCK_LABELS, [r.raw_lines for r in corpus]
    )
    index = encoder.index
    dataset = [
        (encoder.encode_record(r.raw_lines), index.encode_labels(r.block_labels))
        for r in corpus
    ]
    batch = EncodedBatch(dataset, index)
    rng = np.random.default_rng(0)
    params = rng.normal(scale=0.1, size=index.n_features)
    return corpus, featurizer, index, batch, params


@pytest.fixture(scope="module")
def registrant_world(encoded_world):
    """The registrant segments of ``encoded_world``'s corpus as one batch,
    with random parameters."""
    corpus, featurizer, *_ = encoded_world
    spec = get_domain("whois")
    segments = [seg for r in corpus for seg in sub_segments(r, spec)]
    encoder = fit_encoder(
        featurizer, spec.sub_labels, [units for units, _labels in segments]
    )
    index = encoder.index
    dataset = [
        (encoder.encode_record(units), index.encode_labels(labels))
        for units, labels in segments
    ]
    rng = np.random.default_rng(1)
    params = rng.normal(scale=0.1, size=index.n_features)
    return index, EncodedBatch(dataset, index), params


@pytest.mark.parametrize("level", ["block", "registrant"])
def test_forward_backward_kernel(
    benchmark, encoded_world, registrant_world, level
):
    if level == "block":
        _corpus, _featurizer, index, batch, params = encoded_world
    else:
        index, batch, params = registrant_world
    potentials = batch.potentials(ParamView.of(params, index))
    tables = benchmark(batch_forward_backward, batch, *potentials)
    reference = reference_forward_backward(batch, *potentials)
    for table, expected in zip(tables, reference):
        assert np.array_equal(table, expected)
    if benchmark.enabled:
        per_pass = benchmark.stats["mean"]
        emit(
            f"Engine: forward-backward, {level} level",
            f"{batch.n_records} rows x {batch.t_max} tokens x "
            f"{batch.n_states} labels ({batch.n_tokens} real tokens); "
            f"{per_pass * 1000:.2f} ms/pass => "
            f"{batch.n_tokens / per_pass:,.0f} tokens/s",
        )


def test_batched_objective_throughput(benchmark, encoded_world):
    corpus, _featurizer, index, batch, params = encoded_world

    def step():
        return batch_nll_grad(params, [batch], index, l2=0.1)

    nll, _grad = benchmark(step)
    if benchmark.enabled:
        tokens = batch.n_tokens
        per_eval = benchmark.stats["mean"]
        emit(
            "Engine: batched objective (one L-BFGS evaluation, 200 records)",
            f"{tokens} tokens/evaluation; {per_eval * 1000:.1f} "
            f"ms/evaluation => {tokens / per_eval:,.0f} tokens/s",
        )
    assert np.isfinite(nll)


def test_viterbi_parse_throughput(benchmark, encoded_world, trained_parser):
    corpus, *_ = encoded_world
    records = [r.to_record() for r in corpus[:50]]

    def parse_all():
        return [trained_parser.predict_blocks(r) for r in records]

    results = benchmark(parse_all)
    assert len(results) == 50
    if benchmark.enabled:
        per_batch = benchmark.stats["mean"]
        emit(
            "Engine: Viterbi block labeling (50 records/round)",
            f"{50 / per_batch:,.0f} records/s "
            f"(~{86_400 * 50 / per_batch / 1e6:,.0f}M records/day on one "
            f"core -- the 102M com corpus is a day-scale parse)",
        )


def test_full_parse_throughput(benchmark, encoded_world, trained_parser):
    corpus, *_ = encoded_world
    records = [r.to_record() for r in corpus[:30]]

    def parse_all():
        return [trained_parser.parse(r) for r in records]

    parsed = benchmark(parse_all)
    assert all(p.domain for p in parsed[:5])
