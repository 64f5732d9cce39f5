"""Engine performance: objective evaluation and decoding throughput.

These are classic pytest-benchmark targets (many rounds, statistics):
the batched objective is the training bottleneck, Viterbi decoding the
parse-time bottleneck; both underpin the 102M-record ambitions of
Section 6.  With ``--benchmark-disable`` each target runs once, untimed,
and only its assertions are checked.
"""

import numpy as np
import pytest
from conftest import emit

from repro.crf.batch import EncodedBatch, batch_nll_grad
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.parser.bulk import fit_encoder
from repro.whois.features import WhoisFeaturizer
from repro.whois.labels import BLOCK_LABELS


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
