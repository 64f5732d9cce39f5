"""Property tests: a batch's objective equals the sum over its rows.

Each row scored alone -- a batch of one, no padding -- is the
per-sequence reference: padding, masking and cutting the rows into
several batches must not change what the whole batch computes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crf.batch import EncodedBatch, batch_forward_backward, batch_nll_grad
from repro.crf.features import FeatureIndex, Sequence
from repro.crf.objective import ParamView


def random_dataset(rng, n_seqs, n_labels=3, vocab=8, max_len=6):
    """Random sequences with random attributes/labels over a tiny vocab."""
    words = [f"w{i}" for i in range(vocab)]
    markers = ["NL", "SHL"]
    labels = [f"y{i}" for i in range(n_labels)]
    seqs, label_seqs = [], []
    for _ in range(n_seqs):
        length = rng.integers(1, max_len + 1)
        obs = [
            list(rng.choice(words, size=rng.integers(1, 4), replace=False))
            for _ in range(length)
        ]
        edge = [
            list(rng.choice(markers, size=rng.integers(0, 3), replace=False))
            for _ in range(length)
        ]
        seqs.append(Sequence(obs=obs, edge=edge))
        label_seqs.append(list(rng.choice(labels, size=length)))
    index = FeatureIndex(labels).build(seqs)
    dataset = [
        (index.encode(s), index.encode_labels(l))
        for s, l in zip(seqs, label_seqs)
    ]
    return dataset, index


def per_sequence_nll_grad(params, dataset, index, l2):
    """The objective summed over batches of one row each."""
    nll, grad = 0.0, np.zeros_like(params)
    for row in dataset:
        row_nll, row_grad = batch_nll_grad(
            params, [EncodedBatch([row], index)], index, 0.0
        )
        nll += row_nll
        grad += row_grad
    return nll + 0.5 * l2 * float(params @ params), grad + l2 * params


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_batched_objective_matches_sequential(n_seqs, seed):
    rng = np.random.default_rng(seed)
    dataset, index = random_dataset(rng, n_seqs)
    params = rng.normal(scale=0.7, size=index.n_features)
    nll_seq, grad_seq = per_sequence_nll_grad(params, dataset, index, l2=0.4)
    batch = EncodedBatch(dataset, index)
    nll_batch, grad_batch = batch_nll_grad(params, [batch], index, l2=0.4)
    assert nll_batch == pytest.approx(nll_seq, rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(grad_batch, grad_seq, atol=1e-9)


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_chunked_objective_matches_whole_batch(n_seqs, chunk, seed):
    rng = np.random.default_rng(seed)
    dataset, index = random_dataset(rng, n_seqs)
    params = rng.normal(scale=0.5, size=index.n_features)
    whole = batch_nll_grad(
        params, [EncodedBatch(dataset, index)], index, l2=0.2
    )
    slices = [
        EncodedBatch(dataset[start:start + chunk], index)
        for start in range(0, n_seqs, chunk)
    ]
    chunked = batch_nll_grad(params, slices, index, l2=0.2)
    assert chunked[0] == pytest.approx(whole[0], rel=1e-10)
    np.testing.assert_allclose(chunked[1], whole[1], atol=1e-10)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_batched_log_partition_matches_per_sequence(seed):
    rng = np.random.default_rng(seed)
    dataset, index = random_dataset(rng, 5)
    params = rng.normal(size=index.n_features)
    view = ParamView.of(params, index)
    batch = EncodedBatch(dataset, index)
    emit, trans = batch.potentials(view)
    _alpha, _beta, log_z = batch_forward_backward(batch, emit, trans)
    for r, row in enumerate(dataset):
        single = EncodedBatch([row], index)
        e, t = single.potentials(view)
        _a, _b, row_log_z = batch_forward_backward(single, e, t)
        assert log_z[r] == pytest.approx(row_log_z[0], rel=1e-9)


def test_empty_batch_rejected():
    index = FeatureIndex(["a"]).build([Sequence(obs=[["x"]])])
    with pytest.raises(ValueError):
        EncodedBatch([], index)


def test_batch_of_single_token_sequences():
    seqs = [Sequence(obs=[["x"]]), Sequence(obs=[["y"]])]
    labels = [["a"], ["b"]]
    index = FeatureIndex(["a", "b"]).build(seqs)
    dataset = [
        (index.encode(s), index.encode_labels(l))
        for s, l in zip(seqs, labels)
    ]
    rng = np.random.default_rng(0)
    params = rng.normal(size=index.n_features)
    nll_seq, grad_seq = per_sequence_nll_grad(params, dataset, index, l2=0.0)
    batch = EncodedBatch(dataset, index)
    nll_batch, grad_batch = batch_nll_grad(params, [batch], index, l2=0.0)
    assert nll_batch == pytest.approx(nll_seq)
    np.testing.assert_allclose(grad_batch, grad_seq, atol=1e-10)


def test_ragged_lengths_mask_padding_correctly():
    # One long and one short sequence: padding must not leak into the NLL.
    seqs = [
        Sequence(obs=[["x"], ["y"], ["x"], ["y"], ["x"]]),
        Sequence(obs=[["y"]]),
    ]
    labels = [["a", "b", "a", "b", "a"], ["b"]]
    index = FeatureIndex(["a", "b"]).build(seqs)
    dataset = [
        (index.encode(s), index.encode_labels(l))
        for s, l in zip(seqs, labels)
    ]
    rng = np.random.default_rng(4)
    params = rng.normal(size=index.n_features)
    nll_seq, grad_seq = per_sequence_nll_grad(params, dataset, index, l2=0.0)
    batch = EncodedBatch(dataset, index)
    nll_batch, grad_batch = batch_nll_grad(params, [batch], index, l2=0.0)
    assert nll_batch == pytest.approx(nll_seq, rel=1e-10)
    np.testing.assert_allclose(grad_batch, grad_seq, atol=1e-10)
