"""Property tests: a batch's objective equals the sum over its rows.

Each row scored alone -- a batch of one, no padding -- is the
per-sequence reference: padding, masking and cutting the rows into
several batches must not change what the whole batch computes.

The sparse design matrices are checked against a second reference, the
scatter formulation they replaced: potentials summed per column with
``np.bincount`` and the gradient scattered with ``np.add.at``, over the
same ``(slot, attribute)`` occurrences in the same order.  On one batch
the two must agree bit for bit, since both add each sum's terms in
occurrence order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crf.batch import EncodedBatch, batch_forward_backward, batch_nll_grad
from repro.crf.decode import batch_marginals, batch_viterbi
from repro.crf.features import EncodedSequence
from repro.crf.model import ChainCRF
from repro.crf.objective import ParamView
from tests.crf_data import indexed


def random_sequences(rng, n_seqs, n_labels=3, vocab=8, max_len=6):
    """Random encoded sequences and label sequences over a tiny
    vocabulary, with edge attributes, and their index; the last sequence
    has length 1."""
    words = [f"w{i}" for i in range(vocab)]
    markers = ["NL", "SHL"]
    labels = [f"y{i}" for i in range(n_labels)]
    seqs, label_seqs = [], []
    for n in range(n_seqs):
        length = 1 if n == n_seqs - 1 else rng.integers(1, max_len + 1)
        obs = [
            list(rng.choice(words, size=rng.integers(1, 4), replace=False))
            for _ in range(length)
        ]
        edge = [
            list(rng.choice(markers, size=rng.integers(0, 3), replace=False))
            for _ in range(length)
        ]
        seqs.append((obs, edge))
        label_seqs.append(list(rng.choice(labels, size=length)))
    index, encoded = indexed(labels, seqs)
    return encoded, label_seqs, index


def random_dataset(rng, n_seqs, n_labels=3, vocab=8, max_len=6):
    """Random encoded ``(sequence, label ids)`` rows and their index."""
    encoded, label_seqs, index = random_sequences(
        rng, n_seqs, n_labels, vocab, max_len
    )
    dataset = [
        (seq, index.encode_labels(l)) for seq, l in zip(encoded, label_seqs)
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
    index, _ = indexed(["a"], [[["x"]]])
    with pytest.raises(ValueError):
        EncodedBatch([], index)


def test_batch_of_single_token_sequences():
    index, seqs = indexed(["a", "b"], [[["x"]], [["y"]]])
    labels = [["a"], ["b"]]
    dataset = [
        (seq, index.encode_labels(l)) for seq, l in zip(seqs, labels)
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
    index, seqs = indexed(
        ["a", "b"], [[["x"], ["y"], ["x"], ["y"], ["x"]], [["y"]]]
    )
    labels = [["a", "b", "a", "b", "a"], ["b"]]
    dataset = [
        (seq, index.encode_labels(l)) for seq, l in zip(seqs, labels)
    ]
    rng = np.random.default_rng(4)
    params = rng.normal(size=index.n_features)
    nll_seq, grad_seq = per_sequence_nll_grad(params, dataset, index, l2=0.0)
    batch = EncodedBatch(dataset, index)
    nll_batch, grad_batch = batch_nll_grad(params, [batch], index, l2=0.0)
    assert nll_batch == pytest.approx(nll_seq, rel=1e-10)
    np.testing.assert_allclose(grad_batch, grad_seq, atol=1e-10)


# ----------------------------------------------------------------------
# The scatter formulation, kept as the reference for the design matrices
# ----------------------------------------------------------------------


def _scatter_rows(out, idx, values):
    """``out[idx] += values`` with repeated indices, one bincount per column."""
    n = out.shape[0]
    for k in range(out.shape[1]):
        out[:, k] += np.bincount(idx, weights=values[:, k], minlength=n)


def _occurrences(sequences, t_max):
    """``(obs_rt, obs_a, edge_rt, edge_a)``: one entry per (slot, attribute)
    occurrence in token order, on the padded ``(R*T)`` token axis and the
    ``(R*(T-1))`` transition axis."""
    t1 = max(t_max - 1, 1)
    obs_rt, obs_a, edge_rt, edge_a = [], [], [], []
    for r, seq in enumerate(sequences):
        for t, ids in enumerate(seq.obs_ids):
            obs_rt += [r * t_max + t] * len(ids)
            obs_a += ids
        for t, ids in enumerate(seq.edge_ids):
            if t and ids:
                edge_rt += [r * t1 + t - 1] * len(ids)
                edge_a += ids
    return [np.asarray(v, dtype=np.intp) for v in (obs_rt, obs_a, edge_rt, edge_a)]


def scatter_potentials(batch, sequences, view):
    """``EncodedBatch.potentials`` in the scatter formulation."""
    obs_rt, obs_a, edge_rt, edge_a = _occurrences(sequences, batch.t_max)
    n_r, t_max, n_s = batch.n_records, batch.t_max, batch.n_states
    t1 = max(t_max - 1, 0)
    emit = np.zeros((n_r * t_max, n_s))
    if obs_a.size:
        _scatter_rows(emit, obs_rt, view.obs[obs_a])
    emit = emit.reshape(n_r, t_max, n_s)
    emit[:, 0, :] += view.start[None, :]
    if not edge_a.size:
        return emit, np.broadcast_to(view.trans, (n_r, t1, n_s, n_s))
    trans = np.empty((n_r * t1, n_s, n_s))
    trans[:] = view.trans
    _scatter_rows(
        trans.reshape(len(trans), -1),
        edge_rt,
        view.edge[edge_a].reshape(len(edge_a), -1),
    )
    return emit, trans.reshape(n_r, t1, n_s, n_s)


def scatter_nll_grad(params, dataset, index, l2):
    """The regularized objective of one batch in the scatter formulation."""
    sequences = [seq for seq, _labels in dataset]
    batch = EncodedBatch(dataset, index)
    obs_rt, obs_a, edge_rt, edge_a = _occurrences(sequences, batch.t_max)
    n_s = batch.n_states
    view = ParamView.of(params, index)
    grad = np.zeros_like(params)
    grad_view = ParamView.of(grad, index)
    emit, trans = scatter_potentials(batch, sequences, view)
    alpha, beta, log_z = batch_forward_backward(batch, emit, trans)
    nll = float(log_z.sum()) - batch.observed_score(emit, trans)
    node = np.exp(alpha + beta - log_z[:, None, None])
    node *= batch.token_mask[:, :, None]
    r_idx, t_idx = np.nonzero(batch.token_mask)
    node[r_idx, t_idx, batch.labels[r_idx, t_idx]] -= 1.0
    grad_view.start += node[:, 0, :].sum(axis=0)
    if obs_a.size:
        np.add.at(grad_view.obs, obs_a, node.reshape(-1, n_s)[obs_rt])
    if batch.t_max > 1:
        edges = np.exp(
            alpha[:, :-1, :, None]
            + trans
            + (emit[:, 1:] + beta[:, 1:])[:, :, None, :]
            - log_z[:, None, None, None]
        )
        edges *= batch.trans_mask[:, :, None, None]
        r_idx, t_idx = np.nonzero(batch.trans_mask)
        edges[
            r_idx, t_idx,
            batch.labels[r_idx, t_idx],
            batch.labels[r_idx, t_idx + 1],
        ] -= 1.0
        grad_view.trans += edges.sum(axis=(0, 1))
        if edge_a.size:
            np.add.at(
                grad_view.edge, edge_a, edges.reshape(-1, n_s, n_s)[edge_rt]
            )
    if l2 > 0.0:
        nll += 0.5 * l2 * float(params @ params)
        grad += l2 * params
    return nll, grad


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_design_matrix_objective_is_bit_identical_to_scatter(n_seqs, seed):
    rng = np.random.default_rng(seed)
    dataset, index = random_dataset(rng, n_seqs)
    params = rng.normal(scale=0.7, size=index.n_features)
    batch = EncodedBatch(dataset, index)
    view = ParamView.of(params, index)
    emit, trans = batch.potentials(view)
    ref_emit, ref_trans = scatter_potentials(
        batch, [seq for seq, _labels in dataset], view
    )
    assert np.array_equal(emit, ref_emit)
    assert np.array_equal(trans, ref_trans)
    nll, grad = batch_nll_grad(params, [batch], index, l2=0.3)
    ref_nll, ref_grad = scatter_nll_grad(params, dataset, index, l2=0.3)
    assert nll == ref_nll
    assert np.array_equal(grad, ref_grad)


def test_design_matrices_hold_every_occurrence_in_order():
    rng = np.random.default_rng(11)
    dataset, index = random_dataset(rng, 6)
    batch = EncodedBatch(dataset, index)
    obs_rt, obs_a, edge_rt, edge_a = _occurrences(
        [seq for seq, _labels in dataset], batch.t_max
    )
    assert edge_a.size, "the dataset should fire edge attributes"
    for matrix, rows, ids in (
        (batch.obs_matrix, obs_rt, obs_a),
        (batch.edge_matrix, edge_rt, edge_a),
    ):
        assert np.array_equal(
            np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr)), rows
        )
        assert np.array_equal(matrix.indices, ids)
        assert np.all(matrix.data == 1.0)


def test_design_matrices_reject_out_of_range_ids():
    rng = np.random.default_rng(2)
    dataset, index = random_dataset(rng, 3)
    seq = dataset[0][0]
    flat, counts = seq.packed_obs()
    bad = flat.copy()
    bad[0] = index.n_obs
    with pytest.raises(ValueError, match="attribute id"):
        EncodedBatch.from_encoded(
            [EncodedSequence.from_packed(bad, counts, seq.edge_ids)], index
        )


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_predictions_are_bit_identical_to_scatter_potentials(n_seqs, seed):
    rng = np.random.default_rng(seed)
    encoded, label_seqs, index = random_sequences(rng, n_seqs)
    crf = ChainCRF(index.labels, l2=0.5, max_iterations=5).fit(
        index, encoded, label_seqs
    )
    crf.params = crf.params + rng.normal(scale=0.5, size=crf.params.shape)
    paths = crf.predict_many(encoded)
    marginals = [
        node for _path, node in crf.predict_with_marginals_many(encoded)
    ]
    # predict_many's batch: the rows sorted by length, one chunk.
    order = sorted(range(n_seqs), key=lambda i: len(encoded[i]))
    rows = [encoded[i] for i in order]
    batch = EncodedBatch.from_encoded(rows, crf.index)
    emit, trans = scatter_potentials(
        batch, rows, ParamView.of(crf.params, crf.index)
    )
    for i, path, node in zip(
        order,
        batch_viterbi(batch, emit, trans),
        batch_marginals(batch, emit, trans),
    ):
        assert paths[i] == crf.index.decode_labels(path.tolist())
        assert np.array_equal(marginals[i], node)
