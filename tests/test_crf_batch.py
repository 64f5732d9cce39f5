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

The edge matrix is checked against the per-token loop that built it
while edge ids were per-token lists: indptr, indices and data must be
equal, with first-token ids left out and each token's id order kept.

The recursions are checked against a fourth reference, the per-step
formulation they replaced: each step broadcasts the previous row into a
``(R, S, S)`` table and reduces it with keepdims log-sum-exp, Viterbi
reads its best value back with ``np.take_along_axis``, and the
objective's edge marginals run over every padded slot.  The kernel must
give the same floats, for label counts on both sides of numpy's
eight-term pairwise summation, on ragged rows with garbage in the
padding and with broadcast and materialized transitions alike.
"""

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crf.batch import EncodedBatch, batch_forward_backward, batch_nll_grad
from repro.crf.decode import batch_marginals, batch_viterbi
from repro.crf.features import EncodedSequence
from repro.crf.model import ChainCRF
from repro.crf.objective import ParamView
from tests.crf_data import indexed, pack, unpack
from tests.test_crf_inference import ragged_batch


def random_sequences(
    rng, n_seqs, n_labels=3, vocab=8, max_len=6, edges=True
):
    """Random encoded sequences and label sequences over a tiny
    vocabulary, with edge attributes unless ``edges`` is false, and
    their index; the last sequence has length 1."""
    words = [f"w{i}" for i in range(vocab)]
    markers = ["NL", "SHL"] if edges else []
    labels = [f"y{i}" for i in range(n_labels)]
    seqs, label_seqs = [], []
    for n in range(n_seqs):
        length = 1 if n == n_seqs - 1 else rng.integers(1, max_len + 1)
        obs = [
            list(rng.choice(words, size=rng.integers(1, 4), replace=False))
            for _ in range(length)
        ]
        edge = [
            list(
                rng.choice(
                    markers,
                    size=rng.integers(0, len(markers) + 1),
                    replace=False,
                )
            )
            for _ in range(length)
        ]
        seqs.append((obs, edge))
        label_seqs.append(list(rng.choice(labels, size=length)))
    index, encoded = indexed(labels, seqs)
    return encoded, label_seqs, index


def random_dataset(rng, n_seqs, n_labels=3, vocab=8, max_len=6, edges=True):
    """Random encoded ``(sequence, label ids)`` rows and their index."""
    encoded, label_seqs, index = random_sequences(
        rng, n_seqs, n_labels, vocab, max_len, edges
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
        obs_ids, edge_ids = unpack(seq)
        for t, ids in enumerate(obs_ids):
            obs_rt += [r * t_max + t] * len(ids)
            obs_a += ids
        for t, ids in enumerate(edge_ids):
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


def reference_nll_grad(params, dataset, index, l2, *, scatter=False):
    """The regularized objective of one batch through the reference
    recursions, with potentials and feature expectations from the design
    matrices or, with ``scatter``, in the scatter formulation."""
    sequences = [seq for seq, _labels in dataset]
    batch = EncodedBatch(dataset, index)
    n_s = batch.n_states
    view = ParamView.of(params, index)
    grad = np.zeros_like(params)
    grad_view = ParamView.of(grad, index)
    if scatter:
        obs_rt, obs_a, edge_rt, edge_a = _occurrences(sequences, batch.t_max)
        emit, trans = scatter_potentials(batch, sequences, view)
    else:
        emit, trans = batch.potentials(view)
    alpha, beta, log_z = reference_forward_backward(batch, emit, trans)
    r_idx, t_idx = np.nonzero(batch.token_mask)
    score = float(emit[r_idx, t_idx, batch.labels[r_idx, t_idx]].sum())
    if batch.t_max > 1:
        r_idx, t_idx = np.nonzero(batch.trans_mask)
        score += float(
            trans[
                r_idx, t_idx,
                batch.labels[r_idx, t_idx],
                batch.labels[r_idx, t_idx + 1],
            ].sum()
        )
    nll = float(log_z.sum()) - score
    node = np.exp(alpha + beta - log_z[:, None, None])
    node *= batch.token_mask[:, :, None]
    r_idx, t_idx = np.nonzero(batch.token_mask)
    node[r_idx, t_idx, batch.labels[r_idx, t_idx]] -= 1.0
    grad_view.start += node[:, 0, :].sum(axis=0)
    if not scatter:
        grad_view.obs += batch.obs_matrix.T @ node.reshape(-1, n_s)
    elif obs_a.size:
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
        if not scatter:
            if batch.edge_matrix.nnz:
                grad_view.edge += (
                    batch.edge_matrix.T @ edges.reshape(-1, n_s * n_s)
                ).reshape(-1, n_s, n_s)
        elif edge_a.size:
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
    ref_nll, ref_grad = reference_nll_grad(
        params, dataset, index, l2=0.3, scatter=True
    )
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
    index, _ = indexed(["a", "b"], [([["x"], ["y"]], [[], ["NL"]])])
    # One id past the vocabulary, on the observation side, then on the
    # edge side (on the second token: the first token's never count).
    for obs_flat, edge_flat in (
        ([0, index.n_obs], [0]),
        ([0, 1], [index.n_edge]),
    ):
        seq = EncodedSequence(obs_flat, [1, 1], edge_flat, [0, 1])
        with pytest.raises(ValueError, match="attribute id"):
            EncodedBatch.from_encoded([seq], index)


# ----------------------------------------------------------------------
# The per-token edge loop, kept as the reference for the packed build
# ----------------------------------------------------------------------


def reference_edge_matrix(sequences):
    """``(indptr, indices, data)`` of the edge matrix built the way it
    was while edge ids were per-token lists: a loop over every token
    from the second on, skipping tokens without ids."""
    t1 = max(max(len(seq) for seq in sequences) - 1, 0)
    edge_pos, edge_counts, edge_lists = [], [], []
    for r, seq in enumerate(sequences):
        for t, ids in enumerate(unpack(seq)[1]):
            if t and ids:
                edge_pos.append(r * t1 + t - 1)
                edge_counts.append(len(ids))
                edge_lists.append(ids)
    slot_counts = np.zeros(len(sequences) * t1, dtype=np.intp)
    slot_counts[edge_pos] = edge_counts
    indptr = np.zeros(len(slot_counts) + 1, dtype=np.intp)
    np.cumsum(slot_counts, out=indptr[1:])
    ids = np.array(list(chain.from_iterable(edge_lists)), dtype=np.intp)
    return indptr, ids, np.ones(len(ids))


#: Per-token edge ids: none, or distinct ids in any (unsorted) order.
EDGE_IDS = st.lists(
    st.integers(min_value=0, max_value=4), unique=True, max_size=4
)


@given(
    st.lists(
        st.lists(EDGE_IDS, min_size=1, max_size=6), min_size=0, max_size=6
    ),
)
@settings(max_examples=80, deadline=None)
def test_packed_edge_matrix_equals_the_per_token_loop(records):
    # Every batch also holds a record whose first token carries ids
    # (which no transition reads) and whose later tokens hold unsorted
    # ids and none, and a length-1 record with ids of its own.
    records = [[[3, 1], [2, 0, 4], [], [4, 1]], *records, [[2]]]
    index, _ = indexed(["a", "b"], [[["x"]]])
    index.edge_vocab.update({f"e{i}": i for i in range(5)})
    sequences = [
        pack([[0] for _ in edge_ids], edge_ids) for edge_ids in records
    ]
    matrix = EncodedBatch.from_encoded(sequences, index).edge_matrix
    indptr, ids, data = reference_edge_matrix(sequences)
    assert np.array_equal(matrix.indptr, indptr)
    assert np.array_equal(matrix.indices, ids)
    assert np.array_equal(matrix.data, data)
    assert matrix.nnz == sum(
        len(token) for edge_ids in records for token in edge_ids[1:]
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


# ----------------------------------------------------------------------
# The per-step recursions, kept as the reference for the kernel
# ----------------------------------------------------------------------


def reference_logsumexp(x, axis):
    """Max-subtraction log-sum-exp along ``axis``, keepdims and squeeze."""
    m = np.max(x, axis=axis, keepdims=True)
    m = np.maximum(m, -1e30)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def reference_forward_backward(batch, emit, trans):
    """``batch_forward_backward`` with one ``(R, S, S)`` table per step,
    reduced over its middle (forward) or last (backward) axis."""
    n_r, t_max, n_s = emit.shape
    alpha = np.empty((n_r, t_max, n_s))
    alpha[:, 0] = emit[:, 0]
    for t in range(1, t_max):
        prev = alpha[:, t - 1]
        scores = prev[:, :, None] + trans[:, t - 1]
        new = reference_logsumexp(scores, axis=1) + emit[:, t]
        active = batch.token_mask[:, t]
        alpha[:, t] = np.where(active[:, None], new, prev)
    last = batch.lengths - 1
    log_z = reference_logsumexp(alpha[np.arange(n_r), last], axis=1)
    beta = np.zeros((n_r, t_max, n_s))
    for t in range(t_max - 2, -1, -1):
        nxt = emit[:, t + 1] + beta[:, t + 1]
        scores = trans[:, t] + nxt[:, None, :]
        new = reference_logsumexp(scores, axis=2)
        active = batch.token_mask[:, t + 1]
        beta[:, t] = np.where(active[:, None], new, beta[:, t])
    return alpha, beta, log_z


def reference_viterbi(batch, emit, trans):
    """``batch_viterbi`` reading each step's best value back with
    ``np.take_along_axis``."""
    n_r, t_max, n_s = emit.shape
    value = emit[:, 0].copy()
    back = np.empty((n_r, max(t_max - 1, 0), n_s), dtype=np.intp)
    rows = np.arange(n_r)
    for t in range(1, t_max):
        scores = value[:, :, None] + trans[:, t - 1]
        best_prev = np.argmax(scores, axis=1)
        back[:, t - 1] = best_prev
        new = (
            np.take_along_axis(scores, best_prev[:, None, :], axis=1)[:, 0, :]
            + emit[:, t]
        )
        active = batch.token_mask[:, t]
        value = np.where(active[:, None], new, value)
    last = batch.lengths - 1
    labels = np.full((n_r, t_max), -1, dtype=np.intp)
    labels[rows, last] = np.argmax(value, axis=1)
    for t in range(t_max - 2, -1, -1):
        nxt = np.maximum(labels[:, t + 1], 0)
        prev_lab = back[rows, t, nxt]
        labels[:, t] = np.where(t < last, prev_lab, labels[:, t])
    return [labels[r, : batch.lengths[r]].copy() for r in range(n_r)]


#: Label counts on both sides of numpy's pairwise summation, which adds
#: a last axis of eight or more terms in eight partial sums.
LABEL_COUNTS = [2, 3, 6, 8, 12, 13]


def garbage_padded_batch(rng, lengths, n_states, broadcast):
    """A ragged inference batch, its potentials with garbage past each
    row's length, and transitions either materialized per slot or one
    ``(S, S)`` matrix broadcast over every slot."""
    batch = ragged_batch(lengths, n_states)
    n_r, t1 = len(lengths), batch.t_max - 1
    emit = rng.normal(scale=3.0, size=(n_r, batch.t_max, n_states))
    if broadcast:
        trans = np.broadcast_to(
            rng.normal(scale=3.0, size=(n_states, n_states)),
            (n_r, t1, n_states, n_states),
        )
    else:
        trans = rng.normal(scale=3.0, size=(n_r, t1, n_states, n_states))
    return batch, emit, trans


@given(
    st.sampled_from(LABEL_COUNTS),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_recursions_are_bit_identical_to_the_reference(
    n_states, lengths, broadcast, seed
):
    rng = np.random.default_rng(seed)
    batch, emit, trans = garbage_padded_batch(
        rng, lengths + [1], n_states, broadcast
    )
    alpha, beta, log_z = batch_forward_backward(batch, emit, trans)
    ref_alpha, ref_beta, ref_log_z = reference_forward_backward(
        batch, emit, trans
    )
    assert np.array_equal(alpha, ref_alpha)
    assert np.array_equal(beta, ref_beta)
    assert np.array_equal(log_z, ref_log_z)
    ref_node = np.exp(ref_alpha + ref_beta - ref_log_z[:, None, None])
    for r, node in enumerate(batch_marginals(batch, emit, trans)):
        assert np.array_equal(node, ref_node[r, : batch.lengths[r]])
    for path, ref_path in zip(
        batch_viterbi(batch, emit, trans), reference_viterbi(batch, emit, trans)
    ):
        assert np.array_equal(path, ref_path)


@given(
    st.sampled_from(LABEL_COUNTS),
    st.integers(min_value=1, max_value=9),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_objective_is_bit_identical_to_the_reference(
    n_labels, n_seqs, edges, seed
):
    rng = np.random.default_rng(seed)
    dataset, index = random_dataset(
        rng, n_seqs, n_labels=n_labels, max_len=9, edges=edges
    )
    params = rng.normal(scale=0.7, size=index.n_features)
    batch = EncodedBatch(dataset, index)
    nll, grad = batch_nll_grad(params, [batch], index, l2=0.3)
    ref_nll, ref_grad = reference_nll_grad(params, dataset, index, l2=0.3)
    assert nll == ref_nll
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("lengths", [[1, 2, 4, 4, 7], [4, 1, 7, 2, 4]])
def test_recursions_step_only_the_rows_that_reach_each_position(lengths):
    # Sorted by length, as inference decodes, every step is a slice of
    # the batch; unsorted, as training batches are, later steps index.
    rng = np.random.default_rng(5)
    batch, emit, trans = garbage_padded_batch(rng, lengths, 6, False)
    steps = batch.active_rows
    assert all(isinstance(rows, slice) for rows in steps) == (
        lengths == sorted(lengths)
    )
    for t, rows in enumerate(steps):
        reached = np.flatnonzero(np.array(lengths) > t)
        assert np.array_equal(np.arange(len(lengths))[rows], reached)
    tables = batch_forward_backward(batch, emit, trans)
    for table, expected in zip(
        tables, reference_forward_backward(batch, emit, trans)
    ):
        assert np.array_equal(table, expected)
    for path, ref_path in zip(
        batch_viterbi(batch, emit, trans), reference_viterbi(batch, emit, trans)
    ):
        assert np.array_equal(path, ref_path)
