"""Batched forward-backward, Viterbi and marginals against brute force.

Every test runs a *ragged* batch: rows of different lengths (length-1
rows included) padded to a common length, with garbage in the padding,
so the masking past each row's own length is checked together with the
recursions themselves.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from repro.crf.batch import EncodedBatch, batch_forward_backward
from repro.crf.decode import batch_marginals, batch_viterbi
from repro.crf.features import EncodedSequence, FeatureIndex


def brute_force_scores(emit, trans):
    """Score of every possible label sequence, by direct enumeration."""
    n_tokens, n_states = emit.shape
    scores = {}
    for labels in itertools.product(range(n_states), repeat=n_tokens):
        score = sum(emit[t, y] for t, y in enumerate(labels))
        score += sum(
            trans[t, labels[t], labels[t + 1]] for t in range(n_tokens - 1)
        )
        scores[labels] = score
    return scores


def ragged_batch(lengths, n_states):
    """An inference batch with rows of the given lengths (no features:
    the tests supply the potentials themselves)."""
    index = FeatureIndex([f"y{j}" for j in range(n_states)])
    return EncodedBatch.from_encoded(
        [EncodedSequence([], [0] * n, [], [0] * n) for n in lengths], index
    )


def random_batch(rng, lengths, n_states, scale=3.0):
    """A ragged batch, padded potentials with garbage past each row's
    length, and the per-row ``(emit, trans)`` slices."""
    batch = ragged_batch(lengths, n_states)
    t_max = batch.t_max
    emit = rng.normal(scale=scale, size=(len(lengths), t_max, n_states))
    trans = rng.normal(
        scale=scale, size=(len(lengths), max(t_max - 1, 0), n_states, n_states)
    )
    rows = [
        (emit[r, :n], trans[r, : n - 1]) for r, n in enumerate(lengths)
    ]
    return batch, emit, trans, rows


def edge_marginals(alpha, beta, log_z, emit, trans, r, n):
    """Eq. (12) for row ``r`` of length ``n``, from the batched tables."""
    return np.exp(
        alpha[r, : n - 1, :, None]
        + trans[r, : n - 1]
        + (emit[r, 1:n] + beta[r, 1:n])[:, None, :]
        - log_z[r]
    )


ragged_params = st.tuples(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=2, max_value=4),  # n_states
    st.integers(min_value=0, max_value=10_000),  # rng seed
)


@given(ragged_params)
@settings(max_examples=40, deadline=None)
def test_log_partition_matches_brute_force(params):
    lengths, n_states, seed = params
    batch, emit, trans, rows = random_batch(
        np.random.default_rng(seed), lengths, n_states
    )
    _alpha, _beta, log_z = batch_forward_backward(batch, emit, trans)
    for r, (e, t) in enumerate(rows):
        expected = logsumexp(list(brute_force_scores(e, t).values()))
        assert log_z[r] == pytest.approx(expected, rel=1e-9)


@given(ragged_params)
@settings(max_examples=40, deadline=None)
def test_viterbi_matches_brute_force_argmax(params):
    lengths, n_states, seed = params
    batch, emit, trans, rows = random_batch(
        np.random.default_rng(seed), lengths, n_states
    )
    paths = batch_viterbi(batch, emit, trans)
    for (e, t), path in zip(rows, paths):
        scores = brute_force_scores(e, t)
        best = max(scores, key=scores.get)
        # Ties are vanishingly unlikely with continuous potentials, but
        # compare scores rather than paths to be safe.
        assert scores[tuple(path.tolist())] == pytest.approx(
            scores[best], rel=1e-9
        )


@given(ragged_params)
@settings(max_examples=30, deadline=None)
def test_node_marginals_match_brute_force(params):
    lengths, n_states, seed = params
    batch, emit, trans, rows = random_batch(
        np.random.default_rng(seed), lengths, n_states
    )
    marginals = batch_marginals(batch, emit, trans)
    for (e, t), got in zip(rows, marginals):
        scores = brute_force_scores(e, t)
        log_z = logsumexp(list(scores.values()))
        expected = np.zeros(e.shape)
        for labels, score in scores.items():
            p = np.exp(score - log_z)
            for pos, y in enumerate(labels):
                expected[pos, y] += p
        np.testing.assert_allclose(got, expected, atol=1e-10)


@given(ragged_params)
@settings(max_examples=30, deadline=None)
def test_edge_marginals_match_brute_force(params):
    lengths, n_states, seed = params
    batch, emit, trans, rows = random_batch(
        np.random.default_rng(seed), lengths, n_states
    )
    alpha, beta, log_z = batch_forward_backward(batch, emit, trans)
    for r, (e, t) in enumerate(rows):
        n = len(e)
        scores = brute_force_scores(e, t)
        expected = np.zeros((n - 1, n_states, n_states))
        for labels, score in scores.items():
            p = np.exp(score - log_z[r])
            for pos in range(n - 1):
                expected[pos, labels[pos], labels[pos + 1]] += p
        got = edge_marginals(alpha, beta, log_z, emit, trans, r, n)
        np.testing.assert_allclose(got, expected, atol=1e-10)


@given(ragged_params)
@settings(max_examples=30, deadline=None)
def test_marginals_are_distributions(params):
    lengths, n_states, seed = params
    batch, emit, trans, _rows = random_batch(
        np.random.default_rng(seed), lengths, n_states
    )
    node_rows = batch_marginals(batch, emit, trans)
    alpha, beta, log_z = batch_forward_backward(batch, emit, trans)
    for r, (n, node) in enumerate(zip(lengths, node_rows)):
        assert node.shape == (n, n_states)
        assert np.all(node >= -1e-12)
        np.testing.assert_allclose(node.sum(axis=1), 1.0, atol=1e-9)
        if n > 1:
            edge = edge_marginals(alpha, beta, log_z, emit, trans, r, n)
            np.testing.assert_allclose(edge.sum(axis=(1, 2)), 1.0, atol=1e-9)
            # Edge marginals must be consistent with node marginals.
            np.testing.assert_allclose(edge.sum(axis=2), node[:-1], atol=1e-9)
            np.testing.assert_allclose(edge.sum(axis=1), node[1:], atol=1e-9)


def test_forward_backward_agree_on_partition():
    rng = np.random.default_rng(7)
    lengths = [12, 5, 1]
    batch, emit, trans, _rows = random_batch(rng, lengths, 6)
    alpha, beta, log_z = batch_forward_backward(batch, emit, trans)
    for r, n in enumerate(lengths):
        # alpha[t] + beta[t] must logsumexp to logZ at every position.
        per_position = logsumexp(alpha[r, :n] + beta[r, :n], axis=1)
        np.testing.assert_allclose(per_position, log_z[r], atol=1e-9)


def test_single_token_sequence():
    batch = ragged_batch([1], 3)
    emit = np.array([[[1.0, 2.0, 0.5]]])
    trans = np.zeros((1, 0, 3, 3))
    assert batch_viterbi(batch, emit, trans)[0].tolist() == [1]
    _alpha, _beta, log_z = batch_forward_backward(batch, emit, trans)
    assert log_z[0] == pytest.approx(logsumexp(emit[0, 0]))
    np.testing.assert_allclose(
        batch_marginals(batch, emit, trans)[0][0],
        np.exp(emit[0, 0] - logsumexp(emit[0, 0])),
    )


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        ragged_batch([3, 0], 2)


def test_posterior_score_length_mismatch():
    # The gold-path score (the bracket of eq. (2)) needs one label per
    # token; a label sequence of another length is an error, not a
    # silent broadcast.
    index = FeatureIndex(["a", "b"])
    encoded = EncodedSequence([], [0, 0, 0], [], [0, 0, 0])
    for labels in ([0], [0, 1], [0, 1, 0, 1]):
        with pytest.raises(ValueError):
            EncodedBatch([(encoded, labels)], index)


def test_viterbi_prefers_transition_structure():
    # Emissions are symmetric; only transitions break the tie, so the path
    # must follow the high-weight transition chain 0 -> 1 -> 0 -> 1.
    batch = ragged_batch([4], 2)
    emit = np.zeros((1, 4, 2))
    trans = np.zeros((1, 3, 2, 2))
    trans[..., 0, 1] = 5.0
    trans[..., 1, 0] = 5.0
    trans[..., 0, 0] = -5.0
    trans[..., 1, 1] = -5.0
    path = batch_viterbi(batch, emit, trans)[0].tolist()
    assert path in ([0, 1, 0, 1], [1, 0, 1, 0])
