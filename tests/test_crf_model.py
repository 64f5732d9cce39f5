"""Tests for FeatureIndex, the training objective, and ChainCRF end to end."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crf.batch import EncodedBatch, batch_nll_grad
from repro.crf.features import FeatureIndex, Sequence
from repro.crf.model import ChainCRF
from repro.crf.objective import ParamView


def nll_grad(params, dataset, index, l2):
    """The regularized objective over ``dataset`` as one batch."""
    return batch_nll_grad(params, [EncodedBatch(dataset, index)], index, l2)


# ----------------------------------------------------------------------
# FeatureIndex
# ----------------------------------------------------------------------


def test_feature_index_builds_vocab_and_encodes():
    seqs = [
        Sequence(obs=[["a", "b"], ["b"]], edge=[[], ["NL"]]),
        Sequence(obs=[["a"], ["c"]], edge=[[], ["NL"]]),
    ]
    index = FeatureIndex(["x", "y"]).build(seqs)
    assert index.n_states == 2
    assert set(index.obs_vocab) == {"a", "b", "c"}
    assert set(index.edge_vocab) == {"NL"}
    encoded = index.encode(seqs[0])
    assert len(encoded) == 2
    assert encoded.obs_ids[0] == sorted(
        [index.obs_vocab["a"], index.obs_vocab["b"]]
    )


def test_feature_index_min_count_trims_rare_words():
    seqs = [Sequence(obs=[["common", "rare"]]), Sequence(obs=[["common"]])]
    index = FeatureIndex(["x"], min_count=2).build(seqs)
    assert "common" in index.obs_vocab
    assert "rare" not in index.obs_vocab


def test_feature_index_unknown_attrs_dropped_at_encode_time():
    index = FeatureIndex(["x"]).build([Sequence(obs=[["a"]])])
    encoded = index.encode(Sequence(obs=[["a", "never-seen"]]))
    assert encoded.obs_ids == [[index.obs_vocab["a"]]]


def test_feature_index_first_edge_position_ignored():
    # Edge attributes at t=0 have no preceding label and must not enter the
    # vocabulary (the paper's footnote about features lacking y_{t-1}).
    seqs = [Sequence(obs=[["a"], ["b"]], edge=[["ONLY-AT-START"], ["NL"]])]
    index = FeatureIndex(["x"]).build(seqs)
    assert "ONLY-AT-START" not in index.edge_vocab
    assert "NL" in index.edge_vocab


def test_feature_index_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        FeatureIndex(["x", "x"])


def test_feature_index_extend_adds_new_attrs():
    index = FeatureIndex(["x"]).build([Sequence(obs=[["a"]])])
    added = index.extend([Sequence(obs=[["a", "new"]])])
    assert added == ["new"]
    assert "new" in index.obs_vocab


def test_feature_index_roundtrip():
    index = FeatureIndex(["x", "y"], min_count=2).build(
        [Sequence(obs=[["a", "a"], ["a"]], edge=[[], ["NL"]])]
    )
    clone = FeatureIndex.from_dict(index.to_dict())
    assert clone.labels == index.labels
    assert clone.obs_vocab == index.obs_vocab
    assert clone.edge_vocab == index.edge_vocab


def test_sequence_edge_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Sequence(obs=[["a"], ["b"]], edge=[["NL"]])


# ----------------------------------------------------------------------
# Objective / gradient
# ----------------------------------------------------------------------


def _toy_dataset(index):
    seqs = [
        Sequence(obs=[["a"], ["b"], ["b"]], edge=[[], ["NL"], []]),
        Sequence(obs=[["a"], ["a"], ["b"]], edge=[[], [], ["NL"]]),
    ]
    labels = [["x", "y", "y"], ["x", "x", "y"]]
    return [
        (index.encode(s), index.encode_labels(l)) for s, l in zip(seqs, labels)
    ], seqs, labels


def test_gradient_matches_finite_differences():
    seqs = [
        Sequence(obs=[["a"], ["b"], ["b"]], edge=[[], ["NL"], []]),
        Sequence(obs=[["a"], ["a"], ["b"]], edge=[[], [], ["NL"]]),
    ]
    index = FeatureIndex(["x", "y"]).build(seqs)
    dataset, _, _ = _toy_dataset(index)
    rng = np.random.default_rng(0)
    params = rng.normal(scale=0.5, size=index.n_features)
    _, grad = nll_grad(params, dataset, index, l2=0.3)
    eps = 1e-6
    for k in range(index.n_features):
        bumped = params.copy()
        bumped[k] += eps
        up, _ = nll_grad(bumped, dataset, index, l2=0.3)
        bumped[k] -= 2 * eps
        down, _ = nll_grad(bumped, dataset, index, l2=0.3)
        numeric = (up - down) / (2 * eps)
        assert grad[k] == pytest.approx(numeric, abs=1e-4)


def test_objective_convexity_along_random_line():
    # L(theta) is convex, so along any line the chord lies above the curve.
    seqs = [Sequence(obs=[["a"], ["b"]], edge=[[], ["NL"]])]
    index = FeatureIndex(["x", "y"]).build(seqs)
    dataset = [(index.encode(seqs[0]), index.encode_labels(["x", "y"]))]
    rng = np.random.default_rng(3)
    p0 = rng.normal(size=index.n_features)
    p1 = rng.normal(size=index.n_features)
    f0, _ = nll_grad(p0, dataset, index, l2=0.0)
    f1, _ = nll_grad(p1, dataset, index, l2=0.0)
    fmid, _ = nll_grad(0.5 * (p0 + p1), dataset, index, l2=0.0)
    assert fmid <= 0.5 * (f0 + f1) + 1e-9


def test_param_view_shapes_and_sharing():
    index = FeatureIndex(["x", "y", "z"]).build(
        [Sequence(obs=[["a"], ["b"]], edge=[[], ["NL"]])]
    )
    params = np.zeros(index.n_features)
    view = ParamView.of(params, index)
    assert view.start.shape == (3,)
    assert view.obs.shape == (index.n_obs, 3)
    assert view.trans.shape == (3, 3)
    assert view.edge.shape == (index.n_edge, 3, 3)
    view.obs[0, 0] = 42.0
    assert params[3] == 42.0  # views share memory with the flat vector


def test_param_view_wrong_size_rejected():
    index = FeatureIndex(["x"]).build([Sequence(obs=[["a"]])])
    with pytest.raises(ValueError):
        ParamView.of(np.zeros(index.n_features + 1), index)


# ----------------------------------------------------------------------
# Trainers and ChainCRF
# ----------------------------------------------------------------------


def _learnable_corpus(n=30):
    """A corpus where labels are perfectly determined by the observed word."""
    seqs, labels = [], []
    for i in range(n):
        if i % 2 == 0:
            seqs.append(Sequence(obs=[["hot"], ["cold"], ["hot"]]))
            labels.append(["h", "c", "h"])
        else:
            seqs.append(Sequence(obs=[["cold"], ["cold"], ["hot"]]))
            labels.append(["c", "c", "h"])
    return seqs, labels


def test_lbfgs_learns_separable_corpus():
    seqs, labels = _learnable_corpus()
    crf = ChainCRF(["h", "c"], l2=0.1).fit(seqs, labels)
    assert crf.predict(Sequence(obs=[["cold"], ["hot"], ["cold"]])) == [
        "c",
        "h",
        "c",
    ]
    assert crf.train_log is not None and crf.train_log.n_iterations > 0


def test_transition_features_disambiguate_identical_observations():
    # Observation "mid" is ambiguous; only the NL edge marker tells the model
    # whether a new block started. This is the heart of the paper's design.
    seqs, labels = [], []
    for _ in range(20):
        seqs.append(
            Sequence(
                obs=[["start"], ["mid"], ["mid"]],
                edge=[[], [], ["NL"]],
            )
        )
        labels.append(["a", "a", "b"])
        seqs.append(
            Sequence(
                obs=[["start"], ["mid"], ["mid"]],
                edge=[[], ["NL"], []],
            )
        )
        labels.append(["a", "b", "b"])
    crf = ChainCRF(["a", "b"], l2=0.1).fit(seqs, labels)
    got_late = crf.predict(
        Sequence(obs=[["start"], ["mid"], ["mid"]], edge=[[], [], ["NL"]])
    )
    got_early = crf.predict(
        Sequence(obs=[["start"], ["mid"], ["mid"]], edge=[[], ["NL"], []])
    )
    assert got_late == ["a", "a", "b"]
    assert got_early == ["a", "b", "b"]


def test_predict_marginals_form_distribution():
    seqs, labels = _learnable_corpus()
    crf = ChainCRF(["h", "c"], l2=0.5).fit(seqs, labels)
    marginals = crf.predict_marginals(Sequence(obs=[["hot"], ["cold"]]))
    np.testing.assert_allclose(marginals.sum(axis=1), 1.0, atol=1e-9)
    assert marginals[0, 0] > 0.9  # "hot" -> state h with high confidence


def test_log_likelihood_ordering():
    seqs, labels = _learnable_corpus()
    crf = ChainCRF(["h", "c"], l2=0.5).fit(seqs, labels)
    seq = Sequence(obs=[["hot"], ["cold"]])
    good = crf.log_likelihood(seq, ["h", "c"])
    bad = crf.log_likelihood(seq, ["c", "h"])
    assert good > bad
    assert good <= 0.0


def test_empty_prediction():
    seqs, labels = _learnable_corpus()
    crf = ChainCRF(["h", "c"]).fit(seqs, labels)
    assert crf.predict(Sequence(obs=[])) == []


def test_fit_validates_lengths():
    crf = ChainCRF(["a", "b"])
    with pytest.raises(ValueError):
        crf.fit([Sequence(obs=[["x"]])], [["a", "b"]])
    with pytest.raises(ValueError):
        crf.fit([Sequence(obs=[["x"]])], [])


def test_unfitted_model_raises():
    crf = ChainCRF(["a"])
    with pytest.raises(RuntimeError):
        crf.predict(Sequence(obs=[["x"]]))


def test_unknown_label_rejected():
    seqs, labels = _learnable_corpus()
    crf = ChainCRF(["h", "c"]).fit(seqs, labels)
    with pytest.raises(ValueError):
        crf.log_likelihood(Sequence(obs=[["hot"]]), ["nope"])


def test_top_observation_features_report_learned_associations():
    seqs, labels = _learnable_corpus()
    crf = ChainCRF(["h", "c"], l2=0.1).fit(seqs, labels)
    top_h = crf.top_observation_features("h", k=1)
    assert top_h[0][0] == "hot"


def test_top_transition_features_report_markers():
    seqs, labels = [], []
    for _ in range(20):
        seqs.append(Sequence(obs=[["w"], ["w"]], edge=[[], ["NL"]]))
        labels.append(["a", "b"])
        seqs.append(Sequence(obs=[["w"], ["w"]], edge=[[], ["OTHER"]]))
        labels.append(["a", "a"])
    crf = ChainCRF(["a", "b"], l2=0.1).fit(seqs, labels)
    top = crf.top_transition_features(k=1)
    attr, y_prev, y, weight = top[0]
    assert (attr, y_prev, y) == ("NL", "a", "b")
    assert weight > 0


def test_partial_fit_fixes_new_format(tmp_path):
    seqs, labels = _learnable_corpus()
    crf = ChainCRF(["h", "c"], l2=0.1).fit(seqs, labels)
    novel = Sequence(obs=[["warm"], ["freezing"]])
    # Before adaptation the words are unknown; after one labeled example the
    # model must handle them (the Section 5.3 maintainability workflow).
    crf.partial_fit([novel], [["h", "c"]], replay=list(zip(seqs, labels)))
    assert crf.predict(novel) == ["h", "c"]
    # And the original corpus is still parsed correctly.
    assert crf.predict(seqs[0]) == labels[0]


def test_save_load_roundtrip(tmp_path):
    seqs, labels = _learnable_corpus()
    crf = ChainCRF(["h", "c"], l2=0.1).fit(seqs, labels)
    crf.save(tmp_path / "model")
    clone = ChainCRF.load(tmp_path / "model")
    seq = Sequence(obs=[["cold"], ["hot"]])
    assert clone.predict(seq) == crf.predict(seq)
    np.testing.assert_allclose(clone.params, crf.params)


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_training_is_deterministic(seed):
    # Same data -> identical parameters, whatever state the global RNGs
    # are in (no hidden global RNG).
    seqs, labels = _learnable_corpus(2 + seed % 7)
    fits = []
    for rng_seed in (seed, seed + 1):
        random.seed(rng_seed)
        np.random.seed(rng_seed)
        fits.append(ChainCRF(["h", "c"], l2=0.1).fit(seqs, labels).params)
    np.testing.assert_array_equal(fits[0], fits[1])
