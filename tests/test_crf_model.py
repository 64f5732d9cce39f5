"""Tests for FeatureIndex, the training objective, and ChainCRF end to end."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crf.batch import EncodedBatch, batch_forward_backward, batch_nll_grad
from repro.crf.features import EncodedSequence, FeatureIndex
from repro.crf.model import ChainCRF
from repro.crf.objective import ParamView
from repro.parser.bulk import fit_encoder
from repro.whois.features import WhoisFeaturizer
from tests.crf_data import encode, indexed, names


def nll_grad(params, dataset, index, l2):
    """The regularized objective over ``dataset`` as one batch."""
    return batch_nll_grad(params, [EncodedBatch(dataset, index)], index, l2)


# ----------------------------------------------------------------------
# FeatureIndex, as the parser's encoder builds it
# ----------------------------------------------------------------------

FZR = WhoisFeaturizer()


def test_feature_index_builds_vocab_and_encodes():
    records = [["Alpha: one", "Beta: two"], ["Alpha: three"]]
    encoder = fit_encoder(FZR, ["x", "y"], records)
    index = encoder.index
    assert index.n_states == 2
    assert {"alpha@T", "beta@T", "one@V", "two@V", "three@V", "BIAS"} <= set(
        index.obs_vocab
    )
    # Ids number the attributes in sorted order.
    assert index.obs_attribute_names() == sorted(index.obs_vocab)
    assert index.edge_attribute_names() == sorted(index.edge_vocab)
    obs, _edge = names(index, encoder.encode_record(records[0]))
    assert len(obs) == 2
    assert obs[0] == sorted(FZR.line_analysis("Alpha: one")[0])


def test_feature_index_min_count_trims_rare_words():
    records = [["Common Rare"], ["Common"], ["Echo Echo"]]
    index = fit_encoder(FZR, ["x"], records, min_count=2).index
    assert "common@V" in index.obs_vocab
    assert "rare@V" not in index.obs_vocab
    # An attribute counts once per token: a word repeated on one line
    # is seen once.
    assert "echo@V" not in index.obs_vocab
    assert "rare@V" in fit_encoder(FZR, ["x"], records).index.obs_vocab


def test_feature_index_unknown_attrs_dropped_at_encode_time():
    encoder = fit_encoder(FZR, ["x"], [["Alpha: one"]])
    obs, _edge = names(encoder.index, encoder.encode_record(["Alpha: neverseen"]))
    assert "alpha@T" in obs[0]
    assert "neverseen@V" not in obs[0]
    assert set(obs[0]) <= set(encoder.index.obs_vocab)


def test_feature_index_first_edge_position_ignored():
    # Edge attributes at t=0 have no preceding label and must not enter the
    # vocabulary (the paper's footnote about features lacking y_{t-1}).
    index = fit_encoder(FZR, ["x"], [["Zulu: 1", "Alpha: 2"]]).index
    assert "zulu@T" not in index.edge_vocab
    assert "zulu@T" in index.obs_vocab
    assert "alpha@T" in index.edge_vocab


def test_feature_index_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        FeatureIndex(["x", "x"])


def test_feature_index_extend_adds_new_attrs():
    base = fit_encoder(FZR, ["x"], [["Alpha: one", "Beta: two"]]).index
    extended = fit_encoder(
        FZR, ["x"], [["Zeta: one", "Alpha: new"]], base=base, min_count=5
    ).index
    # Every old attribute keeps its id; the new ones follow, sorted, and
    # are admitted whatever min_count says.
    assert base.obs_vocab.items() <= extended.obs_vocab.items()
    assert base.edge_vocab.items() <= extended.edge_vocab.items()
    added = extended.obs_attribute_names()[base.n_obs:]
    assert added == sorted(set(extended.obs_vocab) - set(base.obs_vocab))
    assert {"zeta@T", "new@V"} <= set(added)
    # "Alpha" opened the base record, so only now does it follow a line.
    assert extended.edge_attribute_names()[base.n_edge:] == ["alpha@T"]


def test_feature_index_roundtrip():
    index = FeatureIndex(
        ["x", "y"], obs_vocab={"a": 0, "b": 1}, edge_vocab={"NL": 0}
    )
    clone = FeatureIndex.from_dict(index.to_dict())
    assert clone.labels == index.labels
    assert clone.obs_vocab == index.obs_vocab
    assert clone.edge_vocab == index.edge_vocab


def test_sequence_edge_length_mismatch_rejected():
    with pytest.raises(ValueError):
        EncodedSequence([0, 1], [1, 1], [0], [1])


# ----------------------------------------------------------------------
# Objective / gradient
# ----------------------------------------------------------------------


def _toy_dataset():
    index, encoded = indexed(["x", "y"], [
        ([["a"], ["b"], ["b"]], [[], ["NL"], []]),
        ([["a"], ["a"], ["b"]], [[], [], ["NL"]]),
    ])
    labels = [["x", "y", "y"], ["x", "x", "y"]]
    return [
        (seq, index.encode_labels(l)) for seq, l in zip(encoded, labels)
    ], index


def test_gradient_matches_finite_differences():
    dataset, index = _toy_dataset()
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
    index, (seq,) = indexed(["x", "y"], [([["a"], ["b"]], [[], ["NL"]])])
    dataset = [(seq, index.encode_labels(["x", "y"]))]
    rng = np.random.default_rng(3)
    p0 = rng.normal(size=index.n_features)
    p1 = rng.normal(size=index.n_features)
    f0, _ = nll_grad(p0, dataset, index, l2=0.0)
    f1, _ = nll_grad(p1, dataset, index, l2=0.0)
    fmid, _ = nll_grad(0.5 * (p0 + p1), dataset, index, l2=0.0)
    assert fmid <= 0.5 * (f0 + f1) + 1e-9


def test_param_view_shapes_and_sharing():
    index, _ = indexed(["x", "y", "z"], [([["a"], ["b"]], [[], ["NL"]])])
    params = np.zeros(index.n_features)
    view = ParamView.of(params, index)
    assert view.start.shape == (3,)
    assert view.obs.shape == (index.n_obs, 3)
    assert view.trans.shape == (3, 3)
    assert view.edge.shape == (index.n_edge, 3, 3)
    view.obs[0, 0] = 42.0
    assert params[3] == 42.0  # views share memory with the flat vector


def test_param_view_wrong_size_rejected():
    index, _ = indexed(["x"], [[["a"]]])
    with pytest.raises(ValueError):
        ParamView.of(np.zeros(index.n_features + 1), index)


# ----------------------------------------------------------------------
# Trainers and ChainCRF
# ----------------------------------------------------------------------

#: the observation vocabulary of the toy corpora below
WEATHER = FeatureIndex(
    ["h", "c"],
    obs_vocab={"cold": 0, "hot": 1},
)


def _learnable_corpus(n=30):
    """A corpus where labels are perfectly determined by the observed word."""
    seqs, labels = [], []
    for i in range(n):
        if i % 2 == 0:
            seqs.append(encode(WEATHER, [["hot"], ["cold"], ["hot"]]))
            labels.append(["h", "c", "h"])
        else:
            seqs.append(encode(WEATHER, [["cold"], ["cold"], ["hot"]]))
            labels.append(["c", "c", "h"])
    return seqs, labels


def _fit_weather(l2=0.1, n=30):
    seqs, labels = _learnable_corpus(n)
    return ChainCRF(["h", "c"], l2=l2).fit(WEATHER, seqs, labels)


def log_likelihood(crf, seq, labels):
    """``ln Pr(labels | seq)`` under a fitted model (eq. (2))."""
    index, view = crf.index, ParamView.of(crf.params, crf.index)
    batch = EncodedBatch([(seq, index.encode_labels(labels))], index)
    emit, trans = batch.potentials(view)
    _alpha, _beta, log_z = batch_forward_backward(batch, emit, trans)
    return batch.observed_score(emit, trans) - float(log_z[0])


def test_lbfgs_learns_separable_corpus():
    crf = _fit_weather()
    assert crf.predict_many([encode(WEATHER, [["cold"], ["hot"], ["cold"]])]) == [
        ["c", "h", "c"]
    ]
    assert crf.train_log is not None and crf.train_log.n_iterations > 0


def test_transition_features_disambiguate_identical_observations():
    # Observation "mid" is ambiguous; only the NL edge marker tells the model
    # whether a new block started. This is the heart of the paper's design.
    late = ([["start"], ["mid"], ["mid"]], [[], [], ["NL"]])
    early = ([["start"], ["mid"], ["mid"]], [[], ["NL"], []])
    index, (late_seq, early_seq) = indexed(["a", "b"], [late, early])
    crf = ChainCRF(["a", "b"], l2=0.1).fit(
        index,
        [late_seq, early_seq] * 20,
        [["a", "a", "b"], ["a", "b", "b"]] * 20,
    )
    assert crf.predict_many([late_seq, early_seq]) == [
        ["a", "a", "b"],
        ["a", "b", "b"],
    ]


def test_predict_marginals_form_distribution():
    crf = _fit_weather(l2=0.5)
    ((_labels, marginals),) = crf.predict_with_marginals_many(
        [encode(WEATHER, [["hot"], ["cold"]])]
    )
    np.testing.assert_allclose(marginals.sum(axis=1), 1.0, atol=1e-9)
    assert marginals[0, 0] > 0.9  # "hot" -> state h with high confidence


def test_log_likelihood_ordering():
    crf = _fit_weather(l2=0.5)
    seq = encode(WEATHER, [["hot"], ["cold"]])
    good = log_likelihood(crf, seq, ["h", "c"])
    bad = log_likelihood(crf, seq, ["c", "h"])
    assert good > bad
    assert good <= 0.0


def test_empty_prediction():
    crf = _fit_weather()
    assert crf.predict_many([EncodedSequence([], [], [], [])]) == [[]]


def test_fit_validates_lengths():
    crf = ChainCRF(["h", "c"])
    with pytest.raises(ValueError):
        crf.fit(WEATHER, [encode(WEATHER, [["hot"]])], [["h", "c"]])
    with pytest.raises(ValueError):
        crf.fit(WEATHER, [encode(WEATHER, [["hot"]])], [])
    with pytest.raises(ValueError):
        ChainCRF(["c", "h"]).fit(WEATHER, [encode(WEATHER, [["hot"]])], [["h"]])


def test_unfitted_model_raises():
    crf = ChainCRF(["h", "c"])
    with pytest.raises(RuntimeError):
        crf.predict_many([encode(WEATHER, [["hot"]])])


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        ChainCRF(["h", "c"]).fit(WEATHER, [encode(WEATHER, [["hot"]])], [["nope"]])


def test_top_observation_features_report_learned_associations():
    top_h = _fit_weather().top_observation_features("h", k=1)
    assert top_h[0][0] == "hot"


def test_top_transition_features_report_markers():
    index, (nl, other) = indexed(["a", "b"], [
        ([["w"], ["w"]], [[], ["NL"]]),
        ([["w"], ["w"]], [[], ["OTHER"]]),
    ])
    crf = ChainCRF(["a", "b"], l2=0.1).fit(
        index, [nl, other] * 20, [["a", "b"], ["a", "a"]] * 20
    )
    top = crf.top_transition_features(k=1)
    attr, y_prev, y, weight = top[0]
    assert (attr, y_prev, y) == ("NL", "a", "b")
    assert weight > 0


def test_partial_fit_fixes_new_format(tmp_path):
    seqs, labels = _learnable_corpus()
    crf = _fit_weather()
    extended = FeatureIndex(
        ["h", "c"],
        obs_vocab={**WEATHER.obs_vocab, "freezing": 2, "warm": 3},
    )
    novel = encode(extended, [["warm"], ["freezing"]])
    # Before adaptation the words are unknown; after one labeled example the
    # model must handle them (the Section 5.3 maintainability workflow).
    crf.partial_fit(extended, [novel, *seqs], [["h", "c"], *labels])
    assert crf.index is extended
    assert crf.predict_many([novel, seqs[0]]) == [["h", "c"], labels[0]]


def test_partial_fit_rejects_an_index_that_renumbers():
    crf = _fit_weather()
    renumbered = FeatureIndex(["h", "c"], obs_vocab={"hot": 0, "cold": 1})
    with pytest.raises(ValueError, match="does not extend"):
        crf.partial_fit(
            renumbered, [encode(renumbered, [["hot"]])], [["h"]]
        )


def test_save_load_roundtrip(tmp_path):
    crf = ChainCRF(["h", "c"], l2=0.5, max_iterations=7).fit(
        WEATHER, *_learnable_corpus(30)
    )
    crf.save(tmp_path / "model")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model.json", "model.npy"
    ]
    clone = ChainCRF.load(tmp_path / "model")
    assert (clone._l2, clone._max_iterations) == (0.5, 7)
    seq = encode(WEATHER, [["cold"], ["hot"]])
    assert clone.predict_many([seq]) == crf.predict_many([seq])
    np.testing.assert_array_equal(clone.params, crf.params)


def test_snapshot_with_trimming_keys_loads(tmp_path):
    # Snapshots once carried the CRF's dictionary-trimming settings, at
    # the top level and in the index; they no longer configure anything.
    crf = _fit_weather()
    crf.save(tmp_path / "model")
    meta_path = (tmp_path / "model").with_suffix(".json")
    meta = json.loads(meta_path.read_text())
    assert "min_count" not in meta and "min_count" not in meta["index"]
    for record in (meta, meta["index"]):
        record.update(min_count=2, min_edge_count=1)
    # Nor did they carry the iteration budget, which loads as 200.
    del meta["max_iterations"]
    meta_path.write_text(json.dumps(meta))
    clone = ChainCRF.load(tmp_path / "model")
    assert clone.index.obs_vocab == WEATHER.obs_vocab
    assert clone._max_iterations == 200
    seq = encode(WEATHER, [["cold"], ["hot"]])
    assert clone.predict_many([seq]) == crf.predict_many([seq])


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
        fits.append(ChainCRF(["h", "c"], l2=0.1).fit(WEATHER, seqs, labels).params)
    np.testing.assert_array_equal(fits[0], fits[1])
