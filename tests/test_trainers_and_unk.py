"""Tests for trainer behaviour details and UNK out-of-vocabulary handling."""

import numpy as np
import pytest

from repro.crf.train import LBFGSTrainer
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.parser import WhoisParser
from repro.whois.features import WhoisFeaturizer
from repro.whois.lexicon import Lexicon
from tests.crf_data import indexed


def _dataset(n=12):
    index, seqs = indexed(["x", "y"], [[["a"], ["b"]]] * n)
    return [(seq, index.encode_labels(["x", "y"])) for seq in seqs], index


# ----------------------------------------------------------------------
# Trainers
# ----------------------------------------------------------------------


def test_lbfgs_records_objective_history():
    dataset, index = _dataset()
    params, log = LBFGSTrainer(l2=0.5).fit(dataset, index)
    assert log.n_iterations == len(log.objective_values) > 1
    assert log.objective_values[-1] < log.objective_values[0]
    assert log.converged


def test_lbfgs_iteration_cap():
    dataset, index = _dataset()
    _, capped = LBFGSTrainer(l2=0.5, max_iterations=1).fit(dataset, index)
    _, free = LBFGSTrainer(l2=0.5, max_iterations=100).fit(dataset, index)
    assert capped.n_iterations <= free.n_iterations


def test_lbfgs_warm_start():
    dataset, index = _dataset()
    params, _ = LBFGSTrainer(l2=0.5).fit(dataset, index)
    _, warm_log = LBFGSTrainer(l2=0.5).fit(dataset, index, initial=params)
    # Starting at the optimum, the first evaluation is already optimal.
    assert warm_log.objective_values[0] == pytest.approx(
        warm_log.objective_values[-1], rel=1e-6
    )


def test_lbfgs_rejects_bad_initial():
    dataset, index = _dataset()
    with pytest.raises(ValueError):
        LBFGSTrainer().fit(dataset, index,
                           initial=np.zeros(index.n_features + 3))


def test_lbfgs_empty_dataset():
    _, index = _dataset()
    with pytest.raises(ValueError):
        LBFGSTrainer().fit([], index)


# ----------------------------------------------------------------------
# UNK handling
# ----------------------------------------------------------------------


def test_featurizer_marks_oov_words():
    lexicon = Lexicon()
    lexicon.add_text("registrant name john")
    lexicon.freeze()
    fzr = WhoisFeaturizer(lexicon=lexicon)
    obs, *_ = fzr.line_analysis("Registrant Name: John")
    assert "UNK@T" not in obs and "UNK@V" not in obs
    obs, *_ = fzr.line_analysis("Registrant Zorblax: Qwxyz")
    assert "UNK@T" in obs and "UNK@V" in obs


def test_featurizer_without_lexicon_has_no_unk():
    obs, *_ = WhoisFeaturizer().line_analysis("Xyzzy: Plugh")
    assert not any(a.startswith("UNK") for a in obs)


def test_parser_unk_mode_trains_and_parses():
    generator = CorpusGenerator(CorpusConfig(seed=1500))
    corpus = generator.labeled_corpus(80)
    parser = WhoisParser(l2=0.1, unk_min_count=2,
                         second_level=False).fit(corpus[:60])
    assert parser.featurizer.lexicon is not None
    errors = total = 0
    for record in corpus[60:]:
        pred = parser.predict_blocks(record)
        errors += sum(p != g for p, g in zip(pred, record.block_labels))
        total += len(record.block_labels)
    assert errors / total < 0.02
