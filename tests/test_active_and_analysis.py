"""Tests for active learning (uncertainty ranking and labeling rounds)."""

import pytest

from repro.datagen import CorpusConfig, CorpusGenerator
from repro.eval.metrics import evaluate_parser
from repro.parser import WhoisParser
from repro.parser import active
from repro.parser.active import (
    active_learning_round,
    rank_by_uncertainty,
    select_for_labeling,
)


@pytest.fixture(scope="module")
def setup():
    generator = CorpusGenerator(CorpusConfig(seed=1100))
    train = generator.labeled_corpus(60)
    pool = generator.labeled_corpus(150)
    test = generator.labeled_corpus(150)
    parser = WhoisParser(l2=0.1).fit(train)
    return generator, train, pool, test, parser


# ----------------------------------------------------------------------
# Active learning
# ----------------------------------------------------------------------


def test_rank_by_uncertainty_orders_by_confidence(setup):
    _, _, pool, _, parser = setup
    ranked = rank_by_uncertainty(parser, pool)
    assert len(ranked) == len(pool)
    confidences = [r.min_confidence for r in ranked]
    assert confidences == sorted(confidences)
    for r in ranked:
        assert 0.0 <= r.min_confidence <= r.mean_confidence <= 1.0 + 1e-9


def test_uncertain_records_are_actually_harder(setup):
    """Prediction errors must concentrate in the uncertain half."""
    _, _, pool, _, parser = setup
    ranked = rank_by_uncertainty(parser, pool)
    half = len(ranked) // 2
    def errors(indices):
        total = 0
        for i in indices:
            pred = parser.predict_blocks(pool[i])
            total += sum(p != g for p, g in zip(pred, pool[i].block_labels))
        return total

    uncertain_errors = errors([r.index for r in ranked[:half]])
    confident_errors = errors([r.index for r in ranked[half:]])
    assert uncertain_errors >= confident_errors


def test_select_for_labeling_respects_k_and_threshold(setup, monkeypatch):
    _, _, pool, _, parser = setup
    chosen = select_for_labeling(parser, pool, 5)
    assert len(chosen) <= 5
    assert len(set(chosen)) == len(chosen)
    with pytest.raises(ValueError):
        select_for_labeling(parser, pool, -1)
    monkeypatch.setattr(active, "MIN_CONFIDENCE_THRESHOLD", 0.0)
    assert select_for_labeling(parser, pool, 5) == []


def test_active_learning_beats_random_at_equal_budget(setup):
    """Uncertainty-selected labels fix more errors than random labels."""
    generator, train, pool, test, _ = setup
    budget = 8

    active = WhoisParser(l2=0.1, second_level=False).fit(train)
    error_before = evaluate_parser(active, test).line_error_rate
    active_learning_round(active, pool, budget, replay=train)
    error_active = evaluate_parser(active, test).line_error_rate

    import random as random_module

    rng = random_module.Random(0)
    random_parser = WhoisParser(l2=0.1, second_level=False).fit(train)
    random_picks = rng.sample(range(len(pool)), budget)
    random_parser.partial_fit([pool[i] for i in random_picks], replay=train)
    error_random = evaluate_parser(random_parser, test).line_error_rate

    assert error_active <= error_before
    assert error_active <= error_random + 1e-9
