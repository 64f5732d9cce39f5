"""The continuous maintenance loop: drift, labeling, retrain, rollout.

Covers `repro.pipeline` end to end plus the checkpoint/resume machinery
it leans on in `repro.crf.train`: fingerprint clustering into family
alerts, the one-label-per-family budget, warm-start retraining with
crash-safe checkpoints, and the holdout-gated hot-swap/rollback.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.crf.train import TrainerState
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.datagen.registrars import REGISTRARS
from repro.eval.metrics import evaluate_parser
from repro.parser import WhoisParser
from repro.pipeline import (
    CorpusOracle,
    DriftDetector,
    MaintenanceConfig,
    MaintenanceLoop,
    PendingOracle,
    WarmStartRetrainer,
    format_fingerprint,
    jaccard,
    select_exemplar,
)
from repro.serve import ModelRegistry

UNSEEN = "odd"


@pytest.fixture(scope="module")
def world():
    """Parser trained *without* the ``odd`` family, plus odd records."""
    generator = CorpusGenerator(CorpusConfig(seed=523))
    corpus = [
        record for record in generator.labeled_corpus(120)
        if record.schema_family != UNSEEN
    ]
    train, holdout = corpus[:70], corpus[70:100]
    profile = next(p for p in REGISTRARS if p.schema_family == UNSEEN)
    unseen = [
        generator.render(generator.sample_registration(registrar=profile))
        for _ in range(8)
    ]
    parser = WhoisParser(l2=0.1, max_iterations=60).fit(train)
    return parser, train, holdout, unseen


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def test_fingerprint_uses_titles_and_shapes():
    text = (
        "Domain Name: EXAMPLE.COM\n"
        "Registrar: Example, Inc.\n"
        "record created 2001-01-01\n"
        "1487 Spring Way\n"
        "ns1.example.net\n"
    )
    fingerprint = format_fingerprint(text)
    assert "domain name" in fingerprint
    assert "registrar" in fingerprint
    assert "~record" in fingerprint  # alphabetic bare line keeps its keyword
    assert "~#" in fingerprint       # street number normalizes to a shape
    assert "~*" in fingerprint       # hostname normalizes to a shape
    assert not any("example" in item for item in fingerprint)


def test_fingerprint_is_stable_across_records_of_one_template(world):
    _parser, _train, _holdout, unseen = world
    prints = [format_fingerprint(record.text) for record in unseen]
    for other in prints[1:]:
        assert jaccard(prints[0], other) >= 0.4


def test_jaccard_edge_cases():
    a = frozenset({"x", "y"})
    assert jaccard(a, a) == 1.0
    assert jaccard(a, frozenset()) == 0.0
    assert jaccard(frozenset(), frozenset()) == 0.0
    assert jaccard(a, frozenset({"y", "z"})) == pytest.approx(1 / 3)


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------


def _confidences(parser, record):
    return parser.line_confidences(record.text)


def test_detector_alerts_once_per_family(world):
    """Alert at min_cluster_size; after resolve(), stragglers of the
    family are attributed to it instead of re-alerting (the loop calls
    resolve after each successful retrain)."""
    parser, train, _holdout, unseen = world
    detector = DriftDetector(min_cluster_size=3)
    detector.register_known(train)
    alerts = []
    for record in unseen:
        alert = detector.observe(
            record.domain, record.text, _confidences(parser, record)
        )
        if alert is not None:
            alerts.append(alert)
            detector.resolve(alert.family_id)
    assert len(alerts) == 1
    assert len(alerts[0].members) == 3
    assert alerts[0].domains == tuple(
        record.domain for record in unseen[:3]
    )


def test_confident_records_never_cluster(world):
    parser, train, holdout, _unseen = world
    detector = DriftDetector(min_cluster_size=1)
    detector.register_known(train)
    fed = 0
    for record in holdout:
        confidences = _confidences(parser, record)
        if min(p for _, _, p in confidences) < detector.min_confidence:
            continue  # a borderline record is active learning's problem
        fed += 1
        alert = detector.observe(record.domain, record.text, confidences)
        assert alert is None, f"{record.domain} flagged as drift"
    assert fed > 0 and detector.clusters == []


def test_low_confidence_known_format_is_outlier_not_drift(world):
    parser, train, _holdout, unseen = world
    detector = DriftDetector(min_cluster_size=1)
    # Seed the unseen family itself as known: its low-confidence records
    # must be attributed there instead of opening a cluster.
    detector.register_known(train + unseen)
    alert = detector.observe(
        unseen[0].domain, unseen[0].text, _confidences(parser, unseen[0])
    )
    assert alert is None
    assert detector.clusters == []
    assert detector.low_confidence == 1


def test_resolve_absorbs_stragglers(world):
    parser, train, _holdout, unseen = world
    detector = DriftDetector(min_cluster_size=2)
    detector.register_known(train)
    alert = None
    for record in unseen[:2]:
        alert = detector.observe(
            record.domain, record.text, _confidences(parser, record)
        ) or alert
    assert alert is not None
    detector.resolve(alert.family_id)
    assert detector.clusters == []
    # A straggler of the resolved family is attributed, not re-clustered.
    for record in unseen[2:]:
        assert detector.observe(
            record.domain, record.text, _confidences(parser, record)
        ) is None
    assert detector.clusters == []


# ----------------------------------------------------------------------
# Labeling
# ----------------------------------------------------------------------


def test_select_exemplar_and_oracles(world):
    parser, train, _holdout, unseen = world
    detector = DriftDetector(min_cluster_size=3)
    detector.register_known(train)
    alert = None
    for record in unseen:
        alert = detector.observe(
            record.domain, record.text, _confidences(parser, record)
        ) or alert
    member, request = select_exemplar(parser, alert)
    assert request.domain == member.domain
    assert request.family_id == alert.family_id
    assert member in alert.members

    corpus_oracle = CorpusOracle(unseen)
    labeled = corpus_oracle.label(request)
    assert labeled is not None and labeled.domain == request.domain
    assert corpus_oracle.served == [request]
    missing = type(request)(
        family_id="x", domain="nosuch.com", text="", min_confidence=0.0
    )
    assert corpus_oracle.label(missing) is None
    assert len(corpus_oracle.served) == 1

    pending = PendingOracle()
    assert pending.label(request) is None
    assert pending.pending == [request]


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


def test_trainer_state_roundtrip(tmp_path):
    state = TrainerState(params=np.arange(5, dtype=np.float64), iterations_done=3)
    path = state.save(tmp_path / "state.npz")
    loaded = TrainerState.load(path)
    assert loaded.iterations_done == 3
    np.testing.assert_array_equal(loaded.params, state.params)
    # A checkpoint that still holds an AdaGrad accumulator loads; the
    # extra array is ignored.
    older = tmp_path / "older.npz"
    np.savez_compressed(
        older, params=state.params, iterations_done=np.asarray(3),
        accumulated_sq=np.ones(5),
    )
    loaded = TrainerState.load(older)
    assert loaded.iterations_done == 3
    np.testing.assert_array_equal(loaded.params, state.params)


def test_fit_checkpoints_and_resumes(world, tmp_path):
    _parser, train, _holdout, _unseen = world
    states: list[TrainerState] = []
    first = WhoisParser(l2=0.1, max_iterations=30)
    first.fit(
        train[:25], checkpoint_every=5, on_checkpoint=states.append
    )
    assert states, "no checkpoints emitted"
    assert all(s.iterations_done % 5 == 0 for s in states)

    # Resume from a mid-run snapshot: training completes and the result
    # predicts sensibly.
    resumed = WhoisParser(l2=0.1, max_iterations=30)
    resumed.fit(train[:25])  # builds the same index
    resumed.fit(train[:25], resume=states[0])
    errors = evaluate_parser(resumed, train[:25]).line_error_rate
    assert errors <= evaluate_parser(first, train[:25]).line_error_rate + 0.02


def test_retrainer_checkpoints_and_recovers_from_stale(world, tmp_path):
    parser, train, _holdout, unseen = world
    retrainer = WarmStartRetrainer(
        replay_size=20, checkpoint_dir=tmp_path, checkpoint_every=5
    )
    candidate = copy.deepcopy(parser)
    report = retrainer.retrain(candidate, [unseen[0]], replay=train)
    assert report.warm and report.n_new == 1 and report.n_replay == 20
    assert not retrainer.checkpoint_path.exists(), (
        "completed retrain must clear its checkpoint"
    )

    # A stale checkpoint with the wrong dimensionality is discarded and
    # the retrain still succeeds warm.
    TrainerState(params=np.zeros(7), iterations_done=2).save(
        retrainer.checkpoint_path
    )
    candidate = copy.deepcopy(parser)
    report = retrainer.retrain(candidate, [unseen[1]], replay=train)
    assert report.warm
    assert not retrainer.checkpoint_path.exists()


def test_warm_retrain_fixes_new_family(world):
    parser, train, _holdout, unseen = world
    before = evaluate_parser(parser, unseen).line_error_rate
    assert before > 0.05
    candidate = copy.deepcopy(parser)
    WarmStartRetrainer(replay_size=40).retrain(
        candidate, [unseen[0]], replay=train
    )
    after = evaluate_parser(candidate, unseen).line_error_rate
    assert after < before
    # The in-place retrain left the original parser untouched.
    assert evaluate_parser(parser, unseen).line_error_rate == before


def test_cold_retrain_keeps_the_template_domain():
    from repro.domain import get_domain

    corpus = get_domain("syslog").generator(seed=41).labeled_corpus(20)
    template = WhoisParser(
        domain="syslog", l2=0.1, max_iterations=30, min_count=2
    ).fit(corpus)
    fresh, report = WarmStartRetrainer.cold_retrain(template, corpus)
    assert fresh.spec.name == "syslog"
    assert fresh.settings == template.settings
    assert not report.warm and report.n_new == len(corpus)
    parsed = fresh.parse_many([record.text for record in corpus])
    assert len(parsed) == len(corpus)


@pytest.fixture(scope="module")
def settings_world(tmp_path_factory):
    corpus = CorpusGenerator(CorpusConfig(seed=2023)).labeled_corpus(36)
    # A small first fit, so the warm retrain below runs into the budget.
    original = WhoisParser(l2=0.1, max_iterations=30, min_count=2).fit(
        corpus[:12]
    )
    model_dir = tmp_path_factory.mktemp("settings") / "model"
    original.save(model_dir)
    return original, corpus, model_dir


def _params(parser):
    return [parser.block_crf.params, parser.registrant_crf.params]


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_a_loaded_parser_retrains_as_the_original(settings_world, mmap):
    """Loading keeps the fit's settings: a cold retrain of the loaded
    parser and a warm one on it give the original's parameters, bit for
    bit."""
    original, corpus, model_dir = settings_world
    loaded = WhoisParser.load(model_dir, mmap=mmap)
    assert loaded.settings == original.settings
    cold_loaded, _ = WarmStartRetrainer.cold_retrain(loaded, corpus)
    cold_original, _ = WarmStartRetrainer.cold_retrain(original, corpus)
    for got, want in zip(_params(cold_loaded), _params(cold_original)):
        assert np.array_equal(got, want)
    warm_original = copy.deepcopy(original)
    for parser in (loaded, warm_original):
        parser.partial_fit(corpus[12:])
    for got, want in zip(_params(loaded), _params(warm_original)):
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------


def _loop(world, oracle, **config):
    parser, train, holdout, _unseen = world
    models = ModelRegistry()
    models.publish(copy.deepcopy(parser))
    # Full replay: at this tiny train scale a sampled replay underfits
    # the old formats enough to trip the holdout gate.
    defaults = dict(min_cluster_size=3, replay_size=len(train))
    defaults.update(config)
    return models, MaintenanceLoop(
        models,
        oracle,
        replay=train,
        holdout=holdout,
        config=MaintenanceConfig(**defaults),
    )


def test_loop_end_to_end_one_label_and_activation(world):
    parser, _train, holdout, unseen = world
    models, loop = _loop(world, CorpusOracle(unseen))
    before = evaluate_parser(parser, unseen).line_error_rate
    report = loop.process(unseen)  # LabeledRecords are accepted directly
    assert len(report.alerts) == 1
    assert len(report.label_requests) == 1
    assert report.activated_versions == ["v0002"]
    assert models.current_version == "v0002"
    after = evaluate_parser(models.current_parser, unseen).line_error_rate
    assert after < before
    known = evaluate_parser(models.current_parser, holdout).line_error_rate
    assert after <= known + 0.02


def test_loop_with_pending_oracle_requests_one_label(world):
    oracle = PendingOracle()
    models, loop = _loop(world, oracle)
    _parser, _train, _holdout, unseen = world
    report = loop.process([(r.domain, r.text) for r in unseen])
    assert [e.kind for e in report.events].count("label_pending") >= 1
    assert len(oracle.pending) >= 1
    assert models.current_version == "v0001"  # nothing activated


def test_loop_rejects_regressing_candidate(world):
    _parser, _train, _holdout, unseen = world
    # An impossible tolerance: any candidate (even one that does not
    # regress at all) is rejected, exercising the rollback path.
    models, loop = _loop(
        world, CorpusOracle(unseen), max_regression=-1.0
    )
    report = loop.process(unseen)
    assert report.activated_versions == []
    assert len(report.rejected_versions) >= 1
    # The rejected candidate is published for audit but never activated.
    assert models.current_version == "v0001"
    assert report.rejected_versions[0] in models.versions()


def test_loop_quarantines_garbled_records(world):
    models, loop = _loop(world, PendingOracle())
    loop.observe("mojibake.com", "\x00\xff" * 400)
    assert loop.report.quarantined == 1
    assert loop.detector.records_seen == 0
    assert models.current_version == "v0001"
