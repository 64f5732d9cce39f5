"""Drivers for every table and figure in the paper's evaluation.

Each function regenerates one experiment at a configurable (scaled-down)
corpus size; the ``benchmarks/`` directory wraps these in pytest-benchmark
targets that print the same rows/series the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import networkx as nx

from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.datagen.tlds import EXAMPLE_DOMAINS, NEW_TLDS
from repro.eval.crossval import LearningCurvePoint, learning_curve
from repro.eval.metrics import count_line_errors, evaluate_parser
from repro.netsim.crawler import CrawlStats, WhoisCrawler
from repro.netsim.internet import build_com_internet
from repro.parser import (
    RuleBasedParser,
    SimpleRegexParser,
    TemplateParser,
    WhoisParser,
)
from repro.survey.database import SurveyDatabase
from repro.whois.features import FeaturizerConfig
from repro.whois.labels import BLOCK_LABELS
from repro.whois.records import LabeledRecord

#: L2 strength used throughout the evaluation (tuned once, Section 3.4)
DEFAULT_L2 = 0.1


def make_parser(train: Sequence[LabeledRecord], **kwargs) -> WhoisParser:
    """The evaluation's statistical parser with standard settings."""
    kwargs.setdefault("l2", DEFAULT_L2)
    return WhoisParser(**kwargs).fit(train)


# ----------------------------------------------------------------------
# Table 1 / Figure 1: model introspection
# ----------------------------------------------------------------------


def table1_top_features(
    parser: WhoisParser, *, k: int = 8
) -> dict[str, list[tuple[str, float]]]:
    """Heavily weighted observation features per first-level label."""
    return {
        label: parser.top_block_features(label, k=k) for label in BLOCK_LABELS
    }


def figure1_transition_graph(parser: WhoisParser, *, k: int = 18) -> nx.DiGraph:
    """Graph of top transition-detecting features between blocks.

    Nodes are the six block labels; each edge carries the attributes most
    predictive of that transition, with their weights.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(BLOCK_LABELS)
    for attr, prev_label, label, weight in parser.top_transition_features(k=k):
        if graph.has_edge(prev_label, label):
            graph[prev_label][label]["features"].append((attr, weight))
        else:
            graph.add_edge(prev_label, label, features=[(attr, weight)])
    return graph


# ----------------------------------------------------------------------
# Figures 2 and 3: learning curves
# ----------------------------------------------------------------------


def figures2_3_learning_curves(
    *,
    n_records: int = 1500,
    train_sizes: Sequence[int] = (20, 100, 300),
    n_folds: int = 5,
    seed: int = 0,
) -> list[LearningCurvePoint]:
    """The Section 5.1 cross-validated comparison (scaled down)."""
    corpus = CorpusGenerator(CorpusConfig(seed=seed)).labeled_corpus(n_records)
    factories = {
        "rule-based": lambda train: RuleBasedParser().fit(train),
        "statistical": lambda train: make_parser(train, second_level=False),
    }
    return learning_curve(
        corpus, factories, train_sizes=train_sizes, n_folds=n_folds, seed=seed
    )


# ----------------------------------------------------------------------
# Table 2 / Section 5.3: new TLDs and maintainability
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NewTldResult:
    """One Table 2 row: per-TLD mislabeled lines, rules vs CRF."""

    tld: str
    example_domain: str
    total_lines: int
    rule_errors: int
    statistical_errors: int


def table2_new_tlds(
    *, train_size: int = 400, seed: int = 0
) -> list[NewTldResult]:
    """Per-TLD mislabeled lines for parsers trained only on com."""
    generator = CorpusGenerator(CorpusConfig(seed=seed))
    corpus = generator.labeled_corpus(train_size)
    statistical = make_parser(corpus, second_level=False)
    rules = RuleBasedParser().fit(corpus)
    results = []
    for tld, record in generator.new_tld_records().items():
        gold = record.block_labels
        results.append(
            NewTldResult(
                tld=tld,
                example_domain=EXAMPLE_DOMAINS[tld],
                total_lines=len(gold),
                rule_errors=count_line_errors(
                    rules.predict_blocks(record), gold
                ),
                statistical_errors=count_line_errors(
                    statistical.predict_blocks(record), gold
                ),
            )
        )
    return results


@dataclass(frozen=True)
class MaintainabilityResult:
    """Section 5.3 outcome: error counts before/after one-example fixes."""

    rule_tlds_with_errors: int
    statistical_tlds_with_errors: int
    examples_added: int
    statistical_errors_after: int
    rule_tlds_with_errors_after_exposure: int


def sec53_maintainability(
    *, train_size: int = 400, seed: int = 0
) -> MaintainabilityResult:
    """Section 5.3: fixing new-TLD errors with a handful of examples.

    The statistical parser is retrained with one labeled record per failing
    TLD (plus replay) and must reach zero errors on fresh records from those
    TLDs; the rule-based parser, even granted exposure to the same examples
    (the best case for rule maintenance, which in reality needs hand-edited
    rules), is re-measured for comparison.
    """
    generator = CorpusGenerator(CorpusConfig(seed=seed))
    corpus = generator.labeled_corpus(train_size)
    statistical = make_parser(corpus, second_level=False)
    rules = RuleBasedParser().fit(corpus)

    first_samples = generator.new_tld_records()
    failing: dict[str, LabeledRecord] = {}
    rule_failures = 0
    for tld, record in first_samples.items():
        gold = record.block_labels
        if count_line_errors(statistical.predict_blocks(record), gold) > 0:
            failing[tld] = record
        rule_failures += (
            count_line_errors(rules.predict_blocks(record), gold) > 0
        )

    statistical.partial_fit(list(failing.values()), replay=corpus[:100])
    rules.add_records(list(failing.values()))

    # Fresh records from the same TLDs (formats are per-TLD consistent).
    fresh_generator = CorpusGenerator(CorpusConfig(seed=seed + 1))
    fresh = fresh_generator.new_tld_records()
    statistical_errors_after = 0
    rule_failures_after = 0
    for tld, record in fresh.items():
        gold = record.block_labels
        if tld in failing:
            statistical_errors_after += count_line_errors(
                statistical.predict_blocks(record), gold
            )
        rule_failures_after += (
            count_line_errors(rules.predict_blocks(record), gold) > 0
        )
    return MaintainabilityResult(
        rule_tlds_with_errors=rule_failures,
        statistical_tlds_with_errors=len(failing),
        examples_added=len(failing),
        statistical_errors_after=statistical_errors_after,
        rule_tlds_with_errors_after_exposure=rule_failures_after,
    )


# ----------------------------------------------------------------------
# Section 2.3: baseline parser weaknesses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineResult:
    """Section 2.3 baseline weaknesses: template coverage and drift decay."""

    template_coverage: float
    template_ok_rate_static: float
    template_ok_rate_drifted: float
    regex_registrant_accuracy: float
    statistical_registrant_accuracy: float


def sec23_baselines(
    *,
    n_train: int = 400,
    n_test: int = 400,
    drift_probability: float = 0.8,
    seed: int = 0,
) -> BaselineResult:
    """Template coverage/fragility and generic-regex registrant accuracy."""
    generator = CorpusGenerator(CorpusConfig(seed=seed))
    train = generator.labeled_corpus(n_train)
    test = generator.labeled_corpus(n_test)
    drift_generator = CorpusGenerator(
        CorpusConfig(seed=seed + 1, drift_probability=drift_probability)
    )
    drifted = drift_generator.labeled_corpus(n_test)

    templates = TemplateParser().fit(train)
    coverage = templates.coverage(test)
    ok_static = templates.outcome_counts(test)["ok"] / n_test
    ok_drifted = templates.outcome_counts(drifted)["ok"] / n_test

    regex_accuracy = SimpleRegexParser().registrant_accuracy(test)

    statistical = make_parser(train)
    hits = checked = 0
    for record in test:
        gold = next(
            (l.text for l in record.lines
             if l.block == "registrant" and l.sub == "name"),
            None,
        )
        if gold is None:
            continue
        checked += 1
        parsed = statistical.parse(record.to_record())
        name = parsed.registrant_name
        if name and name.lower().strip() in gold.lower():
            hits += 1
    return BaselineResult(
        template_coverage=coverage,
        template_ok_rate_static=ok_static,
        template_ok_rate_drifted=ok_drifted,
        regex_registrant_accuracy=regex_accuracy,
        statistical_registrant_accuracy=hits / checked if checked else 0.0,
    )


# ----------------------------------------------------------------------
# Section 4.1 + Section 6: crawl and survey
# ----------------------------------------------------------------------


def crawl_and_survey(
    *,
    n_domains: int = 4000,
    n_train: int = 300,
    n_dbl: int = 800,
    seed: int = 0,
    fault_profile=None,
    fault_seed: int = 0,
    retry_policy=None,
    breaker=None,
    gate=None,
    store=None,
    shards: int = 1,
) -> tuple[CrawlStats, SurveyDatabase, WhoisParser]:
    """End-to-end pipeline: crawl the zone, parse, build the database.

    The crawl enters the survey the one way every crawl does:
    :func:`~repro.survey.ingest.jobs_from_results` then
    :func:`~repro.survey.ingest.sharded_ingest`, on the bulk parse path
    (:meth:`WhoisParser.parse_many`).  ``store`` selects the survey
    backend (any :class:`~repro.survey.store.SurveyStore`; in-memory by
    default) and ``shards`` > 1 fans the admit -> parse -> normalize ->
    write pipeline across worker processes while keeping rows identical
    to the single-process path.  DBL-listed registrations (the
    blacklist join of Section 6.4) follow as ``blacklisted`` jobs of a
    second, ungated ingest into the same store: they are not zone
    domains, so they never enter the crawl stats.

    Resilience knobs: ``fault_profile`` (a name from
    :data:`repro.netsim.faults.PROFILES`, a JSON path, or a
    ``FaultProfile``) injects a hostile internet; ``retry_policy`` and
    ``breaker`` tune the crawler's recovery; ``gate`` (a
    :class:`~repro.resilience.RecordGate`, created by default whenever
    faults are on) quarantines thick records the parser rejects instead
    of counting them as ok.
    """
    from repro.resilience.quarantine import RecordGate
    from repro.survey.ingest import IngestJob, jobs_from_results, sharded_ingest

    generator = CorpusGenerator(CorpusConfig(seed=seed))
    train = generator.labeled_corpus(n_train)
    parser = make_parser(train)

    zone, registrations = generator.zone(n_domains)
    internet, _clock, _truth = build_com_internet(
        generator, zone, registrations,
        faults=fault_profile, fault_seed=fault_seed,
    )
    crawler = WhoisCrawler(
        internet, retry_policy=retry_policy, breaker=breaker
    )
    results = crawler.crawl(zone)

    if gate is None and fault_profile is not None:
        gate = RecordGate()
    db = sharded_ingest(
        jobs_from_results(results), parser,
        store=store, shards=shards, gate=gate, stats=crawler.stats,
    )
    dbl_jobs = [
        IngestJob(domain=record.domain, text=record.text, blacklisted=True)
        for record in map(generator.render, generator.dbl_registrations(n_dbl))
    ]
    sharded_ingest(dbl_jobs, parser, store=db.store, shards=shards)
    return crawler.stats, db, parser


# ----------------------------------------------------------------------
# Ablation: two-level hierarchy vs one flat CRF
# ----------------------------------------------------------------------

_FLAT_LABELS = tuple(
    label for label in BLOCK_LABELS if label != "registrant"
) + tuple(f"registrant+{sub}" for sub in (
    "name", "id", "org", "street", "city", "state", "postcode", "country",
    "phone", "fax", "email", "other",
))


def _flatten_labels(record: LabeledRecord) -> list[str]:
    return [
        line.block if line.block != "registrant"
        else f"registrant+{line.sub or 'other'}"
        for line in record.lines
    ]


@dataclass(frozen=True)
class FlatVsTwoLevelResult:
    """Flat single-CRF vs the paper's two-level strategy, same data."""

    flat_block_error: float
    two_level_block_error: float
    flat_sub_error: float
    two_level_sub_error: float
    flat_states: int
    two_level_states: tuple[int, int]


def two_level_vs_flat(
    *, n_train: int = 120, n_test: int = 300, seed: int = 0
) -> FlatVsTwoLevelResult:
    """The paper's hierarchy (6-state CRF + 12-state registrant CRF) vs a
    single flat CRF over the 17 joint labels."""
    from repro.crf.model import ChainCRF
    from repro.parser.bulk import fit_encoder
    from repro.whois.features import WhoisFeaturizer

    generator = CorpusGenerator(CorpusConfig(seed=seed))
    train = generator.labeled_corpus(n_train)
    test = generator.labeled_corpus(n_test)

    two_level = make_parser(train)
    encoder = fit_encoder(
        WhoisFeaturizer(), _FLAT_LABELS, [r.raw_lines for r in train]
    )
    flat = ChainCRF(_FLAT_LABELS, l2=DEFAULT_L2, max_iterations=120).fit(
        encoder.index,
        [encoder.encode_record(r.raw_lines) for r in train],
        [_flatten_labels(r) for r in train],
    )
    preds_flat = flat.predict_many(
        [encoder.encode_record(r.raw_lines) for r in test]
    )

    flat_block = flat_sub = two_block = two_sub = 0
    n_lines = n_reg_lines = 0
    for record, pred_flat in zip(test, preds_flat):
        gold_joint = _flatten_labels(record)
        pred_two = two_level.label_lines(record)
        for gold, p_flat, (_, p_block, p_sub) in zip(
            gold_joint, pred_flat, pred_two
        ):
            n_lines += 1
            gold_block = gold.split("+")[0]
            flat_block += p_flat.split("+")[0] != gold_block
            two_block += p_block != gold_block
            if gold_block == "registrant":
                n_reg_lines += 1
                gold_sub = gold.split("+")[1]
                flat_sub += p_flat != gold
                two_sub += (p_block != "registrant"
                            or (p_sub or "other") != gold_sub)
    return FlatVsTwoLevelResult(
        flat_block_error=flat_block / n_lines,
        two_level_block_error=two_block / n_lines,
        flat_sub_error=flat_sub / n_reg_lines,
        two_level_sub_error=two_sub / n_reg_lines,
        flat_states=len(_FLAT_LABELS),
        two_level_states=(len(BLOCK_LABELS), 12),
    )


# ----------------------------------------------------------------------
# Extension: second-level (registrant sub-field) extraction quality
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FieldMetrics:
    """Per-field extraction counts with precision/recall/F1 views."""

    field: str
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 0.0 when the field was never predicted."""
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 0.0 when the field never occurs in gold."""
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (0.0 when both are 0)."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def registrant_field_metrics(
    parser: WhoisParser, records: Sequence[LabeledRecord]
) -> dict[str, FieldMetrics]:
    """Per-subfield precision/recall of the second-level CRF.

    The paper evaluates the first level (Figures 2-3); this extension
    quantifies the registrant extraction the survey relies on.
    """
    counts: dict[str, list[int]] = {}
    for record in records:
        segments: list[list] = []
        current: list = []
        for line in record.lines:
            if line.block == "registrant":
                current.append(line)
            elif current:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        for segment in segments:
            predicted = parser.predict_registrant_fields(
                [line.text for line in segment]
            )
            for line, pred in zip(segment, predicted):
                gold = line.sub or "other"
                for field in (gold, pred):
                    counts.setdefault(field, [0, 0, 0])
                if pred == gold:
                    counts[gold][0] += 1
                else:
                    counts[pred][1] += 1
                    counts[gold][2] += 1
    return {
        field: FieldMetrics(field, tp, fp, fn)
        for field, (tp, fp, fn) in sorted(counts.items())
    }


# ----------------------------------------------------------------------
# Ablations (DESIGN.md's design-choice studies)
# ----------------------------------------------------------------------

ABLATION_CONFIGS: dict[str, FeaturizerConfig] = {
    "full": FeaturizerConfig(),
    "no-tv-tagging": FeaturizerConfig(tv_tagging=False),
    "no-markers": FeaturizerConfig(markers=False),
    "no-classes": FeaturizerConfig(classes=False),
    "no-edge-features": FeaturizerConfig(edge_words=False, edge_markers=False),
    "no-header-context": FeaturizerConfig(header_context=False),
    "no-plain-words": FeaturizerConfig(plain_words=False),
    "no-prefixes": FeaturizerConfig(prefixes=False),
}


def ablation_study(
    *,
    n_train: int = 60,
    n_test: int = 300,
    seed: int = 0,
    configs: dict[str, FeaturizerConfig] | None = None,
) -> dict[str, float]:
    """Line error rate per featurizer configuration, small-training regime
    (where feature design matters most)."""
    generator = CorpusGenerator(CorpusConfig(seed=seed))
    train = generator.labeled_corpus(n_train)
    test = generator.labeled_corpus(n_test)
    results = {}
    for name, config in (configs or ABLATION_CONFIGS).items():
        parser = make_parser(
            train, featurizer_config=config, second_level=False
        )
        results[name] = evaluate_parser(parser, test).line_error_rate
    return results
