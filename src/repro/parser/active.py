"""Active learning for parser maintenance.

Section 5.3's workflow is: deploy the parser, notice records it gets
wrong, label a handful, retrain.  At com scale nobody can eyeball 100M
records, so the missing piece is *finding* the records worth labeling.
This module ranks unlabeled records by the model's own uncertainty --
records whose least-confident line has low posterior probability are the
ones most likely to use an unfamiliar template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.parser.statistical import WhoisParser
from repro.whois.records import LabeledRecord, WhoisRecord

#: A record whose every line is predicted at least this confidently is
#: not worth labeling.
MIN_CONFIDENCE_THRESHOLD = 0.995


@dataclass(frozen=True)
class UncertainRecord:
    """One candidate for labeling, with its uncertainty scores."""

    index: int
    min_confidence: float  # posterior of the least certain line
    mean_confidence: float

    @property
    def uncertainty(self) -> float:
        """Selection score: one minus the weakest line posterior."""
        return 1.0 - self.min_confidence


def rank_by_uncertainty(
    parser: WhoisParser,
    records: Sequence[WhoisRecord | LabeledRecord | str],
) -> list[UncertainRecord]:
    """All records ranked most-uncertain first (the pool is scored in one
    batched pass)."""
    scored: list[UncertainRecord] = []
    for index, lines in enumerate(parser.line_confidences_many(records)):
        confidences = [probability for _line, _block, probability in lines]
        if not confidences:
            continue
        scored.append(
            UncertainRecord(
                index=index,
                min_confidence=min(confidences),
                mean_confidence=sum(confidences) / len(confidences),
            )
        )
    scored.sort(key=lambda r: (r.min_confidence, r.mean_confidence))
    return scored


def select_for_labeling(
    parser: WhoisParser,
    records: Sequence[WhoisRecord | LabeledRecord | str],
    k: int,
) -> list[int]:
    """Indices of the ``k`` records most worth labeling next.

    Records whose every line is already predicted at or above
    :data:`MIN_CONFIDENCE_THRESHOLD` are skipped entirely -- labeling
    them teaches the model nothing.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    ranked = rank_by_uncertainty(parser, records)
    chosen = [
        r.index for r in ranked if r.min_confidence < MIN_CONFIDENCE_THRESHOLD
    ]
    return chosen[:k]


def most_informative(
    parser: WhoisParser,
    records: Sequence[WhoisRecord | LabeledRecord | str],
) -> int | None:
    """Index of the single most-informative record, or None when empty.

    This is the §5.3 labeling budget taken to its limit: the maintenance
    loop (:mod:`repro.pipeline`) asks for exactly one label per detected
    schema family, and this picks which record earns it -- the one whose
    least-confident line the current model is most unsure about.
    """
    ranked = rank_by_uncertainty(parser, records)
    return ranked[0].index if ranked else None


def active_learning_round(
    parser: WhoisParser,
    pool: Sequence[LabeledRecord],
    k: int,
    *,
    replay: Iterable[LabeledRecord] = (),
) -> list[int]:
    """One label-and-retrain round: select, 'label' (ground truth is known
    for the pool), and partial_fit.  Returns the selected indices."""
    selected = select_for_labeling(parser, pool, k)
    if selected:
        parser.partial_fit([pool[i] for i in selected], replay=list(replay))
    return selected
