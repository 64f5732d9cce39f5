"""Error metrics for WHOIS parsers (Section 5.1).

The paper measures two test-set error rates: the *line error rate* (the
fraction of lines across all records that are mislabeled) and the
*document error rate* (the fraction of records with at least one
mislabeled line).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from repro.whois.records import LabeledRecord


class BlockLabeler(Protocol):
    """Anything that can assign block labels to a record's lines."""

    def predict_blocks(self, record: LabeledRecord) -> list[str]:
        """First-level label per labelable line of ``record``."""
        ...


@dataclass(frozen=True)
class ParserEvaluation:
    """Aggregate evaluation of one parser over one test set."""

    n_records: int
    n_lines: int
    line_errors: int
    document_errors: int
    confusion: dict[tuple[str, str], int]  # (gold, predicted) -> count

    @property
    def line_error_rate(self) -> float:
        """Mislabeled lines over all lines (the paper's headline metric)."""
        return self.line_errors / self.n_lines if self.n_lines else 0.0

    @property
    def document_error_rate(self) -> float:
        """Fraction of records with at least one mislabeled line."""
        return self.document_errors / self.n_records if self.n_records else 0.0


def count_line_errors(
    predicted: Sequence[str], gold: Sequence[str]
) -> int:
    """Number of positions where ``predicted`` disagrees with ``gold``."""
    if len(predicted) != len(gold):
        raise ValueError(
            f"predicted {len(predicted)} labels for {len(gold)} lines"
        )
    return sum(p != g for p, g in zip(predicted, gold))


def evaluate_parser(
    parser: BlockLabeler, records: Iterable[LabeledRecord]
) -> ParserEvaluation:
    """Evaluate block labeling over a labeled test set."""
    n_records = n_lines = line_errors = document_errors = 0
    confusion: Counter = Counter()
    for record in records:
        predicted = parser.predict_blocks(record)
        gold = record.block_labels
        errors = count_line_errors(predicted, gold)
        for p, g in zip(predicted, gold):
            if p != g:
                confusion[(g, p)] += 1
        n_records += 1
        n_lines += len(gold)
        line_errors += errors
        document_errors += errors > 0
    return ParserEvaluation(
        n_records=n_records,
        n_lines=n_lines,
        line_errors=line_errors,
        document_errors=document_errors,
        confusion=dict(confusion),
    )

