"""Quarantine for records the parser rejects.

"On Automatic Parsing of Log Records" motivates quarantining unparseable
inputs instead of dropping them: a record the pipeline cannot trust is
still evidence (of a hostile server, a charset bug, a truncated fetch)
and must stay queryable.  :class:`RecordGate` decides which fetched
thick records to reject -- structurally garbled ones (empty bodies,
NULs, mojibake) and, when the parser exposes posterior marginals,
records whose label confidence collapses (the signature of truncation
and format damage).  Rejected records land in the survey database's
quarantine table as first-class :class:`QuarantinedRecord` rows instead
of silently counting as ``ok``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.errors import CrawlError, GarbledRecord, Truncated


@dataclass(frozen=True)
class QuarantinedRecord:
    """One rejected record: the domain, the raw text, and the typed
    reason it was rejected."""

    domain: str
    text: str
    error: CrawlError

    @property
    def reason(self) -> str:
        """The stable taxonomy code of the rejection error."""
        return self.error.code


#: A thick record more than this share of whose characters read as
#: binary damage is garbled.
MAX_SUSPICIOUS_FRACTION = 0.005
#: Truncation bites hardest at the end of a record: the lowest marginal
#: over its last ``TAIL_LINES`` lines must clear the confidence floor too.
TAIL_LINES = 2


#: The characters that read as binary damage: the control characters
#: (category Cc, U+0000-001F and U+007F-009F) other than \n \r \t, the
#: private-use characters (category Co, U+E000-F8FF, U+F0000-FFFFD and
#: U+100000-10FFFD) and the replacement character U+FFFD.  Unicode's
#: stability policy freezes both categories, so the class is exact on
#: every Unicode version.
_DAMAGE = re.compile(
    r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f\ue000-\uf8ff\ufffd"
    r"\U000f0000-\U000ffffd\U00100000-\U0010fffd]"
)


def _suspicious_fraction(text: str) -> float:
    """Fraction of characters that read as binary damage (:data:`_DAMAGE`):
    NULs, other control characters (beyond whitespace), private-use
    characters and U+FFFD replacements."""
    if not text:
        return 1.0
    return len(_DAMAGE.findall(text)) / len(text)


@dataclass(frozen=True)
class RecordGate:
    """The admission test a fetched thick record must pass.

    Structural checks are parser-free: empty bodies and binary/mojibake
    damage are :class:`GarbledRecord`, records with fewer than
    ``min_lines`` non-blank lines :class:`Truncated` (char-grained
    domains, whose records are one logical line, use ``min_lines=1``).
    With ``min_mean_confidence`` set and a parser exposing
    ``line_confidences`` (the statistical parser's posterior
    marginals), records whose mean Viterbi-label marginal -- or whose
    lowest marginal over the last :data:`TAIL_LINES` lines -- falls
    below the floor are :class:`Truncated`: damaged input makes the CRF
    hedge, which is exactly the low-confidence routing Section 5.3
    implies.
    """

    min_lines: int = 3
    min_mean_confidence: float | None = None

    def inspect_text(self, domain: str, text: str | None) -> CrawlError | None:
        """Parser-free structural check; None means admissible."""
        if text is None or not text.strip():
            return GarbledRecord(
                f"empty thick record for {domain}", domain=domain
            )
        if _suspicious_fraction(text) > MAX_SUSPICIOUS_FRACTION:
            return GarbledRecord(
                f"binary/mojibake damage in thick record for {domain}",
                domain=domain,
            )
        if len([ln for ln in text.splitlines() if ln.strip()]) < self.min_lines:
            return Truncated(
                f"thick record for {domain} is implausibly short",
                domain=domain,
            )
        return None

    def inspect_confidence(
        self, domain: str, text: str, parser
    ) -> CrawlError | None:
        """Marginal-confidence check, for parsers that expose it."""
        floor = self.min_mean_confidence
        line_confidences = getattr(parser, "line_confidences", None)
        if floor is None or line_confidences is None:
            return None
        scored = [c for _, _, c in line_confidences(text)]
        if not scored:
            return GarbledRecord(
                f"no labelable lines in thick record for {domain}",
                domain=domain,
            )
        mean = sum(scored) / len(scored)
        obs.observe("resilience.gate.mean_confidence", mean)
        if mean < floor:
            return Truncated(
                f"parser confidence {mean:.3f} below {floor:.3f} for "
                f"{domain} (truncated or damaged record)",
                domain=domain,
            )
        tail = min(scored[-TAIL_LINES:])
        if tail < floor:
            return Truncated(
                f"parser confidence {tail:.3f} on the record tail below "
                f"{floor:.3f} for {domain} (record cut mid-stream)",
                domain=domain,
            )
        return None

    def inspect(self, domain: str, text: str | None, parser=None) -> CrawlError | None:
        """Full admission test; None means the record is trusted."""
        error = self.inspect_text(domain, text)
        if error is None and parser is not None and text is not None:
            error = self.inspect_confidence(domain, text, parser)
        return error


class _BatchScores:
    """What :func:`screen_and_parse` hands :meth:`RecordGate.inspect` as
    the parser: the first ``line_confidences`` call scores every text of
    the batch that passed the gate's structural check with one
    ``line_confidences_many`` pass, later calls read the stored scores.
    A gate without a confidence floor never asks, so it triggers no
    scoring at all."""

    def __init__(self, score_many, texts: list[str]) -> None:
        self._score_many = score_many
        self._texts = texts
        self._scores: dict[str, list] | None = None

    def line_confidences(self, text: str) -> list:
        """The batch's stored scores for ``text``."""
        if self._scores is None:
            unique = list(dict.fromkeys(self._texts))
            self._scores = dict(zip(unique, self._score_many(unique)))
        return self._scores[text]


def screen_and_parse(
    gate: "RecordGate | None",
    parser,
    records: Sequence[tuple[str, str]],
) -> tuple[list[tuple[int, object]], list[tuple[int, CrawlError]]]:
    """Gate a batch of ``(domain, text)`` records, then parse the admitted.

    Returns ``(admitted, rejected)``: ``(index, parsed record)`` for every
    record the gate admits and ``(index, error)`` for every one it
    rejects, each in input order.  The gate sees only ``inspect``, in
    two passes: without a parser over the whole batch (its structural
    check), then with one over the records that passed.  When the parser
    has ``line_confidences_many`` those records are scored in one pass on
    the first confidence check, so structural rejects (empty, garbled,
    short) are never scored, and ``parse_many`` over the admitted
    records then finds their lines in the line cache that scoring
    filled.  Parsers with only a per-record ``line_confidences`` are
    asked per record, and parsers with neither pass the confidence
    check.
    """
    records = list(records)
    rejected: list[tuple[int, CrawlError]] = []
    keep = list(range(len(records)))
    if gate is not None:
        verdicts = [gate.inspect(domain, text) for domain, text in records]
        passed = [i for i, error in enumerate(verdicts) if error is None]
        score_many = getattr(parser, "line_confidences_many", None)
        scorer = (
            parser if score_many is None
            else _BatchScores(score_many, [records[i][1] for i in passed])
        )
        for i in passed:
            verdicts[i] = gate.inspect(*records[i], scorer)
        keep = [i for i, error in enumerate(verdicts) if error is None]
        rejected = [
            (i, error) for i, error in enumerate(verdicts) if error is not None
        ]
    parsed = parser.parse_many([records[i][1] for i in keep])
    return list(zip(keep, parsed)), rejected
