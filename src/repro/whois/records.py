"""WHOIS records and their line-granularity labeling.

Following Section 3 of the paper, a record is chunked into its individual
lines of text; every line containing at least one alphanumeric character is
*labelable* and carries exactly one block label (and, inside registrant
blocks, one sub-field label).  Empty lines and pure-punctuation lines carry
no label but still matter: they generate the ``NL``/``SYM`` context markers
used by the featurizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def is_labelable(line: str) -> bool:
    """True if the line contains an alphanumeric character (Section 3.1)."""
    # An explicit loop: this runs once per line of every parsed record,
    # and a generator expression costs a frame per call.
    for ch in line:
        if ch.isalnum():
            return True
    return False


def segment_chars(text: str) -> list[str]:
    """Segment a record with no line structure into character units.

    The char-granularity counterpart of ``splitlines()``: whitespace
    runs (including newlines) collapse to a single space and the ends
    are stripped, then every remaining character -- spaces and
    punctuation included -- is one labelable unit.  Keeping delimiters
    labelable is what lets field values reassemble exactly (a DOI's
    dots, a page range's dash); under line granularity they would have
    been filtered as non-labelable and lost.
    """
    return list(" ".join(text.split()))


def labelable_units(raw_lines: list[str], granularity: str) -> list[str]:
    """The units of ``raw_lines`` that carry labels, per granularity.

    Every character is labelable under ``"char"`` granularity; under
    ``"line"`` only lines passing :func:`is_labelable` are.
    """
    if granularity == "char":
        return list(raw_lines)
    return [ln for ln in raw_lines if is_labelable(ln)]


@dataclass(frozen=True)
class WhoisRecord:
    """A raw (unlabeled) WHOIS response for one domain."""

    domain: str
    text: str

    @property
    def lines(self) -> list[str]:
        """The raw text split into lines (labelable or not)."""
        return self.text.splitlines()

    def labelable_lines(self) -> list[tuple[int, str]]:
        """The (raw-index, text) pairs of lines that receive labels."""
        return [(i, ln) for i, ln in enumerate(self.lines) if is_labelable(ln)]

    def __len__(self) -> int:
        return len(self.labelable_lines())


@dataclass(frozen=True)
class LabeledLine:
    """One labelable line with its ground-truth (or predicted) labels."""

    text: str
    block: str
    sub: str | None = None


@dataclass
class LabeledRecord:
    """A WHOIS record whose labelable lines all carry labels.

    ``raw_lines`` preserves the record verbatim, including blank and
    symbol-only separator lines, so featurization context is intact;
    ``lines`` holds one :class:`LabeledLine` per labelable raw line, in
    order.
    """

    domain: str
    raw_lines: list[str]
    lines: list[LabeledLine]
    tld: str = field(default="com")
    registrar: str | None = None
    schema_family: str | None = None
    #: labeling unit: "line" (the WHOIS default) or "char" (each
    #: ``raw_lines`` entry is one character of a line-structure-free
    #: record; see :func:`segment_chars`)
    granularity: str = "line"

    def __post_init__(self) -> None:
        labelable = labelable_units(self.raw_lines, self.granularity)
        if len(labelable) != len(self.lines):
            raise ValueError(
                f"{self.domain}: {len(labelable)} labelable raw units but "
                f"{len(self.lines)} labeled units"
            )
        for raw, labeled in zip(labelable, self.lines):
            if raw != labeled.text:
                raise ValueError(
                    f"{self.domain}: labeled unit {labeled.text!r} does not "
                    f"match raw unit {raw!r}"
                )

    @property
    def text(self) -> str:
        """The verbatim record text (what a crawler would have fetched).

        Char-granularity units concatenate back without separators --
        the record never had line structure to restore.
        """
        if self.granularity == "char":
            return "".join(self.raw_lines)
        return "\n".join(self.raw_lines)

    @property
    def block_labels(self) -> list[str]:
        """Gold first-level label per labelable line."""
        return [line.block for line in self.lines]

    @property
    def sub_labels(self) -> list[str | None]:
        """Gold second-level label per labelable line (None outside it)."""
        return [line.sub for line in self.lines]

    def to_record(self) -> WhoisRecord:
        """Strip the labels, leaving the raw record."""
        return WhoisRecord(domain=self.domain, text=self.text)

    def registrant_lines(self) -> list[LabeledLine]:
        """The labeled lines of the registrant block (second-level data)."""
        return [line for line in self.lines if line.block == "registrant"]

    def __len__(self) -> int:
        return len(self.lines)
