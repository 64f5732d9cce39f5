"""The unified parser API.

Four parser families coexist in this repo -- the paper's two-level CRF
parser, the hand-crafted rule base, the per-registrar template parser,
and the generic regex parser -- and historically each exposed its own
calling convention.  :class:`Parser` is the one contract they all honor
now: ``parse`` maps a record (raw text or a structured record object) to
a :class:`~repro.parser.fields.ParsedRecord`, and ``parse_many`` is the
bulk entry point the survey/gateway paths program against, regardless of
whether the implementation batches (the CRF parser) or loops (everything
else, via :class:`ParserBase`).
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.parser.fields import ParsedRecord


@runtime_checkable
class Parser(Protocol):
    """What every WHOIS parser looks like from the outside."""

    def parse(self, record) -> ParsedRecord:
        """One record (raw text or record object) -> structured fields."""
        ...

    def parse_many(self, records) -> list[ParsedRecord]:
        """Bulk :meth:`parse`, one output per input, in order."""
        ...


class ParserBase:
    """Default ``parse_many``: a ``parse`` loop.

    Subclasses with a genuinely batched pipeline (the statistical parser)
    override this; for the baselines the loop *is* the honest
    implementation.
    """

    def parse(self, record) -> ParsedRecord:
        """One record -> structured fields; subclasses must implement."""
        raise NotImplementedError

    def parse_many(self, records: Sequence) -> list[ParsedRecord]:
        """Bulk :meth:`parse` as a plain loop."""
        return [self.parse(record) for record in records]
