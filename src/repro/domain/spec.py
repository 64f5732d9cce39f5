"""The domain plug-in contract: everything a structured-record domain pins.

The paper's two-level strategy -- a first-level CRF segmenting a record's
lines into blocks, a second-level CRF relabeling the lines of one special
block into sub-fields -- is not WHOIS-specific.  A :class:`DomainSpec`
bundles the per-domain choices that used to be hard-coded imports:

- the two label spaces (``block_labels`` and, optionally, ``sub_labels``
  for the lines of ``sub_block``);
- the default :class:`~repro.whois.features.FeaturizerConfig` (the
  feature *machinery* -- separators, word classes, layout markers -- is
  shared line-level text analysis and stays in
  :class:`~repro.whois.features.WhoisFeaturizer`);
- the ``assemble`` hook turning labeled lines into a
  :class:`~repro.parser.fields.ParsedRecord`;
- a ``make_generator`` factory for the domain's synthetic labeled
  substrate (anything with ``labeled_corpus(n)``), which is what train /
  eval / maintain benches and ``repro generate --domain`` run on.

:class:`~repro.parser.statistical.WhoisParser`, the model registry, the
serving tier, and the CLI resolve all of this through
:func:`repro.domain.get_domain` instead of importing WHOIS modules, so a
new domain is one registered spec away from the full train → serve →
maintain pipeline (see ``repro.domain.syslog`` for a complete second
domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.whois.features import FeaturizerConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.parser.fields import ParsedRecord
    from repro.whois.records import LabeledRecord

__all__ = ["CorpusSource", "DomainSpec", "sub_segments"]


class CorpusSource(Protocol):
    """Anything that can produce a labeled corpus for a domain.

    ``repro.datagen.CorpusGenerator`` (WHOIS) and
    :class:`repro.domain.syslog.SyslogGenerator` both satisfy this; the
    CLI and the benches only rely on this one method.
    """

    def labeled_corpus(self, n: int) -> "list[LabeledRecord]":
        """Render ``n`` deterministic labeled records."""
        ...


@dataclass(frozen=True)
class DomainSpec:
    """One pluggable parsing domain for the two-level CRF platform."""

    #: registry key; persisted into model snapshots and checked at load
    name: str
    #: first-level label space (must include ``null_label``)
    block_labels: tuple[str, ...]
    #: second-level label space, or ``None`` for single-level domains
    sub_labels: tuple[str, ...] | None = None
    #: the block whose lines get second-level sub-field labels
    sub_block: str | None = None
    #: sub-field label assigned when the second level abstains
    sub_default: str = "other"
    #: feature-family switches the domain trains with by default
    featurizer_config: FeaturizerConfig = field(
        default_factory=FeaturizerConfig
    )
    #: ``(lines, block_labels, sub_labels?) -> ParsedRecord`` field
    #: extraction; defaults to the WHOIS assembler when unset
    assemble: "Callable[..., ParsedRecord] | None" = None
    #: ``(seed=, drift=) -> CorpusSource`` synthetic-substrate factory
    make_generator: "Callable[..., CorpusSource] | None" = None
    #: optional ``text -> frozenset`` drift fingerprint override; unset,
    #: the granularity-appropriate default from
    #: :mod:`repro.pipeline.drift` applies (field titles for line
    #: domains, the punctuation-skeleton shape for char domains)
    fingerprint: "Callable[[str], frozenset] | None" = None
    #: one-line description shown by ``repro --help`` style listings
    description: str = ""

    def __post_init__(self) -> None:
        if self.sub_block is not None and self.sub_labels is None:
            raise ValueError(
                f"domain {self.name!r} names sub_block={self.sub_block!r} "
                f"but defines no sub_labels"
            )
        if self.sub_block is not None and self.sub_block not in self.block_labels:
            raise ValueError(
                f"domain {self.name!r}: sub_block {self.sub_block!r} is not "
                f"one of its block labels {self.block_labels}"
            )

    @property
    def has_second_level(self) -> bool:
        """Whether this domain defines a second labeling level at all."""
        return self.sub_labels is not None and self.sub_block is not None

    @property
    def granularity(self) -> str:
        """The domain's labeling unit (``"line"`` or ``"char"``).

        Pinned by the featurizer configuration so it travels inside
        model snapshots with the rest of the feature switches.
        """
        return self.featurizer_config.granularity

    def fingerprint_text(self, text: str) -> frozenset:
        """The drift-detection format fingerprint of one record.

        Domains may override via the ``fingerprint`` hook; otherwise
        line domains fingerprint on normalized field titles
        (:func:`~repro.pipeline.drift.format_fingerprint`) and char
        domains on the punctuation skeleton
        (:func:`~repro.pipeline.drift.shape_fingerprint`), since a
        single-line record has no field titles to speak of.
        """
        if self.fingerprint is not None:
            return self.fingerprint(text)
        from repro.pipeline.drift import format_fingerprint, shape_fingerprint

        if self.granularity == "char":
            return shape_fingerprint(text)
        return format_fingerprint(text)

    def assemble_record(
        self,
        lines: list[str],
        block_labels: list[str],
        sub_labels: "list[str] | None" = None,
    ) -> "ParsedRecord":
        """Run the domain's assembler over labeled lines."""
        assemble = self.assemble
        if assemble is None:
            from repro.parser.fields import assemble_record

            assemble = assemble_record
        return assemble(lines, block_labels, sub_labels)

    def generator(self, *, seed: int = 0, drift: float = 0.0) -> CorpusSource:
        """Build the domain's synthetic corpus generator.

        Raises :class:`~repro.errors.Unavailable` for domains that ship
        no substrate (real-data-only plug-ins).
        """
        if self.make_generator is None:
            from repro import errors

            raise errors.Unavailable(
                f"domain {self.name!r} has no synthetic corpus generator"
            )
        return self.make_generator(seed=seed, drift=drift)


def sub_segments(
    record: Any, spec: DomainSpec
) -> list[tuple[list[str], list[str]]]:
    """Contiguous ``spec.sub_block``-labeled runs as (texts, subs) pairs.

    The second-level training-set extraction shared by every domain:
    each contiguous run of lines labeled with the domain's sub-block
    becomes one training sequence for the second-level CRF.
    """
    if spec.sub_block is None:
        return []
    segments: list[tuple[list[str], list[str]]] = []
    texts: list[str] = []
    subs: list[str] = []
    for line in record.lines:
        if line.block == spec.sub_block:
            texts.append(line.text)
            subs.append(line.sub or spec.sub_default)
        elif texts:
            segments.append((texts, subs))
            texts, subs = [], []
    if texts:
        segments.append((texts, subs))
    return segments
