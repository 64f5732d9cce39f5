"""The survey-scale cross-protocol auditor.

One audit = one domain's WHOIS parse diffed against its RDAP object
through the comparable schema.  At scale the audit rides the survey's
sharded-ingest machinery: :func:`attach_rdap` pairs each ingest job
with its RDAP payload, and :func:`run_audit` pushes the whole batch
through :func:`~repro.survey.ingest.sharded_ingest`, whose workers
parse (``parse_many``), normalize, diff, and write per-shard replicas
-- entries *and* audit verdicts -- that merge row-identically into the
destination :class:`~repro.survey.store.SurveyStore`.

The per-registrar aggregate (:meth:`SurveyStore.audit_registrar_counts`)
is both the "WHOIS Right?"-style inconsistency table and the input to
the maintenance loop's second drift signal
(:class:`~repro.pipeline.drift.RegistrarDisagreementSignal`).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro import obs
from repro.consistency.compare import (
    comparable_from_parsed,
    comparable_from_rdap,
)
from repro.consistency.diff import FieldDiff, diff_records

if TYPE_CHECKING:
    from repro.parser.fields import ParsedRecord
    from repro.survey.database import SurveyDatabase
    from repro.survey.ingest import IngestJob
    from repro.survey.store import SurveyStore

__all__ = [
    "AuditRecord",
    "AuditSummary",
    "attach_rdap",
    "audit_parsed",
    "run_audit",
    "summarize_audits",
]


@dataclass(frozen=True)
class AuditRecord:
    """One domain's cross-protocol consistency verdict."""

    domain: str
    #: canonical registrar, attributed from the RDAP side when present
    #: (the registry's own answer) and the WHOIS parse otherwise
    registrar: "str | None"
    verdict: str  # "agree" | "disagree" | "incomparable"
    compared: int
    diffs: tuple[FieldDiff, ...] = ()

    @property
    def consistent(self) -> "bool | None":
        """True/False under a definite verdict, None when incomparable."""
        if self.verdict == "incomparable":
            return None
        return self.verdict == "agree"

    @property
    def diff_fields(self) -> tuple[str, ...]:
        """Names of the disagreeing fields."""
        return tuple(diff.field for diff in self.diffs)


def audit_parsed(
    domain: str, parsed: "ParsedRecord", rdap_payload: dict
) -> AuditRecord:
    """Diff one WHOIS parse against its RDAP payload."""
    whois_view = comparable_from_parsed(domain, parsed)
    rdap_view = comparable_from_rdap(rdap_payload)
    outcome = diff_records(whois_view, rdap_view)
    obs.inc("consistency.audits", verdict=outcome.verdict)
    return AuditRecord(
        domain=domain,
        registrar=rdap_view.registrar or whois_view.registrar,
        verdict=outcome.verdict,
        compared=outcome.compared,
        diffs=outcome.diffs,
    )


def attach_rdap(
    jobs: "Sequence[IngestJob]",
    lookup: "Callable[[str], dict | None]",
) -> "tuple[list[IngestJob], list[str]]":
    """Pair ingest jobs with their RDAP payloads.

    ``lookup`` is any domain -> payload function -- a netsim
    :class:`~repro.netsim.rdap.RdapFace`'s ``lookup`` or a dict's
    ``get`` over saved responses.  Returns the audit-ready
    jobs plus the domains whose RDAP side was missing (those jobs pass
    through un-audited: the survey still ingests them, the audit tables
    skip them).
    """
    attached: "list[IngestJob]" = []
    missing: list[str] = []
    for job in jobs:
        payload = lookup(job.domain)
        if payload is None:
            missing.append(job.domain)
            attached.append(job)
        else:
            attached.append(dataclasses.replace(job, rdap=payload))
    if missing:
        obs.inc("consistency.rdap_missing", len(missing))
    return attached, missing


@dataclass
class AuditSummary:
    """Aggregate view of one audit run's verdict table."""

    total: int = 0
    agree: int = 0
    disagree: int = 0
    incomparable: int = 0
    #: disagreement count per field name, across all disagreeing domains
    field_counts: Counter = field(default_factory=Counter)
    #: canonical registrar -> (audited, disagreeing), definite verdicts only
    registrar_counts: "dict[str | None, tuple[int, int]]" = field(
        default_factory=dict
    )

    @property
    def disagreement_rate(self) -> float:
        """Share of definite verdicts that disagree."""
        definite = self.agree + self.disagree
        return self.disagree / definite if definite else 0.0


def summarize_audits(store: "SurveyStore") -> AuditSummary:
    """One streaming pass over a store's audit table."""
    summary = AuditSummary()
    for audit in store.iter_audits():
        summary.total += 1
        if audit.verdict == "agree":
            summary.agree += 1
        elif audit.verdict == "disagree":
            summary.disagree += 1
        else:
            summary.incomparable += 1
        for diff in audit.diffs:
            summary.field_counts[diff.field] += 1
    summary.registrar_counts = store.audit_registrar_counts()
    return summary


def run_audit(
    jobs: "Iterable[IngestJob]",
    parser,
    *,
    rdap_lookup: "Callable[[str], dict | None]",
    store: "SurveyStore | None" = None,
    shards: int = 1,
    gate=None,
    stats=None,
) -> "tuple[SurveyDatabase, AuditSummary]":
    """Audit a whole crawl: ingest + diff through the sharded pipeline.

    Returns the survey database over ``store`` (entries populated as a
    plain survey would) and the :class:`AuditSummary` of its audit
    table.  Row-identical across backends and shard counts, because the
    audit rows ride the same contiguous-chunk/ordered-merge machinery
    as the entries.
    """
    from repro.survey.ingest import sharded_ingest

    jobs, _missing = attach_rdap(list(jobs), rdap_lookup)
    with obs.trace("consistency.audit_seconds", shards=str(shards)):
        db = sharded_ingest(
            jobs, parser, store=store, shards=shards, gate=gate, stats=stats
        )
    summary = summarize_audits(db.store)
    obs.set_gauge("consistency.disagreement_rate", summary.disagreement_rate)
    return db, summary
