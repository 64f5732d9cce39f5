"""Cross-protocol consistency: does WHOIS agree with RDAP?

The paper parses port-43 WHOIS into structured records; "WHOIS Right?"
(PAPERS.md) asks the natural next question -- whether a registrar's two
protocol front doors even agree with each other.  This package is that
audit, survey-scale:

- :mod:`repro.consistency.compare` lowers a WHOIS parse and an RDAP
  object into one comparable, canonicalized schema;
- :mod:`repro.consistency.diff` diffs the two views field-by-field
  under a policy lenient to WHOIS's omissions and truncations;
- :mod:`repro.consistency.audit` runs the diff over a whole crawl on
  the survey's sharded-ingest machinery, persisting per-domain verdicts
  in the :class:`~repro.survey.store.SurveyStore` audit tables.

Systematic per-registrar disagreement feeds
:class:`~repro.pipeline.drift.RegistrarDisagreementSignal`: a registrar
whose WHOIS parses stop matching its own RDAP output has probably
changed schema, and the alert enters the existing
label -> retrain -> hot-swap maintenance loop.
"""

from repro.consistency.audit import (
    AuditRecord,
    AuditSummary,
    attach_rdap,
    audit_parsed,
    run_audit,
    summarize_audits,
)
from repro.consistency.compare import (
    ComparableRecord,
    comparable_from_parsed,
    comparable_from_rdap,
)
from repro.consistency.diff import FieldDiff, RecordDiff, diff_records

__all__ = [
    "AuditRecord",
    "AuditSummary",
    "ComparableRecord",
    "FieldDiff",
    "RecordDiff",
    "attach_rdap",
    "audit_parsed",
    "comparable_from_parsed",
    "comparable_from_rdap",
    "diff_records",
    "run_audit",
    "summarize_audits",
]
