"""Format-drift detection over live parse confidences.

Section 5.3's maintainability claim presumes someone *notices* when a
registrar ships a new record format.  At com scale nobody eyeballs the
stream, but the parser itself emits the signal: a CRF trained without a
format hedges on it, and its posterior marginals collapse exactly where
the template is unfamiliar (the same signal the resilience layer's
``RecordGate`` uses to spot truncation).

:class:`DriftDetector` is the streaming monitor that turns that signal
into actionable *family* alerts instead of a pile of individual
low-confidence records:

1. every record is reduced to a **format fingerprint** -- the set of
   normalized field titles on its labelable lines, which is stable
   within a registrar's template and distinctive across them;
2. confident records register their fingerprints as *known formats*
   (and the detector can be pre-seeded from the training corpus);
3. low-confidence records whose fingerprint is far (low Jaccard
   similarity) from every known format are clustered with each other,
   greedily, by the same similarity; and
4. when a cluster accumulates ``min_cluster_size`` members it raises a
   :class:`DriftAlert` -- one alert per candidate schema family, not
   one per record -- carrying the members so the active-labeling stage
   can pick the single most-informative one.

Everything is observable via ``repro.obs`` under ``pipeline.drift.*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.whois.records import is_labelable
from repro.whois.text import split_title_value

__all__ = [
    "DriftAlert",
    "DriftCluster",
    "DriftDetector",
    "RegistrarDisagreementSignal",
    "StreamRecord",
    "format_fingerprint",
    "jaccard",
    "shape_fingerprint",
]

#: A candidate whose fingerprint has Jaccard similarity at least this to
#: a known format is a hard record of that format, not a new family.
KNOWN_THRESHOLD = 0.6

#: A candidate joins the most similar open cluster at least this
#: similar; otherwise it founds a new cluster.
MERGE_THRESHOLD = 0.4

#: Most clusters a :class:`DriftDetector` keeps open; past it the
#: longest-idle one is evicted.
MAX_OPEN_CLUSTERS = 64

#: Records seen without gaining a member before a cluster is evicted.
CLUSTER_TTL = 20_000

#: Most resolved-family signatures kept for straggler attribution.
MAX_RESOLVED = 512

#: Most disagreeing records a registrar's disagreement alert carries.
MAX_EXEMPLARS = 8


def format_fingerprint(text: str) -> frozenset[str]:
    """The record's format signature: its normalized field titles.

    Lines with a title/value separator contribute the lowercased title.
    Separator-free lines (bare-value layouts) contribute their first
    word marked with ``~`` when it is purely alphabetic -- those are
    structural keywords like ``record``/``renewal``/``dns`` -- and a
    coarse shape token otherwise (``~#`` digit-led, ``~*`` mixed), so
    per-record content such as domains and street numbers does not make
    two records of the same template look different.  The *set*
    abstracts away field order and repetition, so records of the same
    template fingerprint nearly identically even with optional fields
    present or absent.
    """
    titles: set[str] = set()
    for line in text.splitlines():
        if not is_labelable(line):
            continue
        parts = split_title_value(line)
        if parts is None:
            words = line.split()
            if not words:
                continue
            first = words[0]
            if first.isalpha():
                titles.add("~" + first.lower())
            elif first[0].isdigit():
                titles.add("~#")
            else:
                titles.add("~*")
        else:
            title = " ".join(parts[0].lower().split())
            if title:
                titles.add(title)
    return frozenset(titles)


def shape_fingerprint(text: str, n: int = 4) -> frozenset[str]:
    """Format signature for char-granularity (single-line) records.

    A citation string has no field titles, but its *punctuation
    skeleton* -- where the commas, periods, quotes, and parentheses fall
    relative to words and numbers -- is exactly what distinguishes one
    style family from another.  The text is collapsed to that skeleton
    (every alphabetic run becomes ``a``, every digit run ``9``,
    whitespace runs ``_``, punctuation kept verbatim) and the set of its
    character ``n``-grams is the fingerprint.  Two records of the same
    style share most skeleton n-grams regardless of content; a new style
    with different delimiters shares few.
    """
    skeleton: list[str] = []
    prev = ""
    for ch in text:
        if ch.isalpha():
            out = "a"
        elif ch.isdigit():
            out = "9"
        elif ch.isspace():
            out = "_"
        else:
            out = ch
        if out in ("a", "9", "_") and out == prev:
            continue  # collapse runs: word/number length is content
        skeleton.append(out)
        prev = out
    s = "".join(skeleton)
    if len(s) <= n:
        return frozenset({s} if s else ())
    return frozenset(s[i : i + n] for i in range(len(s) - n + 1))


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """Jaccard similarity of two fingerprints (empty sets are disjoint)."""
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


@dataclass(frozen=True)
class StreamRecord:
    """One observed record with its confidence summary."""

    domain: str
    text: str
    fingerprint: frozenset[str]
    min_confidence: float
    mean_confidence: float


@dataclass
class DriftCluster:
    """A candidate new schema family accumulating low-confidence records."""

    family_id: str
    signature: frozenset[str]
    members: list[StreamRecord] = field(default_factory=list)
    alerted: bool = False
    #: detector tick (``records_seen``) when the last member arrived;
    #: the TTL eviction clock.
    last_seen: int = 0

    def add(self, record: StreamRecord) -> None:
        """Admit ``record`` and widen the cluster signature."""
        self.members.append(record)
        # Grow the signature so later records of the same template with
        # extra optional fields still match the cluster.
        self.signature = self.signature | record.fingerprint

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DriftAlert:
    """A detected candidate schema family, raised once per cluster."""

    family_id: str
    members: tuple[StreamRecord, ...]

    @property
    def domains(self) -> tuple[str, ...]:
        """The domains of the clustered records, in arrival order."""
        return tuple(member.domain for member in self.members)


class DriftDetector:
    """Streaming monitor clustering low-confidence records into families.

    Parameters
    ----------
    min_confidence:
        Records whose least-confident line's posterior is below this are
        drift *candidates*; above it they are treated as handled and
        their fingerprint becomes a known format.
    min_cluster_size:
        Members a cluster needs before it raises a :class:`DriftAlert`.
        One garbled record is noise; several sharing a fingerprint are a
        format.
    fingerprint:
        ``text -> frozenset`` reduction used for every record; defaults
        to :func:`format_fingerprint` (field titles).  Char-granularity
        domains pass :func:`shape_fingerprint` (or a domain-specific
        hook via :meth:`DomainSpec.fingerprint_text
        <repro.domain.DomainSpec.fingerprint_text>`), since single-line
        records have no field titles to fingerprint on.

    Clustering reads the module's constants: :data:`KNOWN_THRESHOLD`
    and :data:`MERGE_THRESHOLD` for similarity, and three bounds on its
    state, which a detector watching a 102M-record stream must keep
    whatever noise the tail of the zone throws at it:
    :data:`MAX_OPEN_CLUSTERS` open clusters (the longest-idle one is
    evicted), :data:`CLUSTER_TTL` records without a new member (one-off
    garbage fingerprints do not accumulate) and :data:`MAX_RESOLVED`
    resolved signatures (the oldest age out first).
    """

    def __init__(
        self,
        *,
        min_confidence: float = 0.90,
        min_cluster_size: int = 3,
        fingerprint=format_fingerprint,
    ) -> None:
        """Detector with clustering thresholds and a fingerprint hook.

        ``fingerprint`` maps record text to the comparable
        frozenset the Jaccard clustering runs on --
        :func:`format_fingerprint` (field titles; the line-domain
        default) or :func:`shape_fingerprint` (punctuation skeleton,
        for char-grained single-line domains).
        """
        self.fingerprint = fingerprint
        self.min_confidence = min_confidence
        self.min_cluster_size = min_cluster_size
        self._known: list[frozenset[str]] = []
        self._resolved: list[frozenset[str]] = []
        self.clusters: list[DriftCluster] = []
        self._next_family = 1
        self.records_seen = 0
        self.low_confidence = 0
        self.evicted_clusters = 0

    # ------------------------------------------------------------------
    # Known formats
    # ------------------------------------------------------------------

    def register_known(self, texts) -> int:
        """Seed known formats from record texts (e.g. the training corpus).

        Accepts raw strings or anything with a ``text`` attribute
        (:class:`~repro.whois.records.LabeledRecord`).  Returns how many
        *distinct* fingerprints are now known.
        """
        for item in texts:
            text = item if isinstance(item, str) else item.text
            self._learn(self.fingerprint(text))
        return len(self._known)

    def _learn(self, fingerprint: frozenset[str]) -> None:
        if fingerprint and not any(
            jaccard(fingerprint, known) >= KNOWN_THRESHOLD
            for known in self._known
        ):
            self._known.append(fingerprint)

    def _is_known(self, fingerprint: frozenset[str]) -> bool:
        # Resolved families are matched at the *merge* threshold, the
        # same similarity that clustered their members in the first
        # place -- a straggler that would have joined the cluster must
        # be attributed to the (now retrained) family, not start a new
        # one.
        return any(
            jaccard(fingerprint, known) >= KNOWN_THRESHOLD
            for known in self._known
        ) or any(
            jaccard(fingerprint, signature) >= MERGE_THRESHOLD
            for signature in self._resolved
        )

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------

    def observe(
        self,
        domain: str,
        text: str,
        confidences: "list[tuple[str, str, float]]",
    ) -> DriftAlert | None:
        """Feed one parsed record; returns an alert when a cluster matures.

        ``confidences`` is the parser's ``line_confidences`` output:
        ``(line, predicted block, posterior)`` triples.
        """
        self.records_seen += 1
        obs.inc("pipeline.drift.records_seen")
        if not confidences:
            return None
        probs = [p for _, _, p in confidences]
        minimum = min(probs)
        fingerprint = self.fingerprint(text)
        if minimum >= self.min_confidence:
            # Served confidently: whatever format this is, the model
            # knows it.  Remember the fingerprint so stragglers with the
            # same shape are attributed here rather than clustered.
            self._learn(fingerprint)
            return None
        self.low_confidence += 1
        obs.inc("pipeline.drift.low_confidence")
        if self._is_known(fingerprint):
            # A known format parsed badly -- damage or a hard record,
            # the quarantine/active-learning path, not schema drift.
            obs.inc("pipeline.drift.known_format_outliers")
            return None
        record = StreamRecord(
            domain=domain,
            text=text,
            fingerprint=fingerprint,
            min_confidence=minimum,
            mean_confidence=sum(probs) / len(probs),
        )
        cluster = self._assign(record)
        cluster.last_seen = self.records_seen
        self._evict()
        obs.set_gauge("pipeline.drift.open_clusters", len(self.clusters))
        if not cluster.alerted and len(cluster) >= self.min_cluster_size:
            cluster.alerted = True
            obs.inc("pipeline.drift.alerts")
            return DriftAlert(
                family_id=cluster.family_id, members=tuple(cluster.members)
            )
        return None

    def _evict(self) -> None:
        """Bound detector state: drop idle clusters, then enforce the cap.

        A stream of one-off garbage fingerprints would otherwise grow
        ``clusters`` without limit -- each founds a singleton cluster
        that never matures.  Eviction forgets candidates, never formats:
        a real emerging family re-clusters from its next records.
        """
        stale = [
            cluster for cluster in self.clusters
            if self.records_seen - cluster.last_seen > CLUSTER_TTL
        ]
        for cluster in stale:
            self.clusters.remove(cluster)
            self.evicted_clusters += 1
            obs.inc("pipeline.drift.evicted_clusters", reason="ttl")
        while len(self.clusters) > MAX_OPEN_CLUSTERS:
            idlest = min(self.clusters, key=lambda cluster: cluster.last_seen)
            self.clusters.remove(idlest)
            self.evicted_clusters += 1
            obs.inc("pipeline.drift.evicted_clusters", reason="capacity")

    def _assign(self, record: StreamRecord) -> DriftCluster:
        best: DriftCluster | None = None
        best_similarity = 0.0
        for cluster in self.clusters:
            similarity = jaccard(record.fingerprint, cluster.signature)
            if similarity > best_similarity:
                best, best_similarity = cluster, similarity
        if best is not None and best_similarity >= MERGE_THRESHOLD:
            best.add(record)
            return best
        cluster = DriftCluster(
            family_id=f"family-{self._next_family:03d}",
            signature=record.fingerprint,
        )
        self._next_family += 1
        cluster.add(record)
        self.clusters.append(cluster)
        return cluster

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def resolve(self, family_id: str) -> None:
        """Close a cluster after its family was labeled and retrained;
        its signature becomes a known format.

        Member fingerprints are registered individually as well as the
        union signature: bare-value layouts carry some per-record tokens
        even after shape normalization, and a straggler matches a
        sibling record more closely than the token-diluted union.
        """
        for cluster in list(self.clusters):
            if cluster.family_id == family_id:
                self._resolved.append(cluster.signature)
                for member in cluster.members:
                    self._resolved.append(member.fingerprint)
                self.clusters.remove(cluster)
        if len(self._resolved) > MAX_RESOLVED:
            dropped = len(self._resolved) - MAX_RESOLVED
            del self._resolved[:dropped]
            obs.inc("pipeline.drift.evicted_resolved", dropped)


@dataclass
class _RegistrarTally:
    """Running audit verdicts for one registrar."""

    audited: int = 0
    disagreeing: int = 0
    exemplars: list[StreamRecord] = field(default_factory=list)
    alerted: bool = False

    @property
    def rate(self) -> float:
        return self.disagreeing / self.audited if self.audited else 0.0


class RegistrarDisagreementSignal:
    """Cross-protocol disagreement as a second drift signal.

    The :class:`DriftDetector` hears a new format as collapsed parser
    confidence; this signal hears it as the registrar's own RDAP service
    contradicting the WHOIS parse.  A registrar whose port-43 template
    changed still *serves* -- the parser may even stay confident while
    silently mis-assembling fields -- but the diff against RDAP (whose
    structured JSON needs no parsing) disagrees systematically.

    Feed it the per-domain :class:`~repro.consistency.AuditRecord`
    verdicts alongside the raw WHOIS texts; once a registrar's
    disagreement rate over definite verdicts reaches ``rate_threshold``
    with at least ``min_audits`` audits, it raises one standard
    :class:`DriftAlert` whose members are the first
    :data:`MAX_EXEMPLARS` disagreeing domains' records -- directly
    consumable by
    :meth:`~repro.pipeline.loop.MaintenanceLoop.ingest_alert`, entering
    the same label -> retrain -> hot-swap iteration as a confidence
    alert.
    """

    def __init__(
        self,
        *,
        rate_threshold: float = 0.5,
        min_audits: int = 10,
    ) -> None:
        """Signal with per-registrar disagreement-rate thresholds."""
        self.rate_threshold = rate_threshold
        self.min_audits = max(1, min_audits)
        self._tallies: "dict[str | None, _RegistrarTally]" = {}

    def observe(self, audit, text: str) -> "DriftAlert | None":
        """Feed one audit verdict with its WHOIS text; maybe alert.

        Incomparable verdicts carry no evidence either way and are
        ignored.  Each registrar alerts at most once per signal
        lifetime (reset via :meth:`resolve`).
        """
        if audit.verdict not in ("agree", "disagree"):
            return None
        tally = self._tallies.setdefault(audit.registrar, _RegistrarTally())
        tally.audited += 1
        if audit.verdict == "disagree":
            tally.disagreeing += 1
            if len(tally.exemplars) < MAX_EXEMPLARS:
                tally.exemplars.append(StreamRecord(
                    domain=audit.domain,
                    text=text,
                    fingerprint=format_fingerprint(text),
                    min_confidence=0.0,
                    mean_confidence=0.0,
                ))
        obs.set_gauge(
            "pipeline.drift.registrar_disagreement_rate",
            tally.rate,
            registrar=str(audit.registrar),
        )
        if (
            not tally.alerted
            and tally.audited >= self.min_audits
            and tally.rate >= self.rate_threshold
            and tally.exemplars
        ):
            tally.alerted = True
            obs.inc("pipeline.drift.registrar_disagreement_alerts")
            return DriftAlert(
                family_id=self._family_id(audit.registrar),
                members=tuple(tally.exemplars),
            )
        return None

    def scan(self, audits, text_for) -> "list[DriftAlert]":
        """Run a finished audit table through the signal in one pass.

        ``text_for`` maps a domain to its WHOIS text (a dict's ``get``
        over the crawl, or a store lookup); audits whose text is missing
        are skipped.
        """
        alerts = []
        for audit in audits:
            text = text_for(audit.domain)
            if text is None:
                continue
            alert = self.observe(audit, text)
            if alert is not None:
                alerts.append(alert)
        return alerts

    def rates(self) -> "dict[str | None, float]":
        """Current per-registrar disagreement rates (definite verdicts)."""
        return {name: tally.rate for name, tally in self._tallies.items()}

    def resolve(self, family_id: str) -> None:
        """Forget a registrar's tally after its alert was acted on, so
        post-retrain audits judge the new model from scratch."""
        for name in list(self._tallies):
            if self._family_id(name) == family_id:
                del self._tallies[name]

    @staticmethod
    def _family_id(registrar: "str | None") -> str:
        slug = (registrar or "unattributed").lower().replace(" ", "-")
        return f"registrar-disagreement:{slug}"
