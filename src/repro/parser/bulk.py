"""The one encoder from record units to attribute ids.

:class:`LineEncoder` turns a record's units (lines, or characters under
char granularity) into the ids a :class:`~repro.crf.ChainCRF` consumes,
for training (:func:`fit_encoder`) and inference alike, so a model
meets its features at parse time exactly as it learned them.

The paper's headline workload (Section 6) parses 102M com records with an
already-trained model, so encoding has to be cheap.  WHOIS lines repeat
massively across records of the same registrar schema ("Registrant
Name:", "Domain Status: clientTransferProhibited", privacy service
boilerplate...), so :class:`LineEncoder` memoizes the entire line ->
encoded-attribute-ids computation per *distinct* line of text.  A cache
hit skips tokenization, separator splitting, word-classing and
vocabulary resolution in one go; only the cheap layout-context
attributes (``NL``/``SHL``/``SHR`` markers and ``CTX:`` header context),
which depend on neighboring lines, are appended per occurrence -- as
pre-resolved ids.

The resulting :class:`~repro.crf.features.EncodedSequence` objects feed
straight into the CRF's batched recursions without any further per-token
work.  The order of the ids within a line (the summation order of its
potentials) is fixed by the order of the attribute lists of
:meth:`WhoisFeaturizer.line_analysis
<repro.whois.features.WhoisFeaturizer.line_analysis>` and by the ids
themselves, so a given model encodes a given line the same way on every
run.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, count
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.crf.features import EncodedSequence, FeatureIndex
from repro.whois.features import WhoisFeaturizer
from repro.whois.records import is_labelable

#: Most entries each :class:`LineEncoder` cache holds.
CACHE_SIZE = 200_000


class LineEncoder:
    """Memoizing ``line text -> encoded attribute ids`` for one index.

    One instance serves one ``(featurizer, FeatureIndex)`` pair: the
    cached ids are only valid for the vocabulary they were
    resolved against, so :class:`~repro.parser.statistical.WhoisParser`
    rebuilds its encoders whenever the model is (re)fitted -- and the
    persisted form (:meth:`cache_arrays`) is keyed on a vocabulary
    fingerprint for exactly the same reason.

    The cache stores, per distinct line: the encoded intrinsic
    observation ids, the encoded intrinsic edge ids, the indentation
    depth, and the block-header headword -- everything about a line that
    does not depend on its neighbors.

    **Cap behavior**: every cache (encoded line profiles, raw analyses,
    header contexts and the char-context memos) is capped at
    :data:`CACHE_SIZE` distinct entries.  Once the cap is reached,
    *lookups* still hit but new entries stop being inserted -- they are
    resolved again on every occurrence.  WHOIS
    vocabulary is heavy-headed enough that the hot lines enter early, so
    a full cache usually still hits >90%; each skipped insertion is
    counted (:attr:`cache_full_skips`) and surfaced by the bulk parser
    as the ``parse.encoder_cache_full`` counter so a sustained miss
    regime is visible instead of silent.
    """

    def __init__(
        self,
        featurizer: WhoisFeaturizer,
        index: FeatureIndex,
        *,
        profiles: dict | None = None,
    ) -> None:
        """Empty caches for ``index``; ``profiles`` may be shared."""
        self.featurizer = featurizer
        self.index = index
        self.cache_size = CACHE_SIZE
        #: raw line -> (obs attrs, edge attrs, indent, headword), shareable
        #: between the block- and registrant-level encoders: the attribute
        #: strings are index-independent, so passing one dict to both
        #: spares the second level re-analyzing lines the first level
        #: already saw (every registrant line is also a block-level line).
        #: Every value of every cache here is an atom or a tuple of
        #: atoms, which the garbage collector stops tracking after its
        #: first pass over them: a warm cache costs collections nothing.
        self._profiles: dict[
            str, tuple[tuple[str, ...], tuple[str, ...], int, str | None]
        ] = {} if profiles is None else profiles
        self._lines: dict[
            str, tuple[tuple[int, ...], tuple[int, ...], int, str | None]
        ] = {}
        self._ctx: dict[str, tuple[int, ...]] = {}
        #: cumulative cache accounting (plain ints on the hot path; the
        #: bulk parser drains deltas into ``repro.obs`` per batch)
        self.hits = 0
        self.misses = 0
        #: line-profile and header-context insertions skipped because the
        #: cache was full
        self.cache_full_skips = 0
        #: entries loaded via :meth:`load_cache_state` (warm starts)
        self.warm_entries = 0
        self._drained_hits = 0
        self._drained_misses = 0
        self._drained_full_skips = 0
        obs_vocab, edge_vocab = index.obs_vocab, index.edge_vocab
        # Layout-marker ids, resolved once.  A marker absent from the
        # vocabulary encodes to nothing, as every unknown attribute does.
        self._nl = (obs_vocab.get("NL"), edge_vocab.get("NL"))
        self._shl = (obs_vocab.get("SHL"), edge_vocab.get("SHL"))
        self._shr = (obs_vocab.get("SHR"), edge_vocab.get("SHR"))
        #: char granularity: units are single characters, the intrinsic
        #: profile cache collapses to alphabet size, and per-record
        #: context attrs resolve through the memo dicts below
        self._char = featurizer.config.granularity == "char"
        self._ctx_obs_ids: dict[str, int | None] = {}
        self._ctx_edge_ids: dict[str, int | None] = {}

    # ------------------------------------------------------------------

    def _line_profile(
        self, line: str
    ) -> tuple[tuple[int, ...], tuple[int, ...], int, str | None]:
        profile = self._lines.get(line)
        if profile is None:
            self.misses += 1
            raw = self._profiles.get(line)
            if raw is None:
                obs, edge, indent, headword = (
                    self.featurizer.line_analysis(line)
                )
                raw = (tuple(obs), tuple(edge), indent, headword)
                if len(self._profiles) < self.cache_size:
                    self._profiles[line] = raw
            obs, edge, indent, headword = raw
            # The sets are filled in attribute order, so each tuple's id
            # order -- the summation order of the potentials -- depends
            # only on the attribute lists.
            profile = (
                tuple({
                    i for i in map(self.index.obs_vocab.get, obs)
                    if i is not None
                }),
                tuple({
                    i for i in map(self.index.edge_vocab.get, edge)
                    if i is not None
                }),
                indent,
                headword,
            )
            if len(self._lines) < self.cache_size:
                self._lines[line] = profile
            else:
                self.cache_full_skips += 1
        else:
            self.hits += 1
        return profile

    @property
    def hit_rate(self) -> float:
        """Cumulative cache hit rate over every line encoded so far."""
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0

    def drain_cache_stats(self) -> tuple[int, int, int]:
        """(hits, misses, cap-skips) accrued since the previous drain."""
        hits = self.hits - self._drained_hits
        misses = self.misses - self._drained_misses
        full = self.cache_full_skips - self._drained_full_skips
        self._drained_hits = self.hits
        self._drained_misses = self.misses
        self._drained_full_skips = self.cache_full_skips
        return hits, misses, full

    def _ctx_ids(self, head: str) -> tuple[int, ...]:
        """Encoded ``CTX:<head>`` (+ ``CTX4:`` prefix) attributes."""
        ids = self._ctx.get(head)
        if ids is None:
            attrs = [f"CTX:{head}"]
            if self.featurizer.config.prefixes and len(head) >= 4:
                attrs.append(f"CTX4:{head[:4]}")
            ids = tuple(
                i for i in map(self.index.obs_vocab.get, attrs)
                if i is not None
            )
            if len(self._ctx) < self.cache_size:
                self._ctx[head] = ids
            else:
                self.cache_full_skips += 1
        return ids

    def _encode_chars(
        self,
        units: list[str],
        collect: list[str] | None = None,
    ) -> EncodedSequence:
        """Char-granularity encoding: each character's intrinsic
        attributes (:meth:`WhoisFeaturizer.char_attributes
        <repro.whois.features.WhoisFeaturizer.char_attributes>`) and then
        its context attributes.

        The intrinsic per-character attributes come from the same profile
        cache as line mode (keyed on the character, so the cache tops out
        at alphabet size).  The record-dependent context attributes from
        :meth:`WhoisFeaturizer.char_context` are resolved through small
        attr -> id memo dicts -- the attribute *strings* vary per record
        but draw from the training vocabulary, so the memo converges
        fast; unknown attributes are memoized as ``None`` (known-absent)
        rather than re-probed.  Context and intrinsic namespaces are
        disjoint by construction, so ids concatenate without a dedup
        pass.
        """
        obs_flat: list[int] = []
        obs_counts: list[int] = []
        edge_flat: list[int] = []
        edge_counts: list[int] = []
        obs_vocab = self.index.obs_vocab
        edge_vocab = self.index.edge_vocab
        obs_memo = self._ctx_obs_ids
        edge_memo = self._ctx_edge_ids
        cache_size = self.cache_size
        lines_get = self._lines.get
        _missing = object()  # memoized values are ids or None, never this
        for ch, (ctx_obs, ctx_edge) in zip(
            units, self.featurizer.char_context(units)
        ):
            if collect is not None:
                collect.append(ch)
            profile = lines_get(ch)
            if profile is None:
                profile = self._line_profile(ch)
            else:
                self.hits += 1
            start, edge_start = len(obs_flat), len(edge_flat)
            obs_flat.extend(profile[0])
            for attr in ctx_obs:
                ident = obs_memo.get(attr, _missing)
                if ident is _missing:
                    ident = obs_vocab.get(attr)
                    if len(obs_memo) < cache_size:
                        obs_memo[attr] = ident
                if ident is not None:
                    obs_flat.append(ident)
            edge_flat.extend(profile[1])
            for attr in ctx_edge:
                ident = edge_memo.get(attr, _missing)
                if ident is _missing:
                    ident = edge_vocab.get(attr)
                    if len(edge_memo) < cache_size:
                        edge_memo[attr] = ident
                if ident is not None:
                    edge_flat.append(ident)
            obs_counts.append(len(obs_flat) - start)
            edge_counts.append(len(edge_flat) - edge_start)
        return EncodedSequence(obs_flat, obs_counts, edge_flat, edge_counts)

    # ------------------------------------------------------------------

    def encode_record(
        self,
        raw_lines: list[str],
        collect: list[str] | None = None,
    ) -> EncodedSequence:
        """Encode one record's labelable units.  Second-level segments
        (runs of labelable lines) encode the same way; under char
        granularity the units are characters (:meth:`_encode_chars`).

        Each line's intrinsic ids (:meth:`WhoisFeaturizer.line_analysis
        <repro.whois.features.WhoisFeaturizer.line_analysis>`) come from
        the cache.  The layout markers follow: ``NL`` after one or more
        blank (or symbol-only) lines, ``SHL``/``SHR`` when the
        indentation shifts left/right against the previous labelable
        line.  Then ``CTX:<headword>`` (and a ``CTX4:`` prefix) on lines
        indented under a block header.  The context-dependent attributes
        -- disjoint from every intrinsic attribute
        by construction (``NL``/``SHL``/``SHR`` and the ``CTX:`` prefix
        never occur in :meth:`WhoisFeaturizer.line_analysis
        <repro.whois.features.WhoisFeaturizer.line_analysis>` output) --
        are appended as pre-resolved ids, so no dedup pass is needed.

        ``collect``, when given, receives the labelable lines in order --
        the caller needs them anyway and this spares a second
        labelability scan over the record.

        Observation and edge ids are each accumulated directly into the
        packed form :class:`~repro.crf.features.EncodedSequence` shares
        with :class:`~repro.crf.batch.EncodedBatch` (one flat id list
        plus per-token counts), so batches built from these sequences
        never run a per-token loop.
        """
        if self._char:
            return self._encode_chars(raw_lines, collect)
        cfg = self.featurizer.config
        obs_flat: list[int] = []
        obs_counts: list[int] = []
        edge_flat: list[int] = []
        edge_counts: list[int] = []
        blank_run = 0
        prev_indent: int | None = None
        header: tuple[str, int] | None = None
        # Local binding: this dict probe runs once per labelable line at
        # survey scale, so the method-call indirection is inlined away.
        lines_get = self._lines.get
        for line in raw_lines:
            if not is_labelable(line):
                blank_run += 1
                continue
            if collect is not None:
                collect.append(line)
            profile = lines_get(line)
            if profile is None:
                profile = self._line_profile(line)
            else:
                self.hits += 1
            intrinsic_obs, intrinsic_edge, indent, headword = profile
            start, edge_start = len(obs_flat), len(edge_flat)
            obs_flat.extend(intrinsic_obs)
            edge_flat.extend(intrinsic_edge)
            if cfg.markers:
                if blank_run > 0:
                    if self._nl[0] is not None:
                        obs_flat.append(self._nl[0])
                    if cfg.edge_markers and self._nl[1] is not None:
                        edge_flat.append(self._nl[1])
                if prev_indent is not None:
                    shift = (
                        self._shl if indent < prev_indent
                        else self._shr if indent > prev_indent
                        else None
                    )
                    if shift is not None:
                        if shift[0] is not None:
                            obs_flat.append(shift[0])
                        if cfg.edge_markers and shift[1] is not None:
                            edge_flat.append(shift[1])
                prev_indent = indent
            if cfg.header_context:
                if header is not None and indent > header[1]:
                    obs_flat.extend(self._ctx_ids(header[0]))
                else:
                    header = None
                if headword is not None:
                    header = (headword, indent)
            blank_run = 0
            obs_counts.append(len(obs_flat) - start)
            edge_counts.append(len(edge_flat) - edge_start)
        return EncodedSequence(obs_flat, obs_counts, edge_flat, edge_counts)

    # ------------------------------------------------------------------
    # Persistence (warm starts)
    # ------------------------------------------------------------------

    def cache_arrays(self) -> dict[str, np.ndarray]:
        """The per-line encoding caches as flat arrays.

        Captures the encoded line profiles and the header-context ids
        -- the expensive, vocabulary-dependent part -- as int32 id
        arrays with per-entry counts, an indent column, and string
        columns stored as one UTF-8 blob with per-entry lengths
        (:func:`_pack_strings`).  Validity is the caller's problem:
        :meth:`WhoisParser.save_encoder_cache
        <repro.parser.statistical.WhoisParser.save_encoder_cache>`
        stores a vocabulary fingerprint beside the arrays so a stale
        cache is discarded instead of silently mis-encoding.
        """
        profiles = list(self._lines.values())
        arrays: dict[str, np.ndarray] = {}
        arrays["lines"], arrays["line_lengths"] = _pack_strings(self._lines)
        arrays["obs_ids"], arrays["obs_counts"] = _pack_ids(
            [profile[0] for profile in profiles]
        )
        arrays["edge_ids"], arrays["edge_counts"] = _pack_ids(
            [profile[1] for profile in profiles]
        )
        arrays["indents"] = np.array(
            [profile[2] for profile in profiles], dtype=np.int32
        )
        arrays["headwords"], arrays["headword_lengths"] = _pack_strings(
            [profile[3] for profile in profiles]
        )
        arrays["ctx"], arrays["ctx_lengths"] = _pack_strings(self._ctx)
        arrays["ctx_ids"], arrays["ctx_counts"] = _pack_ids(
            list(self._ctx.values())
        )
        return arrays

    def read_cache_arrays(self, arrays: Mapping[str, np.ndarray]) -> tuple:
        """Decode :meth:`cache_arrays` output into the state
        :meth:`load_cache_state` applies.

        Arrays it does not read are ignored (files written when the
        encoder also cached labelability carry three more per level).
        Raises ``KeyError`` for a missing array and ``ValueError`` when
        the arrays disagree (a line count, an id total, or a string
        blob's length that does not add up) or hold an id outside this
        encoder's vocabulary, before any cache is touched.
        """
        obs_size = len(self.index.obs_vocab)
        lines = _unpack_strings(arrays["lines"], arrays["line_lengths"])
        obs = _unpack_ids(arrays["obs_ids"], arrays["obs_counts"], obs_size)
        edge = _unpack_ids(
            arrays["edge_ids"], arrays["edge_counts"],
            len(self.index.edge_vocab),
        )
        indents = arrays["indents"].tolist()
        headwords = _unpack_strings(
            arrays["headwords"], arrays["headword_lengths"], optional=True
        )
        ctx = _unpack_strings(arrays["ctx"], arrays["ctx_lengths"])
        ctx_ids = _unpack_ids(
            arrays["ctx_ids"], arrays["ctx_counts"], obs_size
        )
        if not (
            len(lines) == len(obs) == len(edge) == len(indents)
            == len(headwords)
            and len(ctx) == len(ctx_ids)
        ):
            raise ValueError("encoder cache arrays disagree in length")
        return (
            dict(zip(lines, zip(obs, edge, indents, headwords))),
            dict(zip(ctx, ctx_ids)),
        )

    def load_cache_state(self, state: tuple[dict, dict]) -> int:
        """Warm the caches from a :meth:`read_cache_arrays` state.

        Entries already cached are kept, and each cache takes entries
        only up to :data:`CACHE_SIZE`.  Returns the number of line
        profiles loaded (also tracked as :attr:`warm_entries`).
        """
        lines, ctx = state
        loaded = _fill(self._lines, lines, self.cache_size)
        _fill(self._ctx, ctx, self.cache_size)
        self.warm_entries += loaded
        return loaded


class _OpenVocabulary(defaultdict):
    """:func:`fit_encoder`'s first-pass vocabulary: ``get`` gives a new
    attribute the next id, at the speed of a dict lookup."""

    get = defaultdict.__getitem__

    def __init__(self) -> None:
        """An empty vocabulary whose ids count up from 0."""
        super().__init__(count().__next__)


def fit_encoder(
    featurizer: WhoisFeaturizer,
    labels: Sequence[str],
    units: Iterable[list[str]],
    *,
    min_count: int = 1,
    base: FeatureIndex | None = None,
    profiles: dict | None = None,
) -> LineEncoder:
    """An encoder on the vocabulary of one level's training sequences.

    ``units`` holds each sequence's units.  A first pass encodes them
    against an open vocabulary, and each attribute counts once per token
    (an edge attribute from a sequence's second token on).  Those
    counted ``min_count`` times form the index, numbered in sorted
    order.  With ``base`` (``partial_fit``) its attributes keep their
    ids and every new one follows, sorted, whatever its count.  The
    returned encoder shares the first pass's line analyses
    (``profiles``), so no unit is analysed twice.
    """
    first = LineEncoder(
        featurizer,
        FeatureIndex(
            labels, obs_vocab=_OpenVocabulary(), edge_vocab=_OpenVocabulary()
        ),
        profiles=profiles,
    )
    obs_ids: list[np.ndarray] = [np.empty(0, dtype=np.intp)]
    edge_ids: list[np.ndarray] = [np.empty(0, dtype=np.intp)]
    for record in units:
        encoded = first.encode_record(record)
        obs_ids.append(encoded.obs_flat)
        if len(encoded):
            edge_ids.append(encoded.edge_flat[encoded.edge_counts[0]:])
    old = FeatureIndex(labels) if base is None else base
    threshold = 1 if base is not None else max(min_count, 1)
    vocabs = []
    for seen, ids, kept in (
        (first.index.obs_vocab, np.concatenate(obs_ids), old.obs_vocab),
        (first.index.edge_vocab, np.concatenate(edge_ids), old.edge_vocab),
    ):
        # The open vocabulary's keys are in id order.
        counts = np.bincount(ids, minlength=len(seen)).tolist()
        added = sorted(
            attr for attr, n in zip(seen, counts)
            if n >= threshold and attr not in kept
        )
        vocabs.append({**kept, **dict(zip(added, count(len(kept))))})
    index = FeatureIndex(labels, obs_vocab=vocabs[0], edge_vocab=vocabs[1])
    return LineEncoder(featurizer, index, profiles=first._profiles)


def _fill(cache: dict, entries: dict, cap: int) -> int:
    """Add the entries whose keys ``cache`` lacks, until it holds
    ``cap`` entries; returns how many were added."""
    before = len(cache)
    for key, value in entries.items():
        if len(cache) >= cap:
            break
        cache.setdefault(key, value)
    return len(cache) - before


def _pack_ids(
    id_tuples: list[tuple[int, ...]],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated int32 ids plus per-entry counts."""
    counts = np.fromiter(map(len, id_tuples), np.int32, len(id_tuples))
    flat = np.fromiter(
        chain.from_iterable(id_tuples), np.int32, int(counts.sum())
    )
    return flat, counts


def _unpack_ids(
    flat: np.ndarray, counts: np.ndarray, size: int
) -> list[tuple[int, ...]]:
    """Inverse of :func:`_pack_ids`: one tuple of ints per entry, every
    id in ``range(size)`` (the vocabulary's ids)."""
    if flat.dtype.kind not in "iu" or counts.dtype.kind not in "iu":
        raise ValueError("encoder cache ids must be integers")
    if (counts < 0).any() or int(counts.sum()) != len(flat):
        raise ValueError("encoder cache id counts disagree with the ids")
    if len(flat) and (flat.min() < 0 or flat.max() >= size):
        raise ValueError("encoder cache id outside the vocabulary")
    # One int object per distinct id, shared by every tuple holding it
    # (as the vocabulary's own ints are on a cold encode), instead of a
    # fresh object per occurrence: a loaded cache then holds about half
    # the heap.
    table = np.arange(int(flat.max()) + 1 if len(flat) else 0).astype(object)
    ids = tuple(table[flat].tolist())
    return list(map(ids.__getitem__, _slices(counts)))


def _slices(sizes: np.ndarray):
    """Consecutive ``slice`` objects of the given non-negative sizes."""
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    return map(slice, [0] + ends[:-1], ends)


def _pack_strings(strings: Iterable[str | None]) -> tuple[np.ndarray, np.ndarray]:
    """One UTF-8 blob plus per-entry lengths in code points (-1: None).

    ``surrogatepass`` lets every ``str`` -- lone surrogates included --
    round-trip, and keeps one code point per encoded character, so the
    reader decodes the blob once and slices it.
    """
    strings = list(strings)
    lengths = np.array(
        [-1 if text is None else len(text) for text in strings],
        dtype=np.int64,
    )
    blob = "".join(text for text in strings if text is not None)
    return (
        np.frombuffer(blob.encode("utf-8", "surrogatepass"), dtype=np.uint8),
        lengths,
    )


def _unpack_strings(
    blob: np.ndarray, lengths: np.ndarray, *, optional: bool = False
) -> list[str | None]:
    """Inverse of :func:`_pack_strings`; None entries only if ``optional``."""
    text = blob.tobytes().decode("utf-8", "surrogatepass")
    if lengths.dtype.kind not in "iu" or (
        lengths < (-1 if optional else 0)
    ).any():
        raise ValueError("bad string length in encoder cache")
    sizes = np.maximum(lengths, 0)
    if int(sizes.sum()) != len(text):
        raise ValueError("encoder cache strings disagree with their lengths")
    strings: list[str | None] = list(map(text.__getitem__, _slices(sizes)))
    if optional:
        for i in np.flatnonzero(lengths < 0).tolist():
            strings[i] = None
    return strings
