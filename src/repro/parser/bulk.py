"""Bulk featurize-and-encode machinery for survey-scale parsing.

The paper's headline workload (Section 6) parses 102M com records with an
already-trained model, so the prediction path has to move: per-record
featurization re-tokenizes every line from scratch, and per-record
``FeatureIndex.encode`` re-resolves every attribute string to an id.

WHOIS lines repeat massively across records of the same registrar schema
("Registrant Name:", "Domain Status: clientTransferProhibited", privacy
service boilerplate...), so :class:`LineEncoder` memoizes the entire
line -> encoded-attribute-ids computation per *distinct* line of text.  A
cache hit skips tokenization, separator splitting, word-classing, UNK
lookup, and vocabulary resolution in one go; only the cheap layout-context
attributes (``NL``/``SHL``/``SHR`` markers and ``CTX:`` header context),
which depend on neighboring lines, are appended per occurrence -- as
pre-resolved ids.

The resulting :class:`~repro.crf.features.EncodedSequence` objects feed
straight into :meth:`ChainCRF.predict_many`'s batched Viterbi without any
further per-token work.  Encodings are identical to
``index.encode(featurizer.featurize_lines(raw))`` up to attribute-id
order, which the decoder is invariant to (potentials are sums over the
id multiset, and the id sets match exactly).
"""

from __future__ import annotations

from repro.crf.features import EncodedSequence, FeatureIndex
from repro.whois.features import WhoisFeaturizer
from repro.whois.records import is_labelable
from repro.whois.text import indentation


class LineEncoder:
    """Memoizing ``line text -> encoded attribute ids`` for one index.

    One instance serves one ``(featurizer, FeatureIndex)`` pair: the
    cached ids are only valid for the vocabulary (and lexicon) they were
    resolved against, so :class:`~repro.parser.statistical.WhoisParser`
    rebuilds its encoders whenever the model is (re)fitted -- and the
    persisted form (:meth:`cache_state`) is keyed on a vocabulary
    fingerprint for exactly the same reason.

    The cache stores, per distinct line: the encoded intrinsic
    observation ids, the encoded intrinsic edge ids, the indentation
    depth, and the block-header headword -- everything about a line that
    does not depend on its neighbors.

    **Cap behavior**: every per-line dict (line profiles, labelability,
    raw analyses) is capped at ``cache_size`` distinct entries.  Once the
    cap is reached, *lookups* still hit but new lines stop being
    inserted -- they are re-analyzed on every occurrence.  WHOIS
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
        cache_size: int = 200_000,
        profiles: dict | None = None,
    ) -> None:
        self.featurizer = featurizer
        self.index = index
        self.cache_size = cache_size
        #: raw line -> (obs attrs, edge attrs, indent, headword), shareable
        #: between the block- and registrant-level encoders: the attribute
        #: strings are index-independent, so passing one dict to both
        #: spares the second level re-analyzing lines the first level
        #: already saw (every registrant line is also a block-level line).
        self._profiles: dict[
            str, tuple[list[str], list[str], int, str | None]
        ] = {} if profiles is None else profiles
        self._lines: dict[
            str, tuple[tuple[int, ...], tuple[int, ...], int, str | None]
        ] = {}
        self._ctx: dict[str, tuple[int, ...]] = {}
        #: line -> labelability; is_labelable() is a character scan and
        #: shows up at survey scale, so it is memoized alongside the
        #: profiles under the same cap.
        self._labelable: dict[str, bool] = {}
        #: cumulative cache accounting (plain ints on the hot path; the
        #: bulk parser drains deltas into ``repro.obs`` per batch)
        self.hits = 0
        self.misses = 0
        #: insertions skipped because a cache dict was at ``cache_size``
        self.cache_full_skips = 0
        #: entries loaded via :meth:`load_cache_state` (warm starts)
        self.warm_entries = 0
        self._drained_hits = 0
        self._drained_misses = 0
        self._drained_full_skips = 0
        obs_vocab, edge_vocab = index.obs_vocab, index.edge_vocab
        # Layout-marker ids, resolved once.  A marker absent from the
        # vocabulary encodes to nothing, exactly as FeatureIndex.encode
        # drops unknown attributes.
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
                obs, edge = self.featurizer.line_attributes(line)
                if self._char:
                    # Indentation and headwords are line-layout notions;
                    # a single-character unit has neither.
                    raw = (obs, edge, 0, None)
                else:
                    raw = (
                        obs,
                        edge,
                        indentation(line),
                        WhoisFeaturizer.headword(line),
                    )
                if len(self._profiles) < self.cache_size:
                    self._profiles[line] = raw
            obs, edge, indent, headword = raw
            obs_vocab = self.index.obs_vocab
            edge_vocab = self.index.edge_vocab
            profile = (
                tuple({obs_vocab[a] for a in obs if a in obs_vocab}),
                tuple({edge_vocab[a] for a in edge if a in edge_vocab}),
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
            vocab = self.index.obs_vocab
            ids = tuple(vocab[a] for a in attrs if a in vocab)
            self._ctx[head] = ids
        return ids

    def _encode_chars(
        self,
        units: list[str],
        collect: list[str] | None = None,
    ) -> EncodedSequence:
        """Char-granularity encoding, mirroring
        :meth:`WhoisFeaturizer.featurize_chars` attribute for attribute.

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
        edge_seq: list[list[int]] = []
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
            start = len(obs_flat)
            obs_flat.extend(profile[0])
            for attr in ctx_obs:
                ident = obs_memo.get(attr, _missing)
                if ident is _missing:
                    ident = obs_vocab.get(attr)
                    if len(obs_memo) < cache_size:
                        obs_memo[attr] = ident
                if ident is not None:
                    obs_flat.append(ident)
            edge = list(profile[1])
            for attr in ctx_edge:
                ident = edge_memo.get(attr, _missing)
                if ident is _missing:
                    ident = edge_vocab.get(attr)
                    if len(edge_memo) < cache_size:
                        edge_memo[attr] = ident
                if ident is not None:
                    edge.append(ident)
            obs_counts.append(len(obs_flat) - start)
            edge_seq.append(edge)
        return EncodedSequence.from_packed(obs_flat, obs_counts, edge_seq)

    # ------------------------------------------------------------------

    def encode_record(
        self,
        raw_lines: list[str],
        collect: list[str] | None = None,
    ) -> EncodedSequence:
        """Encode one record's labelable lines, mirroring
        :meth:`WhoisFeaturizer.featurize_lines` attribute for attribute.
        Second-level segments (runs of labelable lines) encode the same
        way, as :meth:`WhoisFeaturizer.featurize_registrant_lines` does.

        Intrinsic ids come from the cache; the context-dependent layout
        and header attributes -- disjoint from every intrinsic attribute
        by construction (``NL``/``SHL``/``SHR`` and the ``CTX:`` prefix
        never occur in :meth:`line_attributes` output) -- are appended as
        pre-resolved ids, so no dedup pass is needed.

        ``collect``, when given, receives the labelable lines in order --
        the caller needs them anyway and this spares a second
        labelability scan over the record.

        Observation ids are accumulated directly into the packed form
        :class:`~repro.crf.features.EncodedSequence` shares with
        :class:`~repro.crf.batch.EncodedBatch` (one flat id list plus
        per-token counts), so batches built from these sequences never
        run a per-token loop.
        """
        if self._char:
            return self._encode_chars(raw_lines, collect)
        cfg = self.featurizer.config
        obs_flat: list[int] = []
        obs_counts: list[int] = []
        edge_seq: list[list[int]] = []
        blank_run = 0
        prev_indent: int | None = None
        header: tuple[str, int] | None = None
        # Local bindings: these two dict probes run once per input line at
        # survey scale, so the method-call indirection is inlined away.
        labelable_cache = self._labelable
        labelable_get = labelable_cache.get
        lines_get = self._lines.get
        cache_size = self.cache_size
        for line in raw_lines:
            labelable = labelable_get(line)
            if labelable is None:
                labelable = is_labelable(line)
                if len(labelable_cache) < cache_size:
                    labelable_cache[line] = labelable
            if not labelable:
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
            start = len(obs_flat)
            obs_flat.extend(intrinsic_obs)
            edge = list(intrinsic_edge)
            if cfg.markers:
                if blank_run > 0:
                    if self._nl[0] is not None:
                        obs_flat.append(self._nl[0])
                    if cfg.edge_markers and self._nl[1] is not None:
                        edge.append(self._nl[1])
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
                            edge.append(shift[1])
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
            edge_seq.append(edge)
        return EncodedSequence.from_packed(obs_flat, obs_counts, edge_seq)

    # ------------------------------------------------------------------
    # Persistence (warm starts)
    # ------------------------------------------------------------------

    def cache_state(self) -> dict:
        """JSON-serializable snapshot of the per-line encoding caches.

        Captures the encoded line profiles and context ids -- the
        expensive, vocabulary-dependent part.  Validity is the caller's
        problem: :meth:`WhoisParser.save_encoder_cache
        <repro.parser.statistical.WhoisParser.save_encoder_cache>` wraps
        the state in a vocabulary fingerprint so a stale snapshot is
        discarded instead of silently mis-encoding.
        """
        return {
            "lines": [
                [line, list(obs), list(edge), indent, headword]
                for line, (obs, edge, indent, headword)
                in self._lines.items()
            ],
            "ctx": {head: list(ids) for head, ids in self._ctx.items()},
            "labelable": [
                [line, flag] for line, flag in self._labelable.items()
            ],
        }

    def load_cache_state(self, state: dict) -> int:
        """Warm the caches from a :meth:`cache_state` snapshot.

        Entries beyond ``cache_size`` are dropped.  Returns the number of
        line profiles loaded (also tracked as :attr:`warm_entries`).
        """
        loaded = 0
        for line, obs, edge, indent, headword in state.get("lines", []):
            if len(self._lines) >= self.cache_size:
                break
            if line not in self._lines:
                self._lines[line] = (
                    tuple(obs), tuple(edge), indent, headword
                )
                loaded += 1
        for head, ids in state.get("ctx", {}).items():
            self._ctx.setdefault(head, tuple(ids))
        for line, flag in state.get("labelable", []):
            if len(self._labelable) >= self.cache_size:
                break
            self._labelable.setdefault(line, flag)
        self.warm_entries += loaded
        return loaded
