"""The paper's statistical parser: a two-level CRF pipeline (Section 3).

The first-level :class:`~repro.crf.ChainCRF` labels every line of a record
with one of the domain's block labels; the second-level CRF relabels the
lines inside the domain's sub-block (WHOIS: registrant blocks, with the
twelve sub-field labels).  Both are trained from
:class:`~repro.whois.records.LabeledRecord` corpora and can be enlarged
with a handful of new labeled examples (``partial_fit``), which is the
maintainability workflow of Section 5.3.

Everything domain-specific -- the two label spaces, the default feature
configuration, and field assembly -- resolves through a
:class:`~repro.domain.DomainSpec` (``domain="whois"`` by default, which
reproduces the paper exactly; see :mod:`repro.domain`).
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import Sequence as TypingSequence

import numpy as np

from repro import errors, obs
from repro.crf.model import ChainCRF
from repro.domain import DomainSpec, get_domain, sub_segments
from repro.parallel import map_chunks
from repro.parser.api import ParserBase
from repro.parser.bulk import LineEncoder, fit_encoder
from repro.parser.fields import ParsedRecord
from repro.whois.features import FeaturizerConfig, WhoisFeaturizer
from repro.whois.records import LabeledRecord, WhoisRecord


def _block_runs(blocks: list[str], label: str) -> list[tuple[int, int]]:
    """Half-open ``(start, end)`` spans of contiguous ``label`` runs."""
    runs: list[tuple[int, int]] = []
    start: int | None = None
    for i, block in enumerate(blocks):
        if block == label and start is None:
            start = i
        elif block != label and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(blocks)))
    return runs


class WhoisParser(ParserBase):
    """Two-level statistical parser (WHOIS by default, domain-pluggable).

    Parameters mirror the paper's setup: an L2-regularized CRF per level,
    dictionary trimming via ``min_count``, and the Section 3.3 feature
    families (configurable through ``featurizer_config`` for ablations;
    unset, the domain's default configuration applies).  ``domain``
    selects the :class:`~repro.domain.DomainSpec` everything else
    resolves through -- label spaces, sub-block, and field assembly.
    :attr:`settings` keeps these arguments: ``WhoisParser(**settings)``
    is an unfitted twin, and a snapshot saves and restores them.

    Examples
    --------
    >>> from repro.datagen import CorpusGenerator
    >>> corpus = CorpusGenerator(seed=0).labeled_corpus(50)
    >>> parser = WhoisParser().fit(corpus)
    >>> parsed = parser.parse(corpus[0].to_record())
    >>> parsed.domain == corpus[0].domain
    True
    """

    def __init__(
        self,
        *,
        domain: "str | DomainSpec" = "whois",
        featurizer_config: FeaturizerConfig | None = None,
        l2: float = 1.0,
        min_count: int = 1,
        max_iterations: int = 120,
        second_level: bool = True,
    ) -> None:
        """Unfitted parser for ``domain`` with the given CRF settings."""
        self.spec = get_domain(domain)
        self.featurizer = WhoisFeaturizer(
            featurizer_config or self.spec.featurizer_config
        )
        #: the constructor's arguments, with the domain by name and the
        #: featurizer configuration resolved.  ``min_count`` trims
        #: attributes seen on fewer training tokens from the dictionary
        #: (Section 3.3; see fit_encoder).
        self.settings = dict(
            domain=self.spec.name,
            featurizer_config=self.featurizer.config,
            l2=l2,
            min_count=min_count,
            max_iterations=max_iterations,
            second_level=second_level,
        )
        crf_kwargs = dict(l2=l2, max_iterations=max_iterations)
        self.block_crf = ChainCRF(self.spec.block_labels, **crf_kwargs)
        self.registrant_crf = (
            ChainCRF(self.spec.sub_labels, **crf_kwargs)
            if second_level and self.spec.has_second_level
            else None
        )
        self._trained_on: int = 0
        #: lazy (block, registrant) LineEncoder pair for the bulk path;
        #: dropped whenever the model -- and with it the vocabularies the
        #: cached ids resolve against -- changes.
        self._bulk_encoders = None

    def __getstate__(self):
        # The line-encoding caches can hold hundreds of thousands of
        # entries; rebuild them in each worker instead of pickling them.
        state = self.__dict__.copy()
        state["_bulk_encoders"] = None
        return state

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def _segments(self, crf: ChainCRF, records) -> list[tuple[list, list]]:
        """``(units, labels)`` of each of ``crf``'s training sequences."""
        if crf is self.block_crf:
            return [(r.raw_lines, r.block_labels) for r in records]
        return [seg for r in records for seg in sub_segments(r, self.spec)]

    def _train(self, records, replay=(), *, extend=False, **block_kwargs) -> None:
        """Fit each level on ``records`` (and ``replay``) through one
        :func:`~repro.parser.bulk.fit_encoder` per level, growing each
        fitted index with ``extend``; ``block_kwargs`` go to the first
        level's trainer."""
        profiles: dict = {}  # line analyses, shared by both levels
        levels = [("block", self.block_crf, block_kwargs)]
        if self.registrant_crf is not None and (
            self.registrant_crf.is_fitted or not extend
        ):
            levels.append(("registrant", self.registrant_crf, {}))
        for level, crf, kwargs in levels:
            fresh = self._segments(crf, records)
            if not fresh:
                continue
            encoder = fit_encoder(
                self.featurizer,
                crf.labels,
                [units for units, _labels in fresh],
                min_count=self.settings["min_count"],
                base=crf.index if extend else None,
                profiles=profiles,
            )
            pairs = fresh + self._segments(crf, replay)
            sequences = [encoder.encode_record(units) for units, _ in pairs]
            labels = [seg_labels for _units, seg_labels in pairs]
            train = crf.partial_fit if extend else crf.fit
            with obs.trace("train.fit_seconds", level=level):
                train(encoder.index, sequences, labels, **kwargs)
        self._bulk_encoders = None

    def fit(
        self,
        records: TypingSequence[LabeledRecord],
        *,
        resume=None,
        checkpoint_every: int = 0,
        on_checkpoint=None,
    ) -> "WhoisParser":
        """Estimate both CRFs from labeled records.

        ``resume`` / ``checkpoint_every`` / ``on_checkpoint`` thread the
        crash-safe checkpoint machinery through to the first-level CRF
        (the expensive one); see :meth:`repro.crf.ChainCRF.fit`.
        """
        records = list(records)
        if not records:
            raise ValueError("cannot train on an empty corpus")
        self._train(
            records,
            resume=resume,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
        self._trained_on = len(records)
        return self

    def partial_fit(
        self,
        new_records: TypingSequence[LabeledRecord],
        *,
        replay: TypingSequence[LabeledRecord] = (),
        resume=None,
        checkpoint_every: int = 0,
        on_checkpoint=None,
    ) -> "WhoisParser":
        """Enlarge the parser with newly labeled records (Section 5.3).

        ``replay`` is an optional sample of earlier training records mixed
        in so the enlarged model does not forget the original formats.
        ``checkpoint_every`` / ``on_checkpoint`` forward to the first-level
        trainer (the expensive one), snapshotting resumable
        :class:`~repro.crf.train.TrainerState` objects mid-retrain -- the
        mechanism :mod:`repro.pipeline.retrain` persists to disk.
        """
        new_records = list(new_records)
        if not new_records:
            return self
        self._train(
            new_records,
            replay,
            extend=True,
            resume=resume,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
        self._trained_on += len(new_records)
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _raw_lines(self, record: WhoisRecord | LabeledRecord | str) -> list[str]:
        """A record's raw units.

        Labeled records keep their stored segmentation; raw text and
        :class:`WhoisRecord` inputs are split by the featurizer's own
        configuration (:meth:`WhoisFeaturizer.segment
        <repro.whois.features.WhoisFeaturizer.segment>`).
        """
        if isinstance(record, LabeledRecord):
            return record.raw_lines
        return self.featurizer.segment(
            record if isinstance(record, str) else record.text
        )

    def _encode_blocks(self, records: list) -> tuple[list[list[str]], list]:
        """Each record's labelable units and their first-level encodings,
        through the memoizing block :class:`~repro.parser.bulk.LineEncoder`."""
        block_encoder, _registrant_encoder = self._encoders()
        lines_per: list[list[str]] = []
        encoded = []
        for record in records:
            lines: list[str] = []
            encoded.append(
                block_encoder.encode_record(
                    self._raw_lines(record), collect=lines
                )
            )
            lines_per.append(lines)
        return lines_per, encoded

    def predict_blocks(
        self, record: WhoisRecord | LabeledRecord | str
    ) -> list[str]:
        """First-level labels for each labelable line of the record."""
        _lines, encoded = self._encode_blocks([record])
        return self.block_crf.predict_many(encoded)[0]

    def predict_registrant_fields(self, lines: list[str]) -> list[str]:
        """Second-level labels for a contiguous registrant block."""
        if not self._has_second_level:
            raise RuntimeError("second-level CRF is not available")
        _block_encoder, registrant_encoder = self._encoders()
        return self.registrant_crf.predict_many(
            [registrant_encoder.encode_record(lines)]
        )[0]

    @property
    def _has_second_level(self) -> bool:
        return self.registrant_crf is not None and self.registrant_crf.is_fitted

    def label_lines(
        self, record: WhoisRecord | LabeledRecord | str
    ) -> list[tuple[str, str, str | None]]:
        """(line, block, sub) for each labelable line; sub only on registrant."""
        return self.label_lines_many([record])[0]

    def line_confidences(
        self, record: WhoisRecord | LabeledRecord | str
    ) -> list[tuple[str, str, float]]:
        """(line, predicted block, posterior probability) per line.

        The confidence is the CRF's posterior marginal ``Pr(y_t | x)`` for
        the Viterbi label -- useful for routing low-confidence records to a
        human labeler, the workflow Section 5.3 implies.
        """
        return self.line_confidences_many([record])[0]

    def line_confidences_many(
        self, records: TypingSequence[WhoisRecord | LabeledRecord | str]
    ) -> list[list[tuple[str, str, float]]]:
        """Bulk :meth:`line_confidences`: the Viterbi labels and the
        marginals come from one potentials pass per chunk.

        Encoding goes through the same line cache :meth:`parse_many`
        uses, so parsing the same records afterwards (the gate-then-parse
        flow of :func:`repro.resilience.screen_and_parse`) hits on every
        first-level line.  It reports no ``parse.*`` timings: those time
        parsing, and scoring is not parsing.
        """
        lines_per, encoded = self._encode_blocks(list(records))
        label_ids = self.block_crf.index.label_ids
        return [
            [
                (line, block, float(marginals[t, label_ids[block]]))
                for t, (line, block) in enumerate(zip(lines, blocks))
            ]
            for lines, (blocks, marginals) in zip(
                lines_per, self.block_crf.predict_with_marginals_many(encoded)
            )
        ]

    def _assemble(self, labeled: list[tuple[str, str, str | None]]) -> ParsedRecord:
        lines = [line for line, _, _ in labeled]
        blocks = [block for _, block, _ in labeled]
        spec = self.spec
        subs = [
            sub or spec.sub_default
            for _, block, sub in labeled
            if block == spec.sub_block
        ]
        return spec.assemble_record(lines, blocks, subs)

    def parse(self, record: WhoisRecord | LabeledRecord | str) -> ParsedRecord:
        """Full parse: label lines, then extract structured fields."""
        return self._assemble(self.label_lines(record))

    # ------------------------------------------------------------------
    # Bulk inference (the survey-scale path of Section 6)
    # ------------------------------------------------------------------

    def _encoders(self) -> tuple["LineEncoder", "LineEncoder | None"]:
        """The memoizing line encoders of the bulk path, built lazily.

        Cached encodings are only valid for the current vocabularies,
        so ``fit``/``partial_fit`` drop them (see
        :class:`repro.parser.bulk.LineEncoder`).
        """
        if self._bulk_encoders is None:
            if not self.block_crf.is_fitted:
                raise RuntimeError("parser is not fitted")

            profiles: dict = {}  # raw line analyses, shared across levels
            self._bulk_encoders = (
                LineEncoder(
                    self.featurizer, self.block_crf.index, profiles=profiles
                ),
                LineEncoder(
                    self.featurizer,
                    self.registrant_crf.index,
                    profiles=profiles,
                )
                if self._has_second_level
                else None,
            )
        return self._bulk_encoders

    def _sharded(self, body, records: list, jobs: int, start_method) -> list:
        """``body`` (an unbound single-process bulk method) over
        ``jobs`` worker processes, one contiguous shard each, through
        :func:`repro.parallel.map_chunks`.  Each worker runs the whole
        pipeline on its shard and ships back only the small results."""
        with obs.trace("parse.sharded_seconds", jobs=str(jobs)):
            parts = map_chunks(
                body, self, records, jobs, start_method=start_method
            )
        return [item for part in parts for item in part]

    def label_lines_many(
        self,
        records: TypingSequence[WhoisRecord | LabeledRecord | str],
        *,
        jobs: int = 1,
        start_method: str | None = None,
    ) -> list[list[tuple[str, str, str | None]]]:
        """Bulk :meth:`label_lines` over many records.

        The one labeling path (:meth:`label_lines` is a batch of one).
        Each stage runs corpus-wide: every record's lines are featurized
        *and encoded* through the memoizing per-line cache, the first
        level decodes in one batched Viterbi pass, then *all* registrant
        segments are gathered into a single second-level batch.  With
        ``jobs > 1`` the whole pipeline shards across processes
        (``start_method`` optionally pins the multiprocessing start
        method; see :func:`repro.parallel.map_chunks`).
        """
        records = list(records)
        if jobs > 1 and len(records) >= 2 * jobs:
            return self._sharded(
                WhoisParser.label_lines_many,
                records, jobs, start_method,
            )
        _block_encoder, registrant_encoder = self._encoders()
        with obs.trace("parse.encode_seconds", level="block"):
            lines_per, encoded = self._encode_blocks(records)
        with obs.trace("parse.decode_seconds", level="block"):
            blocks_per = self.block_crf.predict_many(encoded)
        subs_per: list[list[str | None]] = [
            [None] * len(lines) for lines in lines_per
        ]
        if registrant_encoder is not None:
            # Corpus-wide gather: one batch over every registrant segment.
            spans: list[tuple[int, int]] = []  # (record, start)
            segments = []
            with obs.trace("parse.encode_seconds", level="registrant"):
                for r, blocks in enumerate(blocks_per):
                    for start, end in _block_runs(blocks, self.spec.sub_block):
                        spans.append((r, start))
                        segments.append(
                            registrant_encoder.encode_record(
                                lines_per[r][start:end]
                            )
                        )
            with obs.trace("parse.decode_seconds", level="registrant"):
                sub_labels = self.registrant_crf.predict_many(segments)
            for (r, start), subs in zip(spans, sub_labels):
                subs_per[r][start:start + len(subs)] = subs
        self._flush_bulk_metrics(len(records))
        return [
            list(zip(lines, blocks, subs))
            for lines, blocks, subs in zip(lines_per, blocks_per, subs_per)
        ]

    def _flush_bulk_metrics(self, n_records: int) -> None:
        """Drain LineEncoder cache accounting into the installed registry.

        The encoders count hits/misses as plain ints on the hot path;
        this folds the per-batch deltas (and the cumulative hit rate)
        into ``repro.obs`` once per bulk call.  With no registry the
        deltas are drained and dropped, so a registry installed later
        counts only the lookups made while it was.
        """
        registry = obs.active()
        if self._bulk_encoders is None:
            return
        block_encoder, registrant_encoder = self._bulk_encoders
        for encoder, level in (
            (block_encoder, "block"),
            (registrant_encoder, "registrant"),
        ):
            if encoder is None:
                continue
            hits, misses, full_skips = encoder.drain_cache_stats()
            if registry is None:
                continue
            if hits:
                registry.inc("parse.line_cache.hits", hits, level=level)
            if misses:
                registry.inc("parse.line_cache.misses", misses, level=level)
            if full_skips:
                registry.inc(
                    "parse.encoder_cache_full", full_skips, level=level
                )
            registry.set_gauge(
                "parse.line_cache.hit_rate", encoder.hit_rate, level=level
            )
            if encoder.warm_entries:
                registry.set_gauge(
                    "parse.encoder_cache_warm_entries",
                    encoder.warm_entries,
                    level=level,
                )
        if registry is not None:
            registry.observe("parse.batch_records", n_records)

    def parse_many(
        self,
        records: TypingSequence[WhoisRecord | LabeledRecord | str],
        *,
        jobs: int = 1,
        start_method: str | None = None,
    ) -> list[ParsedRecord]:
        """Bulk :meth:`parse`: identical :class:`ParsedRecord` outputs,
        batched end to end.

        This is the path the paper's Section 6 survey runs on -- parsing
        102M com records is ~400k chunks of this method, embarrassingly
        parallel across machines on top of the in-process ``jobs``
        sharding (``start_method`` optionally pins the multiprocessing
        start method; see :func:`repro.parallel.map_chunks`).
        """
        records = list(records)
        if jobs > 1 and len(records) >= 2 * jobs:
            return self._sharded(
                WhoisParser.parse_many,
                records, jobs, start_method,
            )
        labeled_many = self.label_lines_many(records)
        with obs.trace("parse.assemble_seconds"):
            return [self._assemble(labeled) for labeled in labeled_many]

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------

    def top_block_features(self, label: str, k: int = 10):
        """Table 1: heaviest word features for one block label."""
        return self.block_crf.top_observation_features(label, k)

    def top_transition_features(self, k: int = 20):
        """Figure 1: heaviest block-boundary transition features."""
        return self.block_crf.top_transition_features(k)

    def save(self, path: str | Path) -> None:
        """Persist the parser: its :attr:`settings` and both CRFs.

        A loaded parser is prediction-equivalent to the original --
        ``parse_many`` over any corpus produces identical records -- which
        is what the serving tier's model registry
        (:mod:`repro.serve.models`) relies on for hot-swap and rollback;
        its :attr:`settings` equal the original's, so a retrain from it
        fits under the same settings.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        self.block_crf.save(path / "block")
        if self._has_second_level:
            self.registrant_crf.save(path / "registrant")
        meta = {
            **self.settings,
            "featurizer_config": asdict(self.featurizer.config),
            "trained_on": self._trained_on,
            "has_second_level": self._has_second_level,
        }
        (path / "parser.json").write_text(json.dumps(meta))

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        mmap: bool = False,
        expect_domain: str | None = None,
    ) -> "WhoisParser":
        """Load a saved parser.

        With ``mmap=True`` both CRFs map their weight vectors read-only
        from the raw ``.npy`` snapshots (see :meth:`ChainCRF.load
        <repro.crf.ChainCRF.load>`): every process loading the same
        snapshot shares one physical copy of the weights, and pickling
        the parser to a spawned ``parse_many`` worker ships a small file
        descriptor instead of the arrays.

        The parser is built from the snapshot's settings.  A setting an
        older snapshot lacks takes the constructor's default, except
        ``second_level``, which follows whether a second level was
        saved; snapshots from before domains were pluggable count as
        ``whois``.  Pass ``expect_domain`` to refuse snapshots of any
        other domain with a typed :class:`~repro.errors.DomainMismatch`
        instead of a shape crash deeper in the pipeline.  A snapshot
        that carries an UNK lexicon is refused with a
        :class:`~repro.errors.ReproError`: this version's featurizer
        has no UNK attributes, so its weights for them could never fire.
        """
        path = Path(path)
        meta = json.loads((path / "parser.json").read_text())
        settings = {
            key: meta[key] for key in cls.__init__.__kwdefaults__ if key in meta
        }
        domain = settings.setdefault("domain", "whois")
        if expect_domain is not None and domain != expect_domain:
            raise errors.DomainMismatch(
                f"model snapshot at {path} was trained for domain "
                f"{domain!r}, not {expect_domain!r}"
            )
        if meta.get("lexicon") is not None:
            raise errors.ReproError(
                f"model snapshot at {path} carries an UNK lexicon, which "
                f"this version does not support; retrain it"
            )
        settings.setdefault("second_level", meta["has_second_level"])
        if settings.get("featurizer_config") is not None:
            settings["featurizer_config"] = FeaturizerConfig(
                **settings["featurizer_config"]
            )
        parser = cls(**settings)
        parser.block_crf = ChainCRF.load(path / "block", mmap=mmap)
        parser.registrant_crf = (
            ChainCRF.load(path / "registrant", mmap=mmap)
            if meta["has_second_level"]
            else None
        )
        parser._trained_on = meta["trained_on"]
        return parser

    # ------------------------------------------------------------------
    # Encoder-cache persistence (warm starts)
    # ------------------------------------------------------------------

    def encoder_fingerprint(self) -> str:
        """Hash of everything the cached line encodings depend on.

        Covers the domain, the featurizer configuration and both
        levels' observation/edge vocabularies: if any of these
        change, previously cached attribute ids are meaningless, so a
        persisted cache carrying a different fingerprint must be
        discarded.  Retrains that leave the vocabularies unchanged (the
        common maintenance-loop case) keep the fingerprint stable and
        the warm start valid.
        """
        import hashlib

        payload = {
            "domain": self.spec.name,
            "config": asdict(self.featurizer.config),
            "block": (
                [self.block_crf.index.obs_vocab,
                 self.block_crf.index.edge_vocab]
                if self.block_crf.index is not None
                else None
            ),
            "registrant": (
                [self.registrant_crf.index.obs_vocab,
                 self.registrant_crf.index.edge_vocab]
                if self._has_second_level
                else None
            ),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def save_encoder_cache(self, path: str | Path) -> int:
        """Persist the warm line-encoder caches as one ``.npz`` archive.

        The archive is uncompressed and holds, per level (``block.*``
        and ``registrant.*``), the flat arrays of
        :meth:`LineEncoder.cache_arrays
        <repro.parser.bulk.LineEncoder.cache_arrays>` plus the
        vocabulary ``fingerprint``.  It is written to ``path + ".tmp"``
        and renamed over ``path``, so it lands at exactly ``path`` (no
        ``.npz`` is appended) and a reader never sees half a file.

        Returns the number of block-level line profiles written.
        Loading the file back (:meth:`load_encoder_cache`) lets a
        restarted server, a freshly spawned shard worker, or a
        maintenance-loop retrain with unchanged vocabulary skip
        re-encoding the heavy-headed WHOIS line distribution from
        scratch.
        """
        arrays = {"fingerprint": np.array(self.encoder_fingerprint())}
        for level, encoder in zip(("block", "registrant"), self._encoders()):
            if encoder is not None:
                for name, array in encoder.cache_arrays().items():
                    arrays[f"{level}.{name}"] = array
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as handle:
            np.savez(handle, **arrays)
        tmp.replace(path)
        return len(arrays["block.line_lengths"])

    def load_encoder_cache(self, path: str | Path) -> int:
        """Warm the line encoders from a :meth:`save_encoder_cache` file.

        Returns the number of line profiles loaded.  Returns ``0`` and
        loads nothing when the file is absent or unreadable (truncated,
        not an archive, or anything needing pickle), was written under
        a different vocabulary fingerprint (stale caches are never
        applied), or holds arrays whose lengths disagree or ids outside
        the vocabulary.
        """
        try:
            with np.load(path, allow_pickle=False) as archive:
                if str(archive["fingerprint"]) != self.encoder_fingerprint():
                    return 0
                levels = zip(("block", "registrant"), self._encoders())
                states = [
                    (encoder, encoder.read_cache_arrays({
                        name[len(level) + 1:]: archive[name]
                        for name in archive.files
                        if name.startswith(level + ".")
                    }))
                    for level, encoder in levels
                    if encoder is not None
                ]
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            return 0
        return sum(
            encoder.load_cache_state(state) for encoder, state in states
        )
