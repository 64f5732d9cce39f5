"""The public CRF model class."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.crf.batch import EncodedBatch
from repro.crf.decode import batch_marginals, batch_viterbi
from repro.crf.features import EncodedSequence, FeatureIndex
from repro.crf.objective import ParamView
from repro.crf.train import LBFGSTrainer, TrainLog, TrainerState

#: Most sequences per inference batch: the padded tables of one batch
#: grow with its rows, so the prediction methods decode length-sorted
#: chunks of this size.
CHUNK_SIZE = 256


class ChainCRF:
    """A linear-chain conditional random field over string labels.

    Parameters
    ----------
    labels:
        The finite state space (e.g. the six block labels of the first-level
        WHOIS CRF).
    l2:
        L2 regularization strength.
    max_iterations:
        Iteration budget of the L-BFGS fit (the paper's optimizer).

    Examples
    --------
    >>> index = FeatureIndex(["a", "b"], obs_vocab={"x": 0, "y": 1})
    >>> xy = EncodedSequence([0, 1], [1, 1], [], [0, 0])  # x then y
    >>> crf = ChainCRF(["a", "b"], l2=0.1).fit(index, [xy, xy], [["a", "b"]] * 2)
    >>> crf.predict_many([xy])
    [['a', 'b']]
    """

    def __init__(
        self,
        labels: Sequence[str],
        *,
        l2: float = 1.0,
        max_iterations: int = 200,
    ) -> None:
        """Unfitted CRF over ``labels`` with training hyperparameters."""
        self._labels = tuple(labels)
        self._l2 = l2
        self._max_iterations = max_iterations
        self.index: FeatureIndex | None = None
        self.params: np.ndarray | None = None
        self.train_log: TrainLog | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """The label (state) space, in id order."""
        return self._labels

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` (or a load) has set parameters."""
        return self.params is not None

    def _train(self, index, sequences, label_sequences, **trainer_kwargs):
        """Fit ``index``'s parameters to the labeled ``sequences``."""
        if index.labels != self._labels:
            raise ValueError("index labels differ from the model's")
        if len(sequences) != len(label_sequences):
            raise ValueError("sequences and label_sequences differ in length")
        dataset = [
            (seq, index.encode_labels(labels))
            for seq, labels in zip(sequences, label_sequences)
        ]
        params, log = LBFGSTrainer(
            l2=self._l2, max_iterations=self._max_iterations
        ).fit(dataset, index, **trainer_kwargs)
        self.index, self.params, self.train_log = index, params, log
        return self

    def fit(
        self,
        index: FeatureIndex,
        sequences: Sequence[EncodedSequence],
        label_sequences: Sequence[Sequence[str]],
        *,
        resume: "TrainerState | None" = None,
        checkpoint_every: int = 0,
        on_checkpoint=None,
    ) -> "ChainCRF":
        """Estimate parameters from labeled sequences (eq. (4)).

        ``sequences`` are encoded against ``index``, which the model
        keeps.  ``resume`` / ``checkpoint_every`` / ``on_checkpoint``
        forward to the trainer (:mod:`repro.crf.train`), so a long cold
        train can snapshot :class:`~repro.crf.train.TrainerState` objects
        and be continued after an interruption.
        """
        return self._train(
            index,
            sequences,
            label_sequences,
            resume=resume,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )

    def partial_fit(
        self,
        index: FeatureIndex,
        sequences: Sequence[EncodedSequence],
        label_sequences: Sequence[Sequence[str]],
        *,
        resume: "TrainerState | None" = None,
        checkpoint_every: int = 0,
        on_checkpoint=None,
    ) -> "ChainCRF":
        """Enlarge the model with new labeled examples (Section 5.3).

        ``index`` extends the fitted one: every attribute keeps its id and
        the new ones follow.  Existing weights are kept as a warm start
        and training continues on ``sequences`` (the new examples plus
        any replayed earlier ones).  This is the maintainability workflow
        the paper contrasts with hand-editing rule bases.
        ``checkpoint_every`` / ``on_checkpoint`` forward to the trainer
        for mid-retrain :class:`~repro.crf.train.TrainerState` snapshots,
        and ``resume`` continues an interrupted retrain of the *same*
        examples from such a snapshot (the extension is deterministic, so
        the snapshot's parameter vector lines up).
        """
        old_index, old_view = self._require_fitted()
        if not (
            old_index.obs_vocab.items() <= index.obs_vocab.items()
            and old_index.edge_vocab.items() <= index.edge_vocab.items()
        ):
            raise ValueError("index does not extend the fitted model's index")
        new_params = np.zeros(index.n_features)
        new_view = ParamView.of(new_params, index)
        new_view.start[:] = old_view.start
        new_view.obs[:old_index.n_obs] = old_view.obs
        new_view.trans[:] = old_view.trans
        new_view.edge[:old_index.n_edge] = old_view.edge

        if resume is not None and resume.params.shape != new_params.shape:
            # A snapshot from a different retrain (wrong dimensionality).
            # Leave the model consistent with the extended index -- old
            # weights kept, new features at zero -- so the caller can
            # drop the snapshot and call partial_fit again.
            self.index, self.params = index, new_params
            raise ValueError(
                f"resume snapshot has {resume.params.shape[0]} parameters, "
                f"expected {new_params.shape[0]} after index extension"
            )
        return self._train(
            index,
            sequences,
            label_sequences,
            initial=None if resume is not None else new_params,
            resume=resume,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _require_fitted(self) -> tuple[FeatureIndex, ParamView]:
        if self.index is None or self.params is None:
            raise RuntimeError("model is not fitted")
        return self.index, ParamView.of(self.params, self.index)

    def _decode_many(self, sequences, decode, empty):
        """The batched inference driver every prediction method runs on.

        Non-empty sequences are sorted by length and padded into
        per-chunk :class:`EncodedBatch` objects of :data:`CHUNK_SIZE`
        rows (bounding peak memory at roughly ``CHUNK_SIZE * T_max *
        S^2`` floats; length-sorting keeps each chunk's padding tight);
        ``decode(chunk, emit, trans)`` turns one chunk's
        potentials into per-record results, which are scattered back
        into input order.  Empty sequences map to ``empty(index)``.
        """
        index, view = self._require_fitted()
        encoded = list(sequences)
        out: list = [empty(index) for _ in encoded]
        keep = [i for i, s in enumerate(encoded) if len(s) > 0]
        if not keep:
            return out
        keep.sort(key=lambda i: len(encoded[i]))
        for start in range(0, len(keep), CHUNK_SIZE):
            rows = keep[start:start + CHUNK_SIZE]
            batch = EncodedBatch.from_encoded(
                [encoded[i] for i in rows], index
            )
            emit, trans = batch.potentials(view)
            for i, result in zip(rows, decode(batch, emit, trans)):
                out[i] = result
        return out

    def predict_many(
        self, sequences: Sequence[EncodedSequence]
    ) -> list[list[str]]:
        """Batched Viterbi decoding (eq. (5)) of many sequences at once.

        Empty sequences yield ``[]``.  The recursions run across all
        sequences of a chunk (:data:`CHUNK_SIZE` rows) in dense numpy
        ops -- the bulk path Section 6's survey-scale parse runs on, fed
        by the :class:`~repro.parser.bulk.LineEncoder` cache.
        """
        index = self.index

        def decode(chunk, emit, trans):
            return [
                index.decode_labels(row.tolist())
                for row in batch_viterbi(chunk, emit, trans)
            ]

        return self._decode_many(sequences, decode, lambda _index: [])

    def predict_with_marginals_many(
        self, sequences: Sequence[EncodedSequence]
    ) -> list[tuple[list[str], np.ndarray]]:
        """Viterbi labels and per-token posteriors (one ``(T, n_states)``
        array each) for many sequences, both from one potentials pass
        per chunk of :data:`CHUNK_SIZE` rows."""
        index = self.index

        def decode(chunk, emit, trans):
            paths = batch_viterbi(chunk, emit, trans)
            marginals = batch_marginals(chunk, emit, trans)
            return [
                (index.decode_labels(path.tolist()), node)
                for path, node in zip(paths, marginals)
            ]

        return self._decode_many(
            sequences,
            decode,
            lambda index: ([], np.zeros((0, index.n_states))),
        )

    # ------------------------------------------------------------------
    # Introspection (Table 1 / Figure 1)
    # ------------------------------------------------------------------

    def top_observation_features(
        self, label: str, k: int = 10
    ) -> list[tuple[str, float]]:
        """The ``k`` heaviest-weighted observation attributes for ``label``.

        This is the view that produces Table 1 of the paper.
        """
        index, view = self._require_fitted()
        j = index.label_ids[label]
        names = index.obs_attribute_names()
        weights = view.obs[:, j]
        order = np.argsort(-weights)[:k]
        return [(names[i], float(weights[i])) for i in order]

    def top_transition_features(
        self, k: int = 20, *, include_self: bool = False
    ) -> list[tuple[str, str, str, float]]:
        """The heaviest transition features ``(attr, y_prev, y, weight)``.

        With ``include_self=False`` (the default) only features between
        *different* labels are reported, matching Figure 1, which visualizes
        block-boundary detectors.
        """
        index, view = self._require_fitted()
        names = index.edge_attribute_names()
        entries: list[tuple[str, str, str, float]] = []
        for e, attr in enumerate(names):
            for i, y_prev in enumerate(index.labels):
                for j, y in enumerate(index.labels):
                    if not include_self and i == j:
                        continue
                    entries.append((attr, y_prev, y, float(view.edge[e, i, j])))
        entries.sort(key=lambda item: -item[3])
        return entries[:k]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the model as ``<path>.json`` (labels, settings and
        index) and ``<path>.npy``, the raw weight vector that
        :meth:`load` maps or reads."""
        if self.index is None or self.params is None:
            raise RuntimeError("cannot save an unfitted model")
        path = Path(path)
        meta = {
            "labels": list(self._labels),
            "l2": self._l2,
            "max_iterations": self._max_iterations,
            "index": self.index.to_dict(),
        }
        path.with_suffix(".json").write_text(json.dumps(meta))
        _write_npy(path.with_suffix(".npy"), np.asarray(self.params))

    @classmethod
    def load(cls, path: str | Path, *, mmap: bool = False) -> "ChainCRF":
        """Load a saved model.

        With ``mmap=True`` the weight vector is memory-mapped read-only
        from ``<path>.npy``: every process that loads the same snapshot
        shares one physical copy of the weights, and pickling the model
        (e.g. to a spawned ``parse_many`` worker) ships a small
        ``(filename, dtype, shape, offset)`` descriptor instead of the
        array bytes.  Otherwise the weights are read into a private
        array.  A snapshot written before the raw format holds only a
        compressed ``<path>.npz``; it loads eagerly, whatever ``mmap``
        says, and the load writes nothing.  A snapshot without
        ``"max_iterations"`` gets the default 200, and keys of older
        snapshots that no longer configure anything (``"trainer"``,
        ``"min_count"``, ``"min_edge_count"``) are ignored.
        """
        path = Path(path)
        meta = json.loads(path.with_suffix(".json").read_text())
        model = cls(
            meta["labels"],
            l2=meta["l2"],
            max_iterations=meta.get("max_iterations", 200),
        )
        model.index = FeatureIndex.from_dict(meta["index"])
        npy = path.with_suffix(".npy")
        if npy.exists():
            model.params = np.load(npy, mmap_mode="r" if mmap else None)
        else:
            with np.load(path.with_suffix(".npz")) as data:
                model.params = data["params"]
        return model

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle memory-mapped weights as a descriptor, not as bytes.

        A model loaded with ``mmap=True`` would otherwise serialize the
        full weight vector to every spawned worker; the descriptor makes
        the pickle a few hundred bytes and the worker re-maps the same
        physical pages on unpickle.
        """
        state = self.__dict__.copy()
        params = state.get("params")
        if isinstance(params, np.memmap) and params.filename is not None:
            state["params"] = _MmapParams(
                filename=str(params.filename),
                dtype=params.dtype.str,
                shape=tuple(params.shape),
                offset=int(params.offset),
            )
        return state

    def __setstate__(self, state: dict) -> None:
        """Re-open a weight descriptor (see :meth:`__getstate__`)."""
        params = state.get("params")
        if isinstance(params, _MmapParams):
            state["params"] = params.open()
        self.__dict__.update(state)


@dataclass(frozen=True)
class _MmapParams:
    """Pickle-side descriptor of a memory-mapped weight vector."""

    filename: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    def open(self) -> np.memmap:
        """Map the described region read-only."""
        return np.memmap(
            self.filename,
            dtype=np.dtype(self.dtype),
            mode="r",
            shape=self.shape,
            offset=self.offset,
        )


def _write_npy(target: Path, array: np.ndarray) -> None:
    """Atomically write ``array`` as a raw ``.npy`` snapshot at ``target``."""
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as handle:
        np.save(handle, np.ascontiguousarray(array))
    os.replace(tmp, target)
