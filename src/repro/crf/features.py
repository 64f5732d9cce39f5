"""Feature indexing for linear-chain CRFs.

The paper's CRF uses hundreds of thousands of binary features, each testing
for the co-occurrence of a textual *attribute* (a word such as
``registrant@T``, or a marker such as ``NL``) with a label or a pair of
adjacent labels.  Enumerating every (attribute, label) pair as an explicit
feature function would be slow in Python, so we use the standard *factored*
parameterization: weights live in dense arrays indexed by

- ``(attribute, label)``            -- observation features, eq. (6)/(7),
- ``(label_prev, label)``           -- label-bigram features,
- ``(edge attribute, label_prev, label)`` -- transition features, eq. (8),
- ``(label,)`` at the first token   -- start features.

A binary feature fires exactly when its attribute occurs on a line, so the
score contributed at position ``t`` is a plain sum of weight rows -- the same
model as eq. (2) of the paper, just stored compactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence as TypingSequence

import numpy as np


@dataclass
class Sequence:
    """One training/inference instance: per-token attribute lists.

    ``obs[t]`` holds the attributes whose observation features may fire at
    token ``t``; ``edge[t]`` holds the attributes whose transition features
    may fire on the edge *into* token ``t`` (``edge[0]`` is ignored, since
    the first token has no predecessor -- see the paper's footnote on
    features that do not depend on ``y_{t-1}``).
    """

    obs: list[list[str]]
    edge: list[list[str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.edge:
            self.edge = [[] for _ in self.obs]
        if len(self.edge) != len(self.obs):
            raise ValueError(
                f"edge attribute list length {len(self.edge)} does not match "
                f"observation length {len(self.obs)}"
            )

    def __len__(self) -> int:
        return len(self.obs)


class EncodedSequence:
    """A :class:`Sequence` with attributes resolved to integer ids.

    Observation ids are stored *packed* -- all ids concatenated, plus
    per-token counts -- the form :class:`~repro.crf.batch.EncodedBatch`
    consumes, so batch construction is array concatenation instead of a
    per-token loop; the bulk :class:`~repro.parser.bulk.LineEncoder`
    builds this form directly.  ``obs_ids`` unpacks them into per-token
    lists.  Edge ids stay per-token lists (``edge_ids``): they are
    sparse, firing at block boundaries only.
    """

    __slots__ = ("edge_ids", "_obs_flat", "_obs_counts")

    def __init__(
        self, obs_ids: list[list[int]], edge_ids: list[list[int]]
    ) -> None:
        """Pack per-token observation id lists."""
        self.edge_ids = edge_ids
        self._obs_counts = np.fromiter(
            (len(ids) for ids in obs_ids), dtype=np.intp, count=len(obs_ids)
        )
        self._obs_flat = np.fromiter(
            chain.from_iterable(obs_ids),
            dtype=np.intp,
            count=int(self._obs_counts.sum()),
        )

    @classmethod
    def from_packed(
        cls,
        obs_flat: list[int] | np.ndarray,
        obs_counts: list[int] | np.ndarray,
        edge_ids: list[list[int]],
    ) -> "EncodedSequence":
        """Build from the packed form (flat ids + per-token counts)."""
        seq = cls.__new__(cls)
        seq.edge_ids = edge_ids
        seq._obs_flat = np.asarray(obs_flat, dtype=np.intp)
        seq._obs_counts = np.asarray(obs_counts, dtype=np.intp)
        return seq

    @property
    def obs_ids(self) -> list[list[int]]:
        """Per-token observation id lists."""
        flat = self._obs_flat.tolist()
        ids: list[list[int]] = []
        position = 0
        for count in self._obs_counts.tolist():
            ids.append(flat[position:position + count])
            position += count
        return ids

    def packed_obs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(obs_flat, obs_counts)`` intp arrays."""
        return self._obs_flat, self._obs_counts

    def __len__(self) -> int:
        return len(self._obs_counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodedSequence):
            return NotImplemented
        return (
            self.obs_ids == other.obs_ids and self.edge_ids == other.edge_ids
        )


class FeatureIndex:
    """Maps string attributes and labels to dense integer ids.

    The index is built once from a training corpus (with optional trimming
    of attributes that occur fewer than ``min_count`` times, mirroring the
    paper's dictionary trimming) and is then frozen: unknown attributes
    encountered at parse time are simply dropped, which is exactly the
    behaviour of a binary feature that never fires.
    """

    def __init__(
        self,
        labels: TypingSequence[str],
        *,
        min_count: int = 1,
        min_edge_count: int = 1,
    ) -> None:
        """Index over ``labels`` with count-threshold trimming knobs."""
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in state space")
        if not labels:
            raise ValueError("label space must be non-empty")
        self.labels: tuple[str, ...] = tuple(labels)
        self.label_ids: dict[str, int] = {y: i for i, y in enumerate(self.labels)}
        self.min_count = min_count
        self.min_edge_count = min_edge_count
        self.obs_vocab: dict[str, int] = {}
        self.edge_vocab: dict[str, int] = {}
        self._frozen = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, sequences: Iterable[Sequence]) -> "FeatureIndex":
        """Scan ``sequences``, count attributes, and freeze the vocabularies."""
        if self._frozen:
            raise RuntimeError("FeatureIndex is already frozen")
        obs_counts: dict[str, int] = {}
        edge_counts: dict[str, int] = {}
        for seq in sequences:
            for attrs in seq.obs:
                for attr in attrs:
                    obs_counts[attr] = obs_counts.get(attr, 0) + 1
            for attrs in seq.edge[1:]:
                for attr in attrs:
                    edge_counts[attr] = edge_counts.get(attr, 0) + 1
        for attr, count in sorted(obs_counts.items()):
            if count >= self.min_count:
                self.obs_vocab[attr] = len(self.obs_vocab)
        for attr, count in sorted(edge_counts.items()):
            if count >= self.min_edge_count:
                self.edge_vocab[attr] = len(self.edge_vocab)
        self._frozen = True
        return self

    def extend(self, sequences: Iterable[Sequence]) -> list[str]:
        """Add previously unseen attributes from ``sequences`` to the index.

        Supports the paper's maintainability story (Section 5.3): when a new
        labeled example arrives, the feature set is enlarged rather than
        rebuilt.  Returns the newly added observation attributes.  Counts are
        not re-thresholded; every new attribute is admitted, since by
        definition the new examples were added because they matter.
        """
        if not self._frozen:
            raise RuntimeError("build() must be called before extend()")
        added: list[str] = []
        for seq in sequences:
            for attrs in seq.obs:
                for attr in attrs:
                    if attr not in self.obs_vocab:
                        self.obs_vocab[attr] = len(self.obs_vocab)
                        added.append(attr)
            for attrs in seq.edge[1:]:
                for attr in attrs:
                    if attr not in self.edge_vocab:
                        self.edge_vocab[attr] = len(self.edge_vocab)
        return added

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_states(self) -> int:
        """Size of the label (state) space."""
        return len(self.labels)

    @property
    def n_obs(self) -> int:
        """Number of indexed observation attributes."""
        return len(self.obs_vocab)

    @property
    def n_edge(self) -> int:
        """Number of indexed edge (transition) attributes."""
        return len(self.edge_vocab)

    @property
    def n_features(self) -> int:
        """Total number of scalar parameters (== binary features) in the model."""
        n = self.n_states  # start weights
        n += self.n_obs * self.n_states
        n += self.n_states * self.n_states
        n += self.n_edge * self.n_states * self.n_states
        return n

    def obs_attribute_names(self) -> list[str]:
        """Observation attribute strings, ordered by id."""
        names = [""] * self.n_obs
        for attr, i in self.obs_vocab.items():
            names[i] = attr
        return names

    def edge_attribute_names(self) -> list[str]:
        """Edge attribute strings, ordered by id."""
        names = [""] * self.n_edge
        for attr, i in self.edge_vocab.items():
            names[i] = attr
        return names

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, seq: Sequence) -> EncodedSequence:
        """Resolve a sequence's attributes to ids, dropping unknown ones."""
        obs_ids = [
            sorted({self.obs_vocab[a] for a in attrs if a in self.obs_vocab})
            for attrs in seq.obs
        ]
        edge_ids = [
            sorted({self.edge_vocab[a] for a in attrs if a in self.edge_vocab})
            for attrs in seq.edge
        ]
        return EncodedSequence(obs_ids=obs_ids, edge_ids=edge_ids)

    def encode_labels(self, labels: TypingSequence[str]) -> list[int]:
        """Label strings to state ids; unknown labels are an error."""
        try:
            return [self.label_ids[y] for y in labels]
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r}") from exc

    def decode_labels(self, label_ids: TypingSequence[int]) -> list[str]:
        """State ids back to label strings."""
        return [self.labels[i] for i in label_ids]

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "labels": list(self.labels),
            "min_count": self.min_count,
            "min_edge_count": self.min_edge_count,
            "obs_vocab": self.obs_vocab,
            "edge_vocab": self.edge_vocab,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureIndex":
        """Rebuild a frozen index from :meth:`to_dict` output."""
        index = cls(
            data["labels"],
            min_count=data["min_count"],
            min_edge_count=data["min_edge_count"],
        )
        index.obs_vocab = dict(data["obs_vocab"])
        index.edge_vocab = dict(data["edge_vocab"])
        index._frozen = True
        return index
