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

from typing import Sequence

import numpy as np


class EncodedSequence:
    """One instance, packed: ``obs_flat`` holds the observation
    attribute ids of every token, token after token, and
    ``obs_counts[t]`` how many of them are token ``t``'s; ``edge_flat``
    and ``edge_counts`` hold the ids of the transition into each token
    the same way (token 0's are ignored: the paper's footnote on
    features without ``y_{t-1}``).  All four are intp arrays.

    Title words and layout markers make transition features fire on
    nearly every line, so both kinds share the one form
    :class:`~repro.crf.batch.EncodedBatch` consumes: building a batch is
    array concatenation, with no per-token loop.  The
    :class:`~repro.parser.bulk.LineEncoder` builds this form directly.
    """

    __slots__ = ("obs_flat", "obs_counts", "edge_flat", "edge_counts")

    def __init__(
        self,
        obs_flat: Sequence[int] | np.ndarray,
        obs_counts: Sequence[int] | np.ndarray,
        edge_flat: Sequence[int] | np.ndarray,
        edge_counts: Sequence[int] | np.ndarray,
    ) -> None:
        """Packed ids: flat ids plus per-token counts, for each kind."""
        if len(edge_counts) != len(obs_counts):
            raise ValueError(
                f"{len(edge_counts)} edge counts for {len(obs_counts)} tokens"
            )
        self.obs_flat = np.asarray(obs_flat, dtype=np.intp)
        self.obs_counts = np.asarray(obs_counts, dtype=np.intp)
        self.edge_flat = np.asarray(edge_flat, dtype=np.intp)
        self.edge_counts = np.asarray(edge_counts, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.obs_counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodedSequence):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__
        )


def split_ids(flat: np.ndarray, counts: np.ndarray) -> list[list[int]]:
    """Packed ids as one list per token (what tests and fixtures read)."""
    ids = flat.tolist()
    ends = np.cumsum(counts).tolist()
    return [ids[end - n:end] for n, end in zip(counts.tolist(), ends)]


class FeatureIndex:
    """Maps string attributes and labels to dense integer ids.

    The vocabularies are built from a training corpus by the parser's
    encoder (:func:`repro.parser.bulk.fit_encoder`, which also trims
    attributes seen fewer than ``min_count`` times, mirroring the paper's
    dictionary trimming) and are then frozen: unknown attributes
    encountered at parse time are simply dropped, which is exactly the
    behaviour of a binary feature that never fires.
    """

    def __init__(
        self,
        labels: Sequence[str],
        *,
        obs_vocab: dict[str, int] | None = None,
        edge_vocab: dict[str, int] | None = None,
    ) -> None:
        """Index over ``labels`` and the given attribute vocabularies."""
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in state space")
        if not labels:
            raise ValueError("label space must be non-empty")
        self.labels: tuple[str, ...] = tuple(labels)
        self.label_ids: dict[str, int] = {y: i for i, y in enumerate(self.labels)}
        self.obs_vocab: dict[str, int] = {} if obs_vocab is None else obs_vocab
        self.edge_vocab: dict[str, int] = {} if edge_vocab is None else edge_vocab

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

    def encode_labels(self, labels: Sequence[str]) -> list[int]:
        """Label strings to state ids; unknown labels are an error."""
        try:
            return [self.label_ids[y] for y in labels]
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r}") from exc

    def decode_labels(self, label_ids: Sequence[int]) -> list[str]:
        """State ids back to label strings."""
        return [self.labels[i] for i in label_ids]

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "labels": list(self.labels),
            "obs_vocab": self.obs_vocab,
            "edge_vocab": self.edge_vocab,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureIndex":
        """Rebuild an index from :meth:`to_dict` output.

        The ``min_count`` and ``min_edge_count`` keys of older snapshots
        are ignored: trimming happened when their vocabularies were built.
        """
        return cls(
            data["labels"],
            obs_vocab=dict(data["obs_vocab"]),
            edge_vocab=dict(data["edge_vocab"]),
        )
