"""Hand-built CRF inputs for the engine tests.

The CRF engine sees only attribute ids; the parser's encoder builds them
from text.  These helpers build an index and encoded sequences from
per-token attribute *names*, so an engine test can state its data
readably without going through text.
"""

from __future__ import annotations

from itertools import chain, count

from repro.crf.features import EncodedSequence, FeatureIndex, split_ids


def encode(index, obs, edge=None):
    """An :class:`EncodedSequence` from per-token attribute names.

    ``edge`` defaults to no edge attributes; names outside ``index`` are
    dropped, as the encoder drops unknown attributes.
    """
    if edge is None:
        edge = [[] for _ in obs]
    obs_ids = [
        [index.obs_vocab[a] for a in names if a in index.obs_vocab]
        for names in obs
    ]
    edge_ids = [
        [index.edge_vocab[a] for a in names if a in index.edge_vocab]
        for names in edge
    ]
    return pack(obs_ids, edge_ids)


def pack(obs_ids, edge_ids):
    """An :class:`EncodedSequence` from per-token id lists."""
    return EncodedSequence(
        list(chain.from_iterable(obs_ids)),
        [len(ids) for ids in obs_ids],
        list(chain.from_iterable(edge_ids)),
        [len(ids) for ids in edge_ids],
    )


def unpack(encoded):
    """``(obs, edge)`` per-token id lists of an encoded sequence."""
    return (
        split_ids(encoded.obs_flat, encoded.obs_counts),
        split_ids(encoded.edge_flat, encoded.edge_counts),
    )


def indexed(labels, sequences):
    """An index over every attribute named in ``sequences``, numbered in
    sorted order, and the sequences encoded against it.

    Each sequence is a list of per-token observation name lists, or an
    ``(obs, edge)`` pair of such lists.
    """
    pairs = [s if isinstance(s, tuple) else (s, None) for s in sequences]
    obs = sorted({a for o, _e in pairs for names in o for a in names})
    edge = sorted({a for _o, e in pairs for names in e or () for a in names})
    index = FeatureIndex(
        labels,
        obs_vocab=dict(zip(obs, count())),
        edge_vocab=dict(zip(edge, count())),
    )
    return index, [encode(index, o, e) for o, e in pairs]


def names(index, encoded):
    """``(obs, edge)`` per-token attribute names of an encoded sequence,
    in id order within each token."""
    obs_names = index.obs_attribute_names()
    edge_names = index.edge_attribute_names()
    obs, edge = unpack(encoded)
    return (
        [[obs_names[i] for i in sorted(ids)] for ids in obs],
        [[edge_names[i] for i in sorted(ids)] for ids in edge],
    )
