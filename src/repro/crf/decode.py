"""Batched (vectorized) decoding for linear-chain CRFs.

The paper's headline workload is *prediction*: Section 6 parses 102M com
records with a trained model.  Viterbi (eqs. (13)-(17)) and the
per-token posteriors (eq. (12)) run here across ``R`` padded sequences
at once, so the Python loop is ``O(T_max)`` per batch instead of
``O(T)`` per record; a single record is a batch of one.

Both routines take an :class:`~repro.crf.batch.EncodedBatch` (built via
:meth:`EncodedBatch.from_encoded` for inference, labels not required)
plus the batch potentials ``emit (R, T, S)`` / ``trans (R, T-1, S, S)``,
and return per-record arrays trimmed to each sequence's true length.

A Viterbi step lays its scores out as the forward step of
:mod:`repro.crf.batch` does, C-ordered as (previous label, row, label),
so its ``argmax`` and ``max`` over the previous label compare whole
``(R, S)`` slices; the best value is the ``max`` itself, the very float
the ``argmax`` points at.  A max is exact in any order, so the paths
and values do not depend on the layout; ties still go to the first
label.  Like the recursions, a step runs only on the rows whose sequence
reaches it; the others carry their values forward.
"""

from __future__ import annotations

import numpy as np

from repro.crf.batch import EncodedBatch, batch_forward_backward


def batch_viterbi(
    batch: EncodedBatch, emit: np.ndarray, trans: np.ndarray
) -> list[np.ndarray]:
    """Most likely label sequence per record, eqs. (13)-(17) batched.

    Returns one int array of length ``lengths[r]`` per record, in batch
    order, with first-index ``argmax`` tie-breaking.  Each path is a
    trimmed copy, so holding it does not keep the padded tables alive.
    """
    n_r, t_max, n_s = emit.shape
    steps = batch.active_rows
    value = emit[:, 0].copy()  # eq. (14), carried forward on padding
    back = np.zeros((n_r, max(t_max - 1, 0), n_s), dtype=np.intp)
    rows = np.arange(n_r)
    for t in range(1, t_max):
        active = steps[t]
        # eq. (15)'s inner bracket, previous label first:
        # scores[i, r, j] = value[r, i] + trans[r, t-1, i, j].
        scores = np.add(
            trans[active, t - 1].transpose(1, 0, 2),
            value[active].T[:, :, None],
            order="C",
        )
        back[active, t - 1] = scores.argmax(axis=0)  # eq. (16)
        new = scores.max(axis=0)
        new += emit[active, t]
        value[active] = new
    # `value` now holds each record's Viterbi values at its *own* final
    # token (padding steps never overwrite it).
    last = batch.lengths - 1
    labels = np.full((n_r, t_max), -1, dtype=np.intp)
    labels[rows, last] = np.argmax(value, axis=1)
    for t in range(t_max - 2, -1, -1):  # eq. (17)
        nxt = np.maximum(labels[:, t + 1], 0)  # padded rows masked below
        prev_lab = back[rows, t, nxt]
        labels[:, t] = np.where(t < last, prev_lab, labels[:, t])
    return [labels[r, : batch.lengths[r]].copy() for r in range(n_r)]


def batch_marginals(
    batch: EncodedBatch, emit: np.ndarray, trans: np.ndarray
) -> list[np.ndarray]:
    """Per-token posteriors ``Pr(y_t | x)`` per record, shape ``(T_r, S)``.

    The batched forward-backward of the training path provides alpha, beta
    and per-record ``log Z``; each record's marginals are a trimmed copy
    of its rows of the padded block.
    """
    alpha, beta, log_z = batch_forward_backward(batch, emit, trans)
    node = alpha + beta
    node -= log_z[:, None, None]
    np.exp(node, out=node)
    return [
        node[r, : batch.lengths[r]].copy() for r in range(batch.n_records)
    ]
