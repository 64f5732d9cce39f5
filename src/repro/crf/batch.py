"""Batched (vectorized) CRF potentials, forward-backward and objective.

This is the one place the appendix's recursions run, in log space.  For
a batch of ``R`` sequences padded to length ``T``:

- ``emit``:  ``(R, T, S)``, where ``emit[r, t, j]`` is the sum of the
  weights of all observation features firing for label ``j`` at token
  ``t`` (plus the start weight at ``t = 0``);
- ``trans``: ``(R, T-1, S, S)``, where ``trans[r, t, i, j]`` is the sum
  of the weights of all transition features firing on the edge between
  tokens ``t`` and ``t+1`` for the label pair ``(i, j)`` -- the log of
  the matrix ``M_t`` of eq. (9).

Both sums are sparse: each batch holds two 0/1 design matrices (scipy
CSR, one row per token or transition slot, one column per attribute
id), so the potentials are ``A_obs @ W_obs`` and ``A_edge @ W_edge`` and
the objective's feature expectations are ``A.T @ marginals``.  Each
product adds a row's or a column's entries in occurrence order, the
order the attribute ids arrive in.

Training on corpora of hundreds or thousands of WHOIS records (each 20-80
lines) and decoding survey-scale batches both need the recursions
batched across records: the per-timestep updates run as dense numpy ops
over the whole batch, masked past each record's own length, in
``O(S^2 T)`` per record as eq. (10) promises.  A single record is simply
a batch of one.

Each step reduces over the summed-out label in a few whole-row passes,
and each sum adds its terms in one fixed order, so the floats do not
depend on how a step is laid out:

- the forward step writes its scores C-ordered as (summed label ``i``,
  row, label ``j``) straight from a strided view of ``trans``, so its
  max and its sum over ``i`` add whole ``(R, S)`` slices in order ``i =
  0, 1, ...`` -- the order a reduction over any non-last axis takes;
- the backward step sums over ``j``, the last axis of its ``(R, S, S)``
  table, and keeps that layout: on a last axis numpy adds fewer than
  eight terms in order but eight or more pairwise, so summing the
  12-label registrant level over a leading axis instead would move its
  floats.  Only the step's max, which is exact in any order, is taken
  another way (one whole-row ``maximum`` per column).

Each row's recursion is its own, so a step runs only on the rows whose
sequence reaches it (``EncodedBatch.active_rows``): a slice of the batch
when they are contiguous, as in the length-sorted chunks inference
decodes, else their indices.  No step copies ``trans`` whole or
materializes a broadcast: each allocates only its own table of at most
``(R, S, S)``.  The objective's edge marginals likewise run over the
real transition slots alone, row by row; the padded slots would add
exact zeros to the same sums in the same order.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import csr_array

from repro.crf.features import EncodedSequence, FeatureIndex
from repro.crf.objective import ParamView

_NEG_INF = -1e30  # floor for log-sum-exp maxima; exp() underflows to 0


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-subtraction log-sum-exp of ``x`` over ``axis`` (0 or -1).

    ``x`` is a scratch table: it is overwritten with ``exp(x - max)``.
    Over axis 0 of a C-ordered table the max and the sum each add whole
    trailing slices in order.  Over the last axis numpy's own max runs
    one short loop per row, so the max is taken one column at a time
    instead (exact in any order); the sum stays numpy's last-axis sum.
    """
    if axis == 0:
        m = x.max(axis=0)
    else:
        m = x[..., 0].copy()
        for j in range(1, x.shape[-1]):
            np.maximum(m, x[..., j], out=m)
    np.maximum(m, _NEG_INF, out=m)  # an all -inf row gives -inf, not NaN
    x -= m if axis == 0 else m[..., None]
    np.exp(x, out=x)
    out = x.sum(axis=axis)
    np.log(out, out=out)
    out += m
    return out


def _padded(
    counts: list[np.ndarray], sizes: np.ndarray, width: int
) -> np.ndarray:
    """Record ``r``'s ``sizes[r]`` per-slot ``counts`` placed at slots
    ``r*width ...`` of a padded ``(R*width,)`` axis, zeros elsewhere."""
    offset = np.arange(len(sizes), dtype=np.intp) * width - (
        np.cumsum(sizes) - sizes
    )
    slots = np.repeat(offset, sizes) + np.arange(
        int(sizes.sum()), dtype=np.intp
    )
    padded = np.zeros(len(sizes) * width, dtype=np.intp)
    padded[slots] = np.concatenate(counts)
    return padded


def _design_matrix(counts: np.ndarray, ids: np.ndarray, n_ids: int) -> csr_array:
    """0/1 CSR matrix whose row ``i`` holds the next ``counts[i]`` of ``ids``.

    Entries keep their order in ``ids``, so a product sums each row's
    (or, transposed, each column's) terms in occurrence order.
    """
    if ids.size and int(ids.max()) >= n_ids:
        raise ValueError(f"attribute id {int(ids.max())} outside 0..{n_ids - 1}")
    indptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return csr_array(
        (np.ones(len(ids)), ids, indptr), shape=(len(counts), n_ids)
    )


class EncodedBatch:
    """A set of sequences padded to one length, with sparse design matrices.

    For ``R`` sequences padded to length ``T``:

    - ``obs_matrix``: ``(R*T, A)`` CSR, a 1 for every observation
      attribute of every token; row ``r*T + t`` is record ``r``'s token
      ``t``, and padding rows are empty.
    - ``edge_matrix``: ``(R*(T-1), E)`` CSR, likewise for the edge
      attributes of positions ``t >= 1``, on transition slot ``t-1``.
    - ``labels``: ``(R, T)`` int array, ``-1`` on padding.
    - ``lengths``: ``(R,)``.

    Label sequences may be ``None`` for inference-only batches (the bulk
    decoding path in :mod:`repro.crf.decode`); such rows keep ``-1``
    everywhere and must not be scored with :meth:`observed_score`.
    """

    def __init__(
        self,
        dataset: list[tuple[EncodedSequence, list[int] | None]],
        index: FeatureIndex,
    ) -> None:
        """Pad ``dataset`` and build its two design matrices."""
        if not dataset:
            raise ValueError("empty dataset")
        self.n_states = index.n_states
        self.lengths = np.array([len(seq) for seq, _ in dataset], dtype=np.intp)
        if not self.lengths.all():
            raise ValueError("empty sequence in batch")
        n_records = len(dataset)
        t_max = int(self.lengths.max())
        t1 = max(t_max - 1, 0)
        self.n_records, self.t_max = n_records, t_max
        self.labels = np.full((n_records, t_max), -1, dtype=np.intp)
        # Every sequence comes packed (flat ids + per-token counts), so
        # each matrix takes one concatenation of the ids and one scatter
        # of the counts onto the padded rows: no per-token numpy call.
        # A record's first token has no transition into it, so its edge
        # ids and count are dropped.
        obs_flat: list[np.ndarray] = []
        obs_counts: list[np.ndarray] = []
        edge_flat: list[np.ndarray] = []
        edge_counts: list[np.ndarray] = []
        for r, (seq, labels) in enumerate(dataset):
            if labels is not None:
                if len(labels) != len(seq):
                    raise ValueError(
                        f"sequence of length {len(seq)} has {len(labels)} labels"
                    )
                self.labels[r, : len(seq)] = labels
            obs_flat.append(seq.obs_flat)
            obs_counts.append(seq.obs_counts)
            edge_flat.append(seq.edge_flat[seq.edge_counts[0]:])
            edge_counts.append(seq.edge_counts[1:])
        self.obs_matrix = _design_matrix(
            _padded(obs_counts, self.lengths, t_max),
            np.concatenate(obs_flat),
            index.n_obs,
        )
        self.edge_matrix = _design_matrix(
            _padded(edge_counts, self.lengths - 1, t1),
            np.concatenate(edge_flat),
            index.n_edge,
        )
        # Masks of valid tokens and of valid transitions (t < length-1).
        steps = np.arange(t_max)
        self.token_mask = steps[None, :] < self.lengths[:, None]
        self.trans_mask = steps[None, : t_max - 1] < (self.lengths - 1)[:, None]
        self.n_tokens = int(self.lengths.sum())

    @classmethod
    def from_encoded(
        cls, sequences: list[EncodedSequence], index: FeatureIndex
    ) -> "EncodedBatch":
        """Inference-only batch over unlabeled encoded sequences."""
        return cls([(seq, None) for seq in sequences], index)

    def potentials(self, view: ParamView) -> tuple[np.ndarray, np.ndarray]:
        """Batch emission ``(R,T,S)`` and transition ``(R,T-1,S,S)`` scores."""
        n_r, t_max, n_s = self.n_records, self.t_max, self.n_states
        t1 = max(t_max - 1, 0)
        emit = (self.obs_matrix @ view.obs).reshape(n_r, t_max, n_s)
        emit[:, 0, :] += view.start[None, :]
        # Padding rows of the matrices are empty, so padded tokens score
        # 0; the recursions never read past each sequence's length.
        trans = self.edge_matrix @ view.edge.reshape(len(view.edge), n_s * n_s)
        trans += view.trans.reshape(1, n_s * n_s)
        return emit, trans.reshape(n_r, t1, n_s, n_s)

    @cached_property
    def active_rows(self) -> list[slice | np.ndarray]:
        """For each position ``t``, the rows whose sequence reaches ``t``:
        a slice when they are contiguous (at every position of a batch
        sorted by length), else their indices.

        Each row's recursion is its own, so the recursions step only
        these rows and leave the padding alone.
        """
        mask = self.token_mask
        count = mask.sum(axis=0)
        first = mask.argmax(axis=0)
        last = self.n_records - 1 - mask[::-1].argmax(axis=0)
        return [
            slice(int(first[t]), int(last[t]) + 1)
            if last[t] - first[t] + 1 == count[t]
            else np.flatnonzero(mask[:, t])
            for t in range(self.t_max)
        ]

    @cached_property
    def gold_tokens(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(r, t, y)`` of every real token, row by row: its record, its
        position and its gold label (found once per batch)."""
        r_idx, t_idx = np.nonzero(self.token_mask)
        return r_idx, t_idx, self.labels[r_idx, t_idx]

    @cached_property
    def gold_transitions(self) -> tuple[np.ndarray, ...]:
        """``(r, t, y_t, y_t+1)`` of every real transition slot, row by
        row, and the rows of ``edge_matrix`` for those slots, in order."""
        r_idx, t_idx = np.nonzero(self.trans_mask)
        return (
            r_idx,
            t_idx,
            self.labels[r_idx, t_idx],
            self.labels[r_idx, t_idx + 1],
            self.edge_matrix[np.flatnonzero(self.trans_mask)],
        )

    def observed_score(self, emit: np.ndarray, trans: np.ndarray) -> float:
        """Sum of potentials along the gold label paths of the batch."""
        r_idx, t_idx, labels = self.gold_tokens
        score = float(emit[r_idx, t_idx, labels].sum())
        if self.t_max > 1:
            r_idx, t_idx, y_t, y_next, _rows = self.gold_transitions
            score += float(trans[r_idx, t_idx, y_t, y_next].sum())
        return score


def batch_forward_backward(
    batch: EncodedBatch, emit: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched alpha, beta, and per-record logZ (eqs. (9)-(10)).

    ``alpha[r, t, j]`` is the log-sum over label prefixes of record ``r``
    ending in ``j`` at ``t``; ``beta[r, t, i]`` the log-sum over suffixes
    after ``i``; ``log_z[r]`` is ``log Z(x)`` of eq. (3).  Past a record's
    last token alpha carries forward and beta stays 0.
    """
    n_r, t_max, n_s = emit.shape
    steps = batch.active_rows
    alpha = np.empty((n_r, t_max, n_s))
    alpha[:, 0] = emit[:, 0]
    for t in range(1, t_max):
        rows = steps[t]
        alpha[:, t] = alpha[:, t - 1]
        # scores[i, r, j] = alpha[r, t-1, i] + trans[r, t-1, i, j], summed
        # label first: both reductions add whole (R, S) slices.
        scores = np.add(
            trans[rows, t - 1].transpose(1, 0, 2),
            alpha[rows, t - 1].T[:, :, None],
            order="C",
        )
        new = _logsumexp(scores, axis=0)
        new += emit[rows, t]
        alpha[rows, t] = new
    # logZ reads alpha at each record's final token.
    last = batch.lengths - 1
    log_z = _logsumexp(alpha[np.arange(n_r), last], axis=-1)

    beta = np.zeros((n_r, t_max, n_s))
    for t in range(t_max - 2, -1, -1):
        rows = steps[t + 1]
        nxt = emit[rows, t + 1] + beta[rows, t + 1]
        # scores[r, i, j], summed over the last axis (see the module
        # docstring for why this sum keeps its layout).
        scores = trans[rows, t] + nxt[:, None, :]
        beta[rows, t] = _logsumexp(scores, axis=-1)
    return alpha, beta, log_z


def batch_nll_grad(
    params: np.ndarray,
    batches: list[EncodedBatch],
    index: FeatureIndex,
    l2: float,
) -> tuple[float, np.ndarray]:
    """Regularized NLL and gradient summed over ``batches``.

    The trainer cuts a large dataset into several batches once per fit
    (bounding the padded tensors' memory); the objective is the same sum
    however the rows are cut.
    """
    view = ParamView.of(params, index)
    grad = np.zeros_like(params)
    grad_view = ParamView.of(grad, index)
    nll = 0.0
    for batch in batches:
        nll += _batch_nll_grad(batch, view, grad_view)
    if l2 > 0.0:
        nll += 0.5 * l2 * float(params @ params)
        grad += l2 * params
    return nll, grad


def _batch_nll_grad(
    batch: EncodedBatch, view: ParamView, grad_view: ParamView
) -> float:
    """One batch's unregularized NLL; its gradient adds into ``grad_view``."""
    n_s = batch.n_states
    emit, trans = batch.potentials(view)
    alpha, beta, log_z = batch_forward_backward(batch, emit, trans)
    nll = float(log_z.sum()) - batch.observed_score(emit, trans)

    # Node marginals, zeroed on padding.
    node = alpha + beta
    node -= log_z[:, None, None]
    np.exp(node, out=node)
    node *= batch.token_mask[:, :, None]
    # Subtract observed counts.
    node[batch.gold_tokens] -= 1.0

    grad_view.start += node[:, 0, :].sum(axis=0)
    grad_view.obs += batch.obs_matrix.T @ node.reshape(-1, n_s)

    if batch.t_max > 1:
        # Edge marginals of the real transitions only, row by row: the
        # padded slots would add exact zeros to both sums below.
        r_idx, t_idx, y_t, y_next, edge_rows = batch.gold_transitions
        edges = trans[r_idx, t_idx]
        edges += alpha[r_idx, t_idx][:, :, None]
        edges += (emit[r_idx, t_idx + 1] + beta[r_idx, t_idx + 1])[:, None, :]
        edges -= log_z[r_idx][:, None, None]
        np.exp(edges, out=edges)
        edges[np.arange(len(r_idx)), y_t, y_next] -= 1.0
        grad_view.trans += edges.sum(axis=0)
        if edge_rows.nnz:
            grad_view.edge += (
                edge_rows.T @ edges.reshape(-1, n_s * n_s)
            ).reshape(-1, n_s, n_s)
    return nll
