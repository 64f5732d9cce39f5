"""The CRF's flat parameter vector and its structured view.

The objective itself -- the convex log-likelihood of eq. (11) with its
observed-minus-expected-counts gradient and an L2 penalty -- is computed
batched, in :func:`repro.crf.batch.batch_nll_grad`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crf.features import FeatureIndex


@dataclass
class ParamView:
    """Structured view over the flat parameter vector.

    Layout (in order): start weights ``(S,)``, observation weights
    ``(A, S)``, label-bigram weights ``(S, S)``, and edge-attribute weights
    ``(E, S, S)``.  All views share memory with the flat vector.
    """

    start: np.ndarray
    obs: np.ndarray
    trans: np.ndarray
    edge: np.ndarray

    @classmethod
    def of(cls, params: np.ndarray, index: FeatureIndex) -> "ParamView":
        """Slice the flat ``params`` vector into the four weight blocks."""
        n_states, n_obs, n_edge = index.n_states, index.n_obs, index.n_edge
        if params.shape != (index.n_features,):
            raise ValueError(
                f"parameter vector has shape {params.shape}, "
                f"expected ({index.n_features},)"
            )
        offset = 0
        start = params[offset : offset + n_states]
        offset += n_states
        obs = params[offset : offset + n_obs * n_states].reshape(n_obs, n_states)
        offset += n_obs * n_states
        trans = params[offset : offset + n_states * n_states].reshape(
            n_states, n_states
        )
        offset += n_states * n_states
        edge = params[offset:].reshape(n_edge, n_states, n_states)
        return cls(start=start, obs=obs, trans=trans, edge=edge)
