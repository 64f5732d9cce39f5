"""Linear-chain conditional random fields, implemented from scratch.

This package implements the probabilistic model of Section 3.1 and the
appendix of *Who is .com? Learning to Parse WHOIS Records* (IMC 2015):
log-space forward-backward for the normalization factor and marginals
(eqs. 9-12), Viterbi decoding (eqs. 13-17), the convex log-likelihood
objective (eq. 11) with its exact gradient, and L-BFGS parameter
estimation.  Every recursion runs
batched over padded sequences (:mod:`repro.crf.batch`,
:mod:`repro.crf.decode`); a single sequence is a batch of one.

The public entry point is :class:`ChainCRF`, which consumes *encoded*
sequences (:class:`EncodedSequence`: the ids a :class:`FeatureIndex`
gives each token's attributes, packed as flat ids with per-token
counts) and label sequences, and
learns binary features of the two forms used by the paper:
``f(y_t, x_t)`` observation features and ``f(y_{t-1}, y_t, x_t)``
transition features.  The package holds no text: the parser's
:class:`~repro.parser.bulk.LineEncoder` builds the index and the
sequences from records, for training and inference alike.
"""

from repro.crf.features import EncodedSequence, FeatureIndex
from repro.crf.batch import EncodedBatch, batch_forward_backward, batch_nll_grad
from repro.crf.decode import batch_marginals, batch_viterbi
from repro.crf.model import ChainCRF
from repro.crf.train import LBFGSTrainer, TrainLog, TrainerState

__all__ = [
    "ChainCRF",
    "EncodedBatch",
    "batch_forward_backward",
    "batch_marginals",
    "batch_nll_grad",
    "batch_viterbi",
    "EncodedSequence",
    "FeatureIndex",
    "LBFGSTrainer",
    "TrainLog",
    "TrainerState",
]
