"""Tests for trainer behaviour details."""

import numpy as np
import pytest

from repro.crf.train import LBFGSTrainer
from tests.crf_data import indexed


def _dataset(n=12):
    index, seqs = indexed(["x", "y"], [[["a"], ["b"]]] * n)
    return [(seq, index.encode_labels(["x", "y"])) for seq in seqs], index


# ----------------------------------------------------------------------
# Trainers
# ----------------------------------------------------------------------


def test_lbfgs_records_objective_history():
    dataset, index = _dataset()
    params, log = LBFGSTrainer(l2=0.5).fit(dataset, index)
    assert log.n_iterations == len(log.objective_values) > 1
    assert log.objective_values[-1] < log.objective_values[0]
    assert log.converged


def test_lbfgs_iteration_cap():
    dataset, index = _dataset()
    _, capped = LBFGSTrainer(l2=0.5, max_iterations=1).fit(dataset, index)
    _, free = LBFGSTrainer(l2=0.5, max_iterations=100).fit(dataset, index)
    assert capped.n_iterations <= free.n_iterations


def test_lbfgs_warm_start():
    dataset, index = _dataset()
    params, _ = LBFGSTrainer(l2=0.5).fit(dataset, index)
    _, warm_log = LBFGSTrainer(l2=0.5).fit(dataset, index, initial=params)
    # Starting at the optimum, the first evaluation is already optimal.
    assert warm_log.objective_values[0] == pytest.approx(
        warm_log.objective_values[-1], rel=1e-6
    )


def test_lbfgs_rejects_bad_initial():
    dataset, index = _dataset()
    with pytest.raises(ValueError):
        LBFGSTrainer().fit(dataset, index,
                           initial=np.zeros(index.n_features + 3))


def test_lbfgs_empty_dataset():
    _, index = _dataset()
    with pytest.raises(ValueError):
        LBFGSTrainer().fit([], index)

