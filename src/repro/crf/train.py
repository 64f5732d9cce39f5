"""Parameter estimation for the CRF.

The paper estimates parameters with limited-memory BFGS (citing Nocedal &
Wright) and mentions a specialized stochastic-gradient pipeline.  We provide
both:

- :class:`LBFGSTrainer` wraps ``scipy.optimize.minimize(method="L-BFGS-B")``
  over the exact batch objective; and
- :class:`SGDTrainer` implements minibatch stochastic gradient descent with
  AdaGrad step sizes, useful when the corpus is large.

Both trainers support the Section 5.3 maintenance workflow through two
mechanisms:

- **warm starts** -- ``initial=`` (or a :class:`TrainerState` via
  ``resume=``) seeds optimization from an existing parameter vector, so
  retraining on "corpus + one new labeled record" converges in a
  fraction of the evaluations a cold start needs; and
- **checkpoint/resume** -- ``checkpoint_every=`` / ``on_checkpoint=``
  snapshot a :class:`TrainerState` mid-run, and ``resume=`` continues an
  interrupted run from the snapshot (exactly, for SGD; from the saved
  parameters with a fresh curvature history, for L-BFGS).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from repro import obs
from repro.crf.batch import EncodedBatch, batch_nll_grad
from repro.crf.features import EncodedSequence, FeatureIndex


@dataclass
class TrainerState:
    """A resumable optimizer snapshot.

    ``params`` is the parameter vector at snapshot time;
    ``iterations_done`` counts completed optimizer iterations (L-BFGS)
    or epochs (SGD); ``accumulated_sq`` carries the AdaGrad accumulator
    so an SGD resume continues with the same effective step sizes.
    """

    params: np.ndarray
    iterations_done: int = 0
    accumulated_sq: "np.ndarray | None" = None

    def save(self, path: "str | Path") -> Path:
        """Persist the snapshot as one ``.npz`` file; returns the path."""
        path = Path(path)
        arrays = {
            "params": self.params,
            "iterations_done": np.asarray(self.iterations_done),
        }
        if self.accumulated_sq is not None:
            arrays["accumulated_sq"] = self.accumulated_sq
        np.savez_compressed(path, **arrays)
        return path if path.suffix == ".npz" else path.with_suffix(".npz")

    @classmethod
    def load(cls, path: "str | Path") -> "TrainerState":
        """Restore a checkpointed optimizer state (see :meth:`save`)."""
        with np.load(path) as data:
            return cls(
                params=data["params"],
                iterations_done=int(data["iterations_done"]),
                accumulated_sq=(
                    data["accumulated_sq"]
                    if "accumulated_sq" in data
                    else None
                ),
            )


#: Signature of the ``on_checkpoint`` hook both trainers accept.
CheckpointHook = Callable[[TrainerState], None]


@dataclass
class TrainLog:
    """Objective values observed during training (one per evaluation/epoch)."""

    objective_values: list[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False
    #: final optimizer snapshot, resumable via the trainers' ``resume=``
    final_state: "TrainerState | None" = None

    def record(self, value: float) -> None:
        """Append one objective evaluation to the log."""
        self.objective_values.append(float(value))
        self.n_iterations += 1


class LBFGSTrainer:
    """Batch maximum-likelihood training with L-BFGS."""

    def __init__(
        self,
        *,
        l2: float = 1.0,
        max_iterations: int = 200,
        tolerance: float = 1e-6,
    ) -> None:
        """L-BFGS trainer with ``l2`` regularization and stop criteria."""
        self.l2 = l2
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    def fit(
        self,
        dataset: list[tuple[EncodedSequence, list[int]]],
        index: FeatureIndex,
        *,
        initial: np.ndarray | None = None,
        resume: TrainerState | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: CheckpointHook | None = None,
    ) -> tuple[np.ndarray, TrainLog]:
        """Minimize the regularized NLL; returns ``(params, log)``.

        ``resume`` warm-starts from a :class:`TrainerState` (parameters
        carry over; the L-BFGS curvature history restarts) and deducts
        its ``iterations_done`` from the iteration budget.  With
        ``checkpoint_every > 0``, ``on_checkpoint`` receives a
        :class:`TrainerState` every that many optimizer iterations.
        """
        if not dataset:
            raise ValueError("cannot train on an empty dataset")
        if resume is not None and initial is not None:
            raise ValueError("pass initial= or resume=, not both")
        done = 0
        if resume is not None:
            initial = resume.params
            done = resume.iterations_done
        params = (
            np.zeros(index.n_features) if initial is None else initial.astype(float)
        )
        if params.shape != (index.n_features,):
            raise ValueError("initial parameter vector has the wrong size")
        log = TrainLog()
        batch = EncodedBatch(dataset, index)

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            started = perf_counter()
            nll, grad = batch_nll_grad(theta, batch, index, self.l2)
            log.record(nll)
            # Per-evaluation observability hooks (Section 5's "watch the
            # parser train" story): loss trajectory, gradient norm, and
            # the cost of each objective evaluation.
            if obs.active() is not None:
                obs.inc("train.iterations", trainer="lbfgs")
                obs.set_gauge("train.loss", nll, trainer="lbfgs")
                obs.set_gauge(
                    "train.grad_norm",
                    float(np.linalg.norm(grad)),
                    trainer="lbfgs",
                )
                obs.observe(
                    "train.iteration_seconds",
                    perf_counter() - started,
                    trainer="lbfgs",
                )
            return nll, grad

        completed = [done]

        def callback(theta: np.ndarray) -> None:
            completed[0] += 1
            if (
                checkpoint_every > 0
                and on_checkpoint is not None
                and completed[0] % checkpoint_every == 0
            ):
                on_checkpoint(
                    TrainerState(
                        params=np.array(theta, dtype=float),
                        iterations_done=completed[0],
                    )
                )

        result = minimize(
            objective,
            params,
            jac=True,
            method="L-BFGS-B",
            callback=callback,
            options={
                "maxiter": max(1, self.max_iterations - done),
                "ftol": self.tolerance,
            },
        )
        log.converged = bool(result.success)
        log.final_state = TrainerState(
            params=np.array(result.x, dtype=float),
            iterations_done=completed[0],
        )
        return result.x, log


class SGDTrainer:
    """Minibatch stochastic gradient descent with AdaGrad step sizes."""

    def __init__(
        self,
        *,
        l2: float = 1.0,
        epochs: int = 10,
        batch_size: int = 8,
        learning_rate: float = 0.5,
        seed: int = 0,
    ) -> None:
        """SGD trainer; ``seed`` fixes the minibatch shuffle order."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.l2 = l2
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed

    def fit(
        self,
        dataset: list[tuple[EncodedSequence, list[int]]],
        index: FeatureIndex,
        *,
        initial: np.ndarray | None = None,
        resume: TrainerState | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: CheckpointHook | None = None,
    ) -> tuple[np.ndarray, TrainLog]:
        """Run (the remaining) AdaGrad epochs; returns ``(params, log)``.

        ``resume`` continues an interrupted run *exactly*: parameters,
        the AdaGrad accumulator, and the shuffle stream all pick up
        where the checkpoint left off, so interrupt-then-resume produces
        the same model as an uninterrupted run over the same dataset.
        With ``checkpoint_every > 0``, ``on_checkpoint`` receives a
        :class:`TrainerState` every that many completed epochs.
        """
        if not dataset:
            raise ValueError("cannot train on an empty dataset")
        if resume is not None and initial is not None:
            raise ValueError("pass initial= or resume=, not both")
        rng = random.Random(self.seed)
        order = list(range(len(dataset)))
        epochs_done = 0
        if resume is not None:
            epochs_done = resume.iterations_done
            initial = resume.params
            # Replay the shuffle stream so epoch e sees the same order it
            # would have seen in an uninterrupted run.
            for _ in range(epochs_done):
                rng.shuffle(order)
        params = (
            np.zeros(index.n_features) if initial is None else initial.astype(float)
        )
        if resume is not None and resume.accumulated_sq is not None:
            accumulated_sq = resume.accumulated_sq.astype(float).copy()
        else:
            accumulated_sq = np.full(index.n_features, 1e-8)
        log = TrainLog()
        n = len(dataset)
        batch = EncodedBatch(dataset, index)
        for epoch in range(epochs_done, self.epochs):
            epoch_started = perf_counter()
            rng.shuffle(order)
            epoch_nll = 0.0
            for batch_start in range(0, n, self.batch_size):
                rows = order[batch_start : batch_start + self.batch_size]
                nll, grad = batch_nll_grad(
                    params, batch.subset(rows), index, 0.0
                )
                epoch_nll += nll
                # Scale the L2 term so a full epoch applies it exactly once.
                if self.l2 > 0.0:
                    grad += (self.l2 * len(rows) / n) * params
                accumulated_sq += grad * grad
                params -= self.learning_rate * grad / np.sqrt(accumulated_sq)
            if self.l2 > 0.0:
                epoch_nll += 0.5 * self.l2 * float(params @ params)
            log.record(epoch_nll)
            if obs.active() is not None:
                obs.inc("train.iterations", trainer="sgd")
                obs.set_gauge("train.loss", epoch_nll, trainer="sgd")
                obs.observe(
                    "train.iteration_seconds",
                    perf_counter() - epoch_started,
                    trainer="sgd",
                )
            if (
                checkpoint_every > 0
                and on_checkpoint is not None
                and (epoch + 1) % checkpoint_every == 0
            ):
                on_checkpoint(
                    TrainerState(
                        params=params.copy(),
                        iterations_done=epoch + 1,
                        accumulated_sq=accumulated_sq.copy(),
                    )
                )
        log.converged = True
        log.final_state = TrainerState(
            params=params.copy(),
            iterations_done=self.epochs,
            accumulated_sq=accumulated_sq.copy(),
        )
        return params, log
