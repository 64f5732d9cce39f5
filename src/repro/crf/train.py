"""Parameter estimation for the CRF.

The paper estimates parameters with limited-memory BFGS (citing Nocedal &
Wright): :class:`LBFGSTrainer` wraps
``scipy.optimize.minimize(method="L-BFGS-B")`` over the exact batch
objective.

The trainer supports the Section 5.3 maintenance workflow through two
mechanisms:

- **warm starts** -- ``initial=`` (or a :class:`TrainerState` via
  ``resume=``) seeds optimization from an existing parameter vector, so
  retraining on "corpus + one new labeled record" converges in a
  fraction of the evaluations a cold start needs; and
- **checkpoint/resume** -- ``checkpoint_every=`` / ``on_checkpoint=``
  snapshot a :class:`TrainerState` mid-run, and ``resume=`` continues an
  interrupted run from the snapshot's parameters with a fresh curvature
  history.

The fit runs with every loaded OpenBLAS pinned to one thread
(:func:`one_blas_thread`): its BLAS calls -- the objective's dot
products and L-BFGS-B's vector updates -- are too small to gain from a
second thread, and a threaded dot product sums in an order that depends
on the thread count.  Pinned, a fit's parameters are the same floats
whatever ``OPENBLAS_NUM_THREADS`` says, and no idle BLAS thread spins
on the second core.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np
from scipy.optimize import minimize

from repro import obs
from repro.crf.batch import EncodedBatch, batch_nll_grad
from repro.crf.features import EncodedSequence, FeatureIndex

#: Most sequences per training batch: the padded tensors of one batch
#: scale with its rows, so a large fit is cut into batches of this size.
BATCH_SIZE = 512

#: L-BFGS-B's relative-reduction stop criterion (scipy's ``ftol``).
TOLERANCE = 1e-6


class _PhdrInfo(ctypes.Structure):
    """The leading fields of glibc's ``struct dl_phdr_info``."""

    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)


def openblas_libraries() -> list[ctypes.CDLL]:
    """Every OpenBLAS loaded into this process that can set its thread count.

    numpy and scipy wheels each bundle their own OpenBLAS, so there may
    be two.  The libraries are found through ``dl_iterate_phdr``; where
    the C library lacks it, none are found.  Each handle exposes
    ``openblas_set_num_threads_local(n)``, which sets the count for the
    whole process and returns the previous one.
    """
    iterate = getattr(ctypes.CDLL(None), "dl_iterate_phdr", None)
    if iterate is None:
        return []
    paths: list[str] = []

    @_PHDR_CALLBACK
    def collect(info, _size, _data):
        name = os.fsdecode(info.contents.name or b"")
        if "openblas" in os.path.basename(name).lower():
            paths.append(name)
        return 0

    iterate(collect, None)
    libraries = []
    for path in paths:
        library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        if hasattr(library, "openblas_set_num_threads_local"):
            libraries.append(library)
    return libraries


class _BlasPin:
    """The process-wide one-thread pin behind :func:`one_blas_thread`.

    The outermost holder pins every library and records its previous
    count; the last holder to leave restores those counts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        self._previous: list[tuple[ctypes.CDLL, int]] = []

    def enter(self) -> None:
        with self._lock:
            if not self._holders:
                self._previous = [
                    (library, library.openblas_set_num_threads_local(1))
                    for library in openblas_libraries()
                ]
            self._holders += 1

    def leave(self) -> None:
        with self._lock:
            self._holders -= 1
            if not self._holders:
                for library, count in self._previous:
                    library.openblas_set_num_threads_local(count)
                self._previous = []


_PIN = _BlasPin()


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS on one thread.

    The count is restored when the body exits, also by an exception.
    The pin is reentrant: nested or concurrent holders keep one thread
    until the last of them leaves.  Where no OpenBLAS is loaded it does
    nothing.
    """
    _PIN.enter()
    try:
        yield
    finally:
        _PIN.leave()


@dataclass
class TrainerState:
    """A resumable optimizer snapshot.

    ``params`` is the parameter vector at snapshot time;
    ``iterations_done`` counts completed optimizer iterations.
    """

    params: np.ndarray
    iterations_done: int = 0

    def save(self, path: "str | Path") -> Path:
        """Persist the snapshot as one ``.npz`` file; returns the path."""
        path = Path(path)
        np.savez_compressed(
            path,
            params=self.params,
            iterations_done=np.asarray(self.iterations_done),
        )
        return path if path.suffix == ".npz" else path.with_suffix(".npz")

    @classmethod
    def load(cls, path: "str | Path") -> "TrainerState":
        """Restore a checkpointed optimizer state (see :meth:`save`).

        Arrays other than these two are ignored, so checkpoints that
        still carry an ``accumulated_sq`` (written when an AdaGrad
        trainer existed) load too.
        """
        with np.load(path) as data:
            return cls(
                params=data["params"],
                iterations_done=int(data["iterations_done"]),
            )


#: Signature of the trainer's ``on_checkpoint`` hook.
CheckpointHook = Callable[[TrainerState], None]


@dataclass
class TrainLog:
    """Objective values observed during training (one per evaluation).

    ``n_iterations`` counts objective evaluations, L-BFGS-B's line-search
    trials included, not optimizer iterations: those are
    ``final_state.iterations_done``.
    """

    objective_values: list[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False
    #: final optimizer snapshot, resumable via the trainer's ``resume=``
    final_state: "TrainerState | None" = None

    def record(self, value: float) -> None:
        """Append one objective evaluation to the log."""
        self.objective_values.append(float(value))
        self.n_iterations += 1


class LBFGSTrainer:
    """Batch maximum-likelihood training with L-BFGS, on one BLAS thread.

    A fit stops after ``max_iterations`` iterations or once an iteration
    reduces the objective by less than :data:`TOLERANCE` relative to it.
    """

    def __init__(self, *, l2: float = 1.0, max_iterations: int = 200) -> None:
        """L-BFGS trainer with ``l2`` regularization and an iteration
        budget."""
        self.l2 = l2
        self.max_iterations = max_iterations

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
        batches = [
            EncodedBatch(dataset[start:start + BATCH_SIZE], index)
            for start in range(0, len(dataset), BATCH_SIZE)
        ]

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            started = perf_counter()
            nll, grad = batch_nll_grad(theta, batches, index, self.l2)
            log.record(nll)
            # Per-evaluation observability hooks (Section 5's "watch the
            # parser train" story): loss trajectory, gradient norm, and
            # the cost of each objective evaluation.  The
            # `train.iterations` counter and `train.iteration_seconds`
            # count evaluations, line-search trials included, like
            # `TrainLog.n_iterations`; the callback below counts L-BFGS
            # iterations (`TrainerState.iterations_done`).
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

        with one_blas_thread():
            result = minimize(
                objective,
                params,
                jac=True,
                method="L-BFGS-B",
                callback=callback,
                options={
                    "maxiter": max(1, self.max_iterations - done),
                    "ftol": TOLERANCE,
                },
            )
        log.converged = bool(result.success)
        log.final_state = TrainerState(
            params=np.array(result.x, dtype=float),
            iterations_done=completed[0],
        )
        return result.x, log
