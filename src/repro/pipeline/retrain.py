"""Warm-start incremental retraining with on-disk checkpoints.

The §5.3 economics only work if retraining on "corpus + one labeled
example" costs a fraction of training from scratch.  Two mechanisms in
:mod:`repro.crf.train` deliver that, and this module packages them for
the maintenance loop:

- **warm start** -- ``WhoisParser.partial_fit`` keeps the fitted weights
  and continues optimization on the new example plus a small replay
  sample, so the optimizer starts next to the solution instead of at
  zero (``benchmarks/bench_maintainability_loop.py`` measures the
  speedup over a cold refit of the enlarged corpus);
- **checkpoint/resume** -- the trainer snapshots resumable
  :class:`~repro.crf.train.TrainerState` objects mid-run;
  :class:`WarmStartRetrainer` persists them under ``checkpoint_dir`` so
  a retrain killed mid-flight loses at most ``checkpoint_every``
  optimizer iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Sequence

from repro import obs
from repro.crf.train import TrainerState
from repro.parser.statistical import WhoisParser
from repro.whois.records import LabeledRecord

__all__ = ["RetrainReport", "WarmStartRetrainer"]

_CHECKPOINT = "retrain-block.npz"


@dataclass(frozen=True)
class RetrainReport:
    """Accounting for one retraining run (warm or cold)."""

    warm: bool
    n_new: int
    n_replay: int
    seconds: float
    #: objective evaluations the first-level trainer spent
    block_evaluations: int
    converged: bool


class WarmStartRetrainer:
    """Retrains a parser on newly labeled records, warm and checkpointed.

    Parameters
    ----------
    replay_size:
        How many earlier training records to mix in so the enlarged
        model does not forget the original formats (the replay sample is
        taken from the front of the ``replay`` sequence passed to
        :meth:`retrain`).
    checkpoint_dir:
        Directory for mid-retrain :class:`TrainerState` snapshots; None
        disables checkpointing.
    checkpoint_every:
        Optimizer iterations between snapshots.
    """

    def __init__(
        self,
        *,
        replay_size: int = 50,
        checkpoint_dir: "str | Path | None" = None,
        checkpoint_every: int = 10,
    ) -> None:
        """Retrainer with replay-sample size and checkpoint cadence."""
        self.replay_size = replay_size
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = checkpoint_every

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    @property
    def checkpoint_path(self) -> "Path | None":
        """Where mid-retrain snapshots land (None: disabled)."""
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / _CHECKPOINT

    def latest_checkpoint(self) -> "TrainerState | None":
        """The last snapshot a killed retrain left behind, if any."""
        path = self.checkpoint_path
        if path is None or not path.exists():
            return None
        return TrainerState.load(path)

    def _on_checkpoint(self, state: TrainerState) -> None:
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        state.save(self.checkpoint_path)
        obs.inc("pipeline.retrain.checkpoints")

    def _clear_checkpoint(self) -> None:
        path = self.checkpoint_path
        if path is not None and path.exists():
            path.unlink()

    # ------------------------------------------------------------------
    # Retraining
    # ------------------------------------------------------------------

    def retrain(
        self,
        parser: WhoisParser,
        new_records: Sequence[LabeledRecord],
        *,
        replay: Sequence[LabeledRecord] = (),
    ) -> RetrainReport:
        """Warm-start ``parser`` on ``new_records`` (+ replay), in place.

        The caller decides whether ``parser`` is the live model or a
        copy (the maintenance loop retrains a copy so the swap stays an
        atomic, rollback-able registry operation).  A completed run
        clears any stale checkpoint.
        """
        replay_sample = list(replay)[: self.replay_size]
        resume = self.latest_checkpoint()
        kwargs = dict(
            replay=replay_sample,
            checkpoint_every=(
                self.checkpoint_every if self.checkpoint_dir else 0
            ),
            on_checkpoint=(
                self._on_checkpoint if self.checkpoint_dir else None
            ),
        )
        started = perf_counter()
        with obs.trace("pipeline.retrain_seconds", mode="warm"):
            try:
                parser.partial_fit(list(new_records), resume=resume, **kwargs)
            except ValueError:
                if resume is None:
                    raise
                # A stale checkpoint from a different retrain (wrong
                # parameter dimensionality): discard it and start warm
                # from the parser's own weights.  Index extension is
                # idempotent, so the retry is safe.
                self._clear_checkpoint()
                parser.partial_fit(list(new_records), **kwargs)
        self._clear_checkpoint()
        log = parser.block_crf.train_log
        report = RetrainReport(
            warm=True,
            n_new=len(new_records),
            n_replay=len(replay_sample),
            seconds=perf_counter() - started,
            block_evaluations=log.n_iterations if log is not None else 0,
            converged=bool(log.converged) if log is not None else False,
        )
        obs.inc("pipeline.retrains")
        return report

    @staticmethod
    def cold_retrain(
        template: WhoisParser,
        corpus: Sequence[LabeledRecord],
    ) -> "tuple[WhoisParser, RetrainReport]":
        """Train a fresh parser from scratch on the full enlarged corpus.

        The baseline the warm path is measured against: same final
        training set, optimizer started from zero.  ``template`` only
        supplies the settings: the new parser is built from
        :attr:`WhoisParser.settings
        <repro.parser.statistical.WhoisParser.settings>`.
        """
        fresh = WhoisParser(**template.settings)
        started = perf_counter()
        with obs.trace("pipeline.retrain_seconds", mode="cold"):
            fresh.fit(list(corpus))
        log = fresh.block_crf.train_log
        return fresh, RetrainReport(
            warm=False,
            n_new=len(corpus),
            n_replay=0,
            seconds=perf_counter() - started,
            block_evaluations=log.n_iterations if log is not None else 0,
            converged=bool(log.converged) if log is not None else False,
        )
