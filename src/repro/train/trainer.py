"""The pairwise training loop (outer loop of the paper's Algorithm 1).

Each epoch shuffles the training pairs, forms mini-batches, provides the
score data each batch's sampler requests (one
:meth:`~repro.models.base.ScoreModel.scores_batch` block for
``FULL_BLOCK`` samplers; nothing for ``SPARSE``/``NONE`` — see
:class:`~repro.samplers.base.ScoreRequest`), dispatches one
:meth:`~repro.samplers.base.NegativeSampler.sample_batch` to pick one
negative per positive, and takes a BPR step.  ``batch_size=1`` reproduces
the paper's per-triple SGD for MF; larger batches vectorize the same
computation (the paper uses 128/1024 for LightGCN).

A one-row batch — every batch of the paper's ``batch_size=1`` SGD, and
an epoch's ragged final batch of one — skips the batch machinery: one
per-user ``scores`` call and one ``sample_for_user``, whose per-call
overhead is lower.  Both routes draw identical randomness (the samplers'
RNG-parity contract); they differ only in score rounding, because
``scores_batch`` is a BLAS gemm whose last-ulp rounding can differ from
the per-user gemv.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.samplers.base import NegativeSampler, ScoreRequest, group_batch_by_user
from repro.train.callbacks import Callback, EpochStats
from repro.train.early_stopping import StopTraining
from repro.train.optimizer import SGD, Optimizer
from repro.train.schedule import ConstantSchedule, Schedule
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["TrainingConfig", "Trainer"]

_LOGGER = get_logger("train.trainer")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one training run.

    Defaults follow the paper's MF setup: ``d=32`` (on the model),
    ``lr=0.01``, ``reg=0.01``, 100 epochs, batch size 1.  The batch size
    alone decides the sampling route: one-row batches sample per user,
    larger ones through ``sample_batch`` (see the module docstring).
    """

    epochs: int = 100
    batch_size: int = 1
    lr: float = 0.01
    reg: float = 0.01
    seed: Optional[int] = 0
    lr_schedule: Optional[Schedule] = None
    shuffle: bool = True

    def __post_init__(self) -> None:
        check_positive(self.epochs, "epochs")
        check_positive(self.batch_size, "batch_size")
        check_positive(self.lr, "lr")
        check_non_negative(self.reg, "reg")

    def resolve_lr_schedule(self) -> Schedule:
        """The LR schedule (constant at ``lr`` unless one was given)."""
        if self.lr_schedule is not None:
            return self.lr_schedule
        return ConstantSchedule(self.lr)


class Trainer:
    """Train a :class:`~repro.models.base.ScoreModel` with negative sampling.

    Parameters
    ----------
    model, dataset, sampler:
        The three participants; the sampler is bound to (dataset, model)
        with a generator spawned from ``config.seed``.
    config:
        Hyper-parameters.
    optimizer:
        Defaults to plain SGD at ``config.lr`` (the paper's MF choice);
        pass :class:`~repro.train.optimizer.Adam` for LightGCN.
    callbacks:
        Observers receiving :class:`EpochStats` after each epoch.
    """

    def __init__(
        self,
        model,
        dataset: ImplicitDataset,
        sampler: NegativeSampler,
        config: TrainingConfig = TrainingConfig(),
        *,
        optimizer: Optional[Optimizer] = None,
        callbacks: Sequence[Callback] = (),
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.sampler = sampler
        self.config = config
        self.optimizer = optimizer if optimizer is not None else SGD(config.lr)
        self.callbacks: List[Callback] = list(callbacks)
        self._rng = as_rng(config.seed)
        sampler.bind(dataset, model, self._rng)
        self.history: List[EpochStats] = []

    # ------------------------------------------------------------------ #

    def fit(self) -> List[EpochStats]:
        """Run the configured number of epochs; returns per-epoch stats."""
        users_all, pos_all = self.dataset.train.pairs()
        if users_all.size == 0:
            raise ValueError("cannot train on an empty training set")
        lr_schedule = self.config.resolve_lr_schedule()

        for callback in self.callbacks:
            callback.on_train_start(self)

        for epoch in range(self.config.epochs):
            started = time.perf_counter()
            self.optimizer.lr = lr_schedule.value(epoch)
            self.sampler.on_epoch_start(epoch)
            stats = self._run_epoch(epoch, users_all, pos_all, started)
            self.history.append(stats)
            try:
                for callback in self.callbacks:
                    callback.on_epoch_end(stats, self.model)
            except StopTraining as signal:
                _LOGGER.info("early stop after epoch %d: %s", epoch, signal)
                break
            _LOGGER.debug(
                "epoch %d: loss=%.4f info=%.4f (%.2fs)",
                epoch,
                stats.mean_loss,
                stats.mean_info,
                stats.duration_seconds,
            )

        for callback in self.callbacks:
            callback.on_train_end(self)
        return self.history

    # ------------------------------------------------------------------ #

    def _run_epoch(
        self,
        epoch: int,
        users_all: np.ndarray,
        pos_all: np.ndarray,
        started: float,
    ) -> EpochStats:
        n = users_all.size
        if self.config.shuffle:
            order = self._rng.permutation(n)
        else:
            order = np.arange(n)
        batch_size = self.config.batch_size

        neg_out = np.empty(n, dtype=np.int64)
        info_out = np.empty(n, dtype=np.float64)

        for start in range(0, n, batch_size):
            batch_idx = order[start : start + batch_size]
            batch_users = users_all[batch_idx]
            batch_pos = pos_all[batch_idx]
            batch_neg = self._sample_negatives(batch_users, batch_pos)
            info = self.model.train_step(
                batch_users, batch_pos, batch_neg, self.optimizer, self.config.reg
            )
            neg_out[start : start + batch_idx.size] = batch_neg
            info_out[start : start + batch_idx.size] = info

        # loss = −ln σ(diff) = −ln(1 − info); clip keeps info→1 finite.
        # One vectorized pass over the epoch's recorded info values instead
        # of a log + clip + sum allocation inside every mini-batch.
        mean_loss = float(np.mean(-np.log(np.clip(1.0 - info_out, 1e-12, None))))

        # Reorder the recorded triples back to epoch execution order
        # (they are already in execution order; users/pos follow `order`).
        return EpochStats(
            epoch=epoch,
            users=users_all[order],
            pos_items=pos_all[order],
            neg_items=neg_out,
            info=info_out,
            mean_loss=mean_loss,
            lr=self.optimizer.lr,
            duration_seconds=time.perf_counter() - started,
        )

    def _sample_negatives(
        self, batch_users: np.ndarray, batch_pos: np.ndarray
    ) -> np.ndarray:
        """One negative per (user, positive) for the whole mini-batch.

        Group the batch **once**, provide the score data the sampler's
        :class:`~repro.samplers.base.ScoreRequest` asks for — the unique
        users' score block in one ``scores_batch`` call for ``FULL_BLOCK``
        samplers, nothing for ``SPARSE``/``NONE`` samplers (sparse
        samplers gather-score only the item ids they touch) — and hand
        both to one ``sample_batch`` dispatch; the sampler reuses the
        precomputed :class:`~repro.samplers.base.BatchGroups` instead of
        re-deriving the grouping.  A one-row batch instead takes one
        per-user ``scores`` call and one ``sample_for_user``: there is
        nothing to group, and the per-call overhead is lower.
        """
        if batch_users.size == 1:
            user = int(batch_users[0])
            scores = None
            if self.sampler.score_request is ScoreRequest.FULL_BLOCK:
                scores = self.model.scores(user)
            negatives = np.empty(1, dtype=np.int64)
            negatives[0] = self.sampler.sample_for_user(user, batch_pos, scores)[0]
            return negatives
        groups = group_batch_by_user(batch_users)
        scores = None
        if self.sampler.score_request is ScoreRequest.FULL_BLOCK:
            scores = self.model.scores_batch(groups.unique_users)
        return self.sampler.sample_batch(
            batch_users, batch_pos, scores, groups=groups
        )
