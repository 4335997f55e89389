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

Waves.  At ``batch_size=1`` two more facts can hold, and the trainer
checks both every epoch (``bns-2`` switches samplers between epochs):
the sampler's request is ``NONE``, so it never reads the model, and the
model declares :attr:`~repro.models.base.ScoreModel.row_local_step`, so
triples that share no user and no item row commute.  Then the epoch's
negatives are drawn up front, in execution order, from the same
generator (:meth:`~repro.samplers.base.NegativeSampler.sample_in_order`),
the epoch is cut into maximal conflict-free runs
(:func:`conflict_free_runs`), and each run is one ``train_step``.  The
parameters, ``info`` and negatives equal the one-triple steps bit for
bit; only the number of ``train_step`` calls changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.samplers.base import NegativeSampler, ScoreRequest, group_batch_by_user
from repro.train.callbacks import Callback, EpochStats
from repro.train.optimizer import SGD, Optimizer
from repro.train.schedule import ConstantSchedule, Schedule
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["TrainingConfig", "Trainer", "TrainingDivergedError", "conflict_free_runs"]

_LOGGER = get_logger("train.trainer")


class TrainingDivergedError(FloatingPointError):
    """An epoch ended with a non-finite mean BPR loss.

    A diverged model still ranks items, so its metrics would read as an
    ordinary result; the trainer raises this instead of returning it.
    """


def conflict_free_runs(
    users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
) -> List[int]:
    """Cut ``n ≥ 1`` triples into maximal runs that share no row.

    Returns the boundaries ``[0, b_1, …, n]``: run ``r`` is the triples
    ``bounds[r]:bounds[r + 1]``.  No two triples of a run share a user or
    an item (positives and negatives together), and the triple after a
    run shares one with it.  One Python pass over the epoch.
    """
    bounds = [0]
    seen_users: set = set()
    seen_items: set = set()
    triples = zip(users.tolist(), pos_items.tolist(), neg_items.tolist())
    for row, (user, pos, neg) in enumerate(triples):
        if user in seen_users or pos in seen_items or neg in seen_items:
            bounds.append(row)
            seen_users.clear()
            seen_items.clear()
        seen_users.add(user)
        seen_items.add(pos)
        seen_items.add(neg)
    bounds.append(len(users))
    return bounds


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one training run.

    Defaults follow the paper's MF setup: ``d=32`` (on the model),
    ``lr=0.01``, ``reg=0.01``, 100 epochs, batch size 1.  The batch size,
    the sampler's score request and the model's row-locality decide the
    route: at batch size 1, a ``NONE`` sampler with a row-local model
    trains in conflict-free waves and every other pair samples per user;
    larger batches go through ``sample_batch`` (see the module
    docstring).  Every route computes the same per-triple SGD.
    """

    epochs: int = 100
    batch_size: int = 1
    lr: float = 0.01
    reg: float = 0.01
    seed: Optional[int] = 0
    lr_schedule: Optional[Schedule] = None

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
        """Run the configured number of epochs; returns per-epoch stats.

        Raises :class:`TrainingDivergedError` after the first epoch whose
        mean loss is not finite.
        """
        users_all, pos_all = self.dataset.train.pairs()
        if users_all.size == 0:
            raise ValueError("cannot train on an empty training set")
        lr_schedule = self.config.resolve_lr_schedule()

        for epoch in range(self.config.epochs):
            started = time.perf_counter()
            self.optimizer.lr = lr_schedule.value(epoch)
            self.sampler.on_epoch_start(epoch)
            stats = self._run_epoch(epoch, users_all, pos_all, started)
            # A NaN anywhere in the epoch's info makes the mean NaN.
            if not np.isfinite(stats.mean_loss):
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}: mean loss is "
                    f"{stats.mean_loss}"
                )
            self.history.append(stats)
            for callback in self.callbacks:
                callback.on_epoch_end(stats, self.model)
            _LOGGER.debug(
                "epoch %d: loss=%.4f info=%.4f (%.2fs)",
                epoch,
                stats.mean_loss,
                stats.mean_info,
                stats.duration_seconds,
            )
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
        order = self._rng.permutation(n)
        batch_size = self.config.batch_size

        # The epoch's pairs in execution order, gathered once: every batch
        # is a slice view of them, and EpochStats keeps them.  Read-only,
        # so a model or sampler writing into its batch raises instead of
        # corrupting the recorded triples.
        users = users_all[order]
        pos_items = pos_all[order]
        users.flags.writeable = False
        pos_items.flags.writeable = False
        info_out = np.empty(n, dtype=np.float64)

        # The waves route (module docstring), re-checked every epoch.  Its
        # negatives are read-only for the same reason as the pairs.
        if (
            batch_size == 1
            and self.sampler.score_request is ScoreRequest.NONE
            and getattr(self.model, "row_local_step", False)
        ):
            neg_out = self.sampler.sample_in_order(users, pos_items)
            neg_out.flags.writeable = False
            bounds = conflict_free_runs(users, pos_items, neg_out)
            for start, stop in zip(bounds[:-1], bounds[1:]):
                info_out[start:stop] = self.model.train_step(
                    users[start:stop],
                    pos_items[start:stop],
                    neg_out[start:stop],
                    self.optimizer,
                    self.config.reg,
                )
        else:
            neg_out = np.empty(n, dtype=np.int64)
            for start in range(0, n, batch_size):
                stop = start + batch_size
                batch_users = users[start:stop]
                batch_pos = pos_items[start:stop]
                batch_neg = self._sample_negatives(batch_users, batch_pos)
                info = self.model.train_step(
                    batch_users, batch_pos, batch_neg, self.optimizer, self.config.reg
                )
                neg_out[start:stop] = batch_neg
                info_out[start:stop] = info

        # loss = −ln σ(diff) = −ln(1 − info); clip keeps info→1 finite.
        # One vectorized pass over the epoch's recorded info values instead
        # of a log + clip + sum allocation inside every mini-batch.
        mean_loss = float(np.mean(-np.log(np.clip(1.0 - info_out, 1e-12, None))))

        return EpochStats(
            epoch=epoch,
            users=users,
            pos_items=pos_items,
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
        re-deriving the grouping.  The block is fresh per batch (the
        ``scores_batch`` contract) and is never read again here, so it
        is handed over: the sampler may sort or negate it in place
        instead of copying it.  A one-row batch instead takes one
        per-user ``scores`` call and one ``sample_for_user``: there is
        nothing to group, and the per-call overhead is lower.
        """
        if batch_users.size == 1:
            user = int(batch_users[0])
            scores = None
            if self.sampler.score_request is ScoreRequest.FULL_BLOCK:
                scores = self.model.scores(user)
            return self.sampler.sample_for_user(user, batch_pos, scores)
        groups = group_batch_by_user(batch_users)
        scores = None
        if self.sampler.score_request is ScoreRequest.FULL_BLOCK:
            scores = self.model.scores_batch(groups.unique_users)
        return self.sampler.sample_batch(
            batch_users, batch_pos, scores, groups=groups
        )
