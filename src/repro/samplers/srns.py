"""Simplified robust negative sampling (SRNS, Ding et al., NeurIPS 2020).

SRNS exploits the empirical observation that *true* negatives tend to show
higher variance of their predicted scores across training epochs, while
false negatives stay consistently high-scored.  It keeps a per-user memory
of candidate negatives, tracks their recent score history, and favours
candidates with high score (informative) **and** high variance (likely true
negative):

    select  argmax_j  score_j + α · std_j

over a random subset of the memory, then refreshes part of the memory with
fresh uniform candidates so the pool does not collapse.

This reproduction keeps SRNS's two signature components (variance
statistics + score-based selection with memory) and omits orthogonal
engineering details of the original release (e.g. separate positive
sampling); the paper's observation that the *linear averaging of score and
variance limits negative-classification power* applies to this version
identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.samplers.base import (
    BatchGroups,
    NegativeSampler,
    ScoreRequest,
    group_batch_by_user,
)
from repro.utils.validation import check_non_negative

__all__ = ["SRNSSampler"]


class SRNSSampler(NegativeSampler):
    """Variance-aware hard negative sampling with per-user memory.

    Parameters
    ----------
    memory_size:
        Candidates kept per user (the paper's S1).
    n_candidates:
        Random subset of memory considered per draw (the paper's S2).
    alpha:
        Weight of the score-variance term.
    history:
        Number of recent epochs over which variance is computed.
    refresh_fraction:
        Fraction of each user's memory replaced with fresh uniform
        negatives at every epoch start.
    """

    score_request = ScoreRequest.FULL_BLOCK
    name = "SRNS"

    def __init__(
        self,
        memory_size: int = 20,
        n_candidates: int = 5,
        alpha: float = 1.0,
        history: int = 5,
        refresh_fraction: float = 0.2,
    ) -> None:
        super().__init__()
        if memory_size < 1:
            raise ValueError(f"memory_size must be >= 1, got {memory_size}")
        if n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
        if not 0.0 <= refresh_fraction <= 1.0:
            raise ValueError(
                f"refresh_fraction must be in [0, 1], got {refresh_fraction}"
            )
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        self.memory_size = int(memory_size)
        self.n_candidates = int(min(n_candidates, memory_size))
        self.alpha = check_non_negative(alpha, "alpha")
        self.history = int(history)
        self.refresh_fraction = float(refresh_fraction)

    # ------------------------------------------------------------------ #

    def _on_bind(self) -> None:
        train = self.dataset.train
        n_users = self.dataset.n_users
        self._memory = np.zeros((n_users, self.memory_size), dtype=np.int64)
        self._score_history = np.zeros((n_users, self.memory_size, self.history))
        self._filled_epochs = 0
        # Each slot's score std over the filled history.  The history moves
        # only at epoch start, so the std is taken there, once per user,
        # instead of once per draw.
        self._std = np.zeros((n_users, self.memory_size))
        active = np.flatnonzero(train.user_activity)
        self._memory[active] = train.uniform_negatives_rows(
            active, self.memory_size, self.rng
        )

    def on_epoch_start(self, epoch: int) -> None:
        """Refresh part of each memory, push current scores into history
        and take the epoch's score std per slot."""
        train = self.dataset.train
        n_refresh = int(round(self.refresh_fraction * self.memory_size))
        for user in range(self.dataset.n_users):
            if train.degree_of(user) == 0:
                continue
            if n_refresh > 0:
                slots = self.rng.choice(self.memory_size, size=n_refresh, replace=False)
                fresh = self.uniform_negatives(user, n_refresh)
                self._memory[user, slots] = fresh
                self._score_history[user, slots, :] = 0.0
            scores = self.model.score_pairs(
                np.full(self.memory_size, user), self._memory[user]
            )
            self._score_history[user] = np.roll(self._score_history[user], -1, axis=1)
            self._score_history[user, :, -1] = scores
        self._filled_epochs = min(self._filled_epochs + 1, self.history)
        if self._filled_epochs >= 2:
            window = self._score_history[:, :, -self._filled_epochs :]
            for user in np.flatnonzero(train.user_activity).tolist():
                self._std[user] = window[user].std(axis=1)

    # ------------------------------------------------------------------ #

    def sample_for_user(
        self,
        user: int,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        n_pos = np.asarray(pos_items).size
        if n_pos == 0:
            return np.empty(0, dtype=np.int64)
        if scores is None:
            raise ValueError("SRNS requires the user's score vector")
        memory = self._memory[user]
        std = self._variance_std(user)
        slot_ids = self.rng.integers(
            self.memory_size, size=(n_pos, self.n_candidates)
        )
        candidate_items = memory[slot_ids]
        value = scores[candidate_items] + self.alpha * std[slot_ids]
        best = value.argmax(axis=1)
        return candidate_items[np.arange(n_pos), best]

    def sample_batch(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray] = None,
        *,
        groups: Optional[BatchGroups] = None,
    ) -> np.ndarray:
        """Batched SRNS: one value matrix and one argmax for the batch.

        Memory-slot draws stay grouped per sorted unique user (RNG-parity
        contract); the score-plus-variance selection runs once over the
        whole ``(B, n_candidates)`` candidate matrix.
        """
        users, pos_items = self._check_batch(users, pos_items)
        if users.size == 0:
            return np.empty(0, dtype=np.int64)
        if scores is None:
            raise ValueError("SRNS requires the batch score block")
        if groups is None:
            groups = group_batch_by_user(users)
        self._check_score_block(groups, scores)
        slot_ids = np.empty((users.size, self.n_candidates), dtype=np.int64)
        for _, _, row_idx in groups.iter_groups():
            slot_ids[row_idx] = self.rng.integers(
                self.memory_size, size=(row_idx.size, self.n_candidates)
            )
        std_block = self._std[groups.unique_users]
        row_arange = np.arange(users.size)
        candidate_items = self._memory[groups.unique_users[groups.rows][:, None], slot_ids]
        value = (
            scores[groups.rows[:, None], candidate_items]
            + self.alpha * std_block[groups.rows[:, None], slot_ids]
        )
        best = value.argmax(axis=1)
        return candidate_items[row_arange, best]

    def _variance_std(self, user: int) -> np.ndarray:
        """Score std over the filled portion of the history window (zero
        until two epochs have filled it)."""
        return self._std[user]
