"""Dynamic negative sampling (DNS, Zhang et al., SIGIR 2013).

For each positive, draw ``M`` uniform candidates from the un-interacted
items and keep the one the current model scores highest — a *relative*
hard-negative strategy.  The paper singles DNS out as the strongest
baseline: restricting hardness to a small random candidate set implicitly
balances informativeness against false-negative risk, and with a
non-informative prior BNS provably degenerates to exactly this rule
(§IV-C2, BNS-3).
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

__all__ = ["DynamicNegativeSampler"]


class DynamicNegativeSampler(NegativeSampler):
    """Max-score among ``n_candidates`` uniform negatives."""

    score_request = ScoreRequest.FULL_BLOCK
    name = "DNS"

    def __init__(self, n_candidates: int = 5) -> None:
        super().__init__()
        if n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
        self.n_candidates = int(n_candidates)

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
            raise ValueError("DNS requires the user's score vector")
        candidates = self.candidate_matrix(user, n_pos, self.n_candidates)
        best = scores[candidates].argmax(axis=1)
        return candidates[np.arange(n_pos), best]

    def sample_batch(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray] = None,
        *,
        groups: Optional[BatchGroups] = None,
    ) -> np.ndarray:
        """Vectorized DNS: one candidate matrix, one argmax for the batch.

        Candidate draws stay grouped per sorted unique user (RNG-parity
        contract); scoring and selection run once over the ``(B, m)``
        candidate matrix against the unique-user score block.
        """
        users, pos_items = self._check_batch(users, pos_items)
        if users.size == 0:
            return np.empty(0, dtype=np.int64)
        if groups is None:
            groups = group_batch_by_user(users)
        self._check_score_block(groups, scores)
        candidates = self.candidate_matrix_batch(groups, self.n_candidates)
        candidate_scores = scores[groups.rows[:, None], candidates]
        best = candidate_scores.argmax(axis=1)
        return candidates[np.arange(users.size), best]
