"""Adaptive oversampling for BPR (AOBPR, Rendle & Freudenthaler, WSDM 2014).

Samples a *rank* from the heavy-head distribution ``p(r) ∝ exp(−r/λ_rank)``
and returns the item at that rank in the user's current score ordering —
i.e. it oversamples globally high-ranked (hard) negatives.  The paper shows
this greedy global strategy has the worst false-negative bias of all
baselines (Fig. 4): the head of the ranking is precisely where false
negatives concentrate.

Implementation note: the original paper amortizes ranking with lazy
rank estimates; at the scale of this reproduction we compute the exact
ordering per (user, batch), which preserves the sampling distribution.
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
from repro.utils.validation import check_positive

__all__ = ["AOBPRSampler"]


class AOBPRSampler(NegativeSampler):
    """Rank-geometric oversampling of high-scored negatives."""

    score_request = ScoreRequest.FULL_BLOCK
    name = "AOBPR"

    def __init__(self, rank_lambda: float = 30.0) -> None:
        super().__init__()
        self._rank_lambda = check_positive(rank_lambda, "rank_lambda")
        # Past 2**53, q = exp(-1/λ) cannot get closer to 1 than 1 - 2**-53,
        # and from about 2.2e16 it rounds to 1.0: log(q) is 0, every rank
        # is NaN, and the clamp turns them all into rank 0.
        if self._rank_lambda > 2.0**53:
            raise ValueError(
                f"rank_lambda must be <= 2**53 (about 9.0e15), got {rank_lambda!r}"
            )
        # q and log q, which every rank draw reads, computed once.
        self._q = np.exp(-1.0 / self._rank_lambda)
        self._log_q = np.log(self._q)

    @property
    def rank_lambda(self) -> float:
        """Scale of the rank distribution; smaller = greedier toward rank 0."""
        return self._rank_lambda

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
            raise ValueError("AOBPR requires the user's score vector")
        negatives = self.dataset.train.negative_items(user)
        if negatives.size == 0:
            raise ValueError(f"user {user} has no un-interacted items to sample")
        # Descending score order of the un-interacted items.
        order = negatives[(-scores[negatives]).argsort(kind="stable")]
        ranks = self._sample_ranks(order.size, n_pos)
        return order[ranks]

    def sample_batch(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray] = None,
        *,
        groups: Optional[BatchGroups] = None,
    ) -> np.ndarray:
        """Batched AOBPR: one descending argsort for every unique user.

        The block is negated in place (``sample_batch`` owns it) and its
        positives set to NaN, which sorts after every number, ``+inf``
        included (a negative scored ``-inf``), so one stable ``(U,
        n_items)`` argsort leaves each row's first ``n_negatives`` entries
        exactly equal to the scalar path's per-user negative ordering
        (stability preserves ascending item-id order among score ties in
        both).  Rank
        draws reuse :meth:`_sample_ranks` per sorted unique user, keeping
        the RNG-parity contract.
        """
        users, pos_items = self._check_batch(users, pos_items)
        if users.size == 0:
            return np.empty(0, dtype=np.int64)
        if scores is None:
            raise ValueError("AOBPR requires the batch score block")
        if groups is None:
            groups = group_batch_by_user(users)
        self._check_score_block(groups, scores)
        train = self.dataset.train
        rows, cols = train.positives_in_rows(groups.unique_users)
        np.negative(scores, out=scores)
        scores[rows, cols] = np.nan
        order_desc = np.argsort(scores, axis=1, kind="stable")
        n_negatives = train.n_items - train.degrees_of(groups.unique_users)
        out = np.empty(users.size, dtype=np.int64)
        for group, user, row_idx in groups.iter_groups():
            if n_negatives[group] == 0:
                raise ValueError(
                    f"user {user} has no un-interacted items to sample"
                )
            ranks = self._sample_ranks(int(n_negatives[group]), row_idx.size)
            out[row_idx] = order_desc[group, ranks]
        return out

    def _sample_ranks(self, n_negatives: int, n_draws: int) -> np.ndarray:
        """Draw ranks from the truncated geometric ``p(r) ∝ q^r``.

        With ``q = exp(−1/λ_rank)`` the inverse-CDF for the truncation to
        ``r < K`` is ``floor(log(1 − u(1 − q^K)) / log q)``.
        """
        u = self.rng.random(n_draws)
        truncation = 1.0 - self._q**n_negatives
        ranks = np.floor(np.log1p(-u * truncation) / self._log_q).astype(np.int64)
        return np.minimum(np.maximum(ranks, 0), n_negatives - 1)
