"""Random negative sampling (RNS) — the BPR default baseline.

Uniformly samples one un-interacted item per positive (Rendle et al.,
UAI 2009).  Static distribution, no model information; the paper's Fig. 4
shows its TNR hovers at the base rate of true negatives among unlabeled
items.
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

__all__ = ["RandomNegativeSampler"]


class RandomNegativeSampler(NegativeSampler):
    """Uniform sampling over :math:`I^-_u`."""

    score_request = ScoreRequest.NONE
    name = "RNS"

    def sample_for_user(
        self,
        user: int,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        return self.uniform_negatives(user, np.asarray(pos_items).size)

    def sample_batch(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray] = None,
        *,
        groups: Optional[BatchGroups] = None,
    ) -> np.ndarray:
        """Batched uniform sampling.

        RNS has no per-candidate math to vectorize — the whole cost *is*
        the draws, which the RNG-parity contract pins to sorted-unique-user
        order — so this is the shared rejection core minus the per-row
        ``sample_for_user`` dispatch.
        """
        users, pos_items = self._check_batch(users, pos_items)
        if users.size == 0:
            return np.empty(0, dtype=np.int64)
        if groups is None:
            groups = group_batch_by_user(users)
        return self.candidate_matrix_batch(groups, 1)[:, 0]

    def sample_in_order(self, users: np.ndarray, pos_items: np.ndarray) -> np.ndarray:
        """The one-row draws in row order, as one ``rng.random(n)`` call.

        Each one-row ``sample_for_user`` call is one ``random(1)`` draw,
        and ``Generator.random`` is split-invariant, so one draw of ``n``
        against the negative table gives the same negatives and leaves
        the same generator state.  Falls back to the per-row loop when
        the table does not fit the dataset's cache budget.
        """
        if not self.dataset.train.supports_negative_table():
            return super().sample_in_order(users, pos_items)
        users, _ = self._check_batch(users, pos_items)
        return self._table_draws(users, 1)[:, 0]
