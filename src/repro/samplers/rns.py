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
        """The one-row draws in row order, as one ``uniform_negatives_rows``.

        Each one-row ``sample_for_user`` call is one ``uniform_negatives``
        draw of 1, which is the matching row of the dataset's
        ``uniform_negatives_rows(users, 1)`` — same negatives, same
        generator state after.
        """
        users, _ = self._check_batch(users, pos_items)
        return self.dataset.train.uniform_negatives_rows(users, 1, self.rng)[:, 0]
