"""Popularity-biased negative sampling (PNS).

Samples negatives from a fixed distribution proportional to item
interaction frequency raised to 0.75 — the word2vec unigram trick (Mikolov
et al., 2013) carried over to recommendation.  The paper finds it *under*-
performs RNS: popular un-interacted items are disproportionately likely to
be false negatives, so oversampling them injects exactly the bias BNS is
designed to avoid.

Corner case: a user whose un-interacted items hold zero (or negligible,
below 1e-6) total popularity mass is effectively unreachable by the
popularity distribution; rejection sampling would spin forever (or need
~1/mass draws per accept).  Such users fall back to uniform sampling over
:math:`I^-_u`, the only distribution the data meaningfully supports for
them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.popularity import popularity_distribution
from repro.samplers.base import NegativeSampler, ScoreRequest
from repro.utils.validation import check_non_negative

__all__ = ["PopularityNegativeSampler"]


class PopularityNegativeSampler(NegativeSampler):  # repro: noqa[R004] -- rejection loop vectorizes poorly; the inherited grouped fallback is parity-tested (see note below sample_for_user)
    """Static sampling with ``p(j) ∝ pop_j^exponent`` (default 0.75)."""

    score_request = ScoreRequest.NONE
    name = "PNS"

    def __init__(self, exponent: float = 0.75) -> None:
        super().__init__()
        self.exponent = check_non_negative(exponent, "exponent")

    def _on_bind(self) -> None:
        self._distribution = popularity_distribution(
            self.dataset.train, self.exponent
        )
        # Inverse-CDF sampling: cumulative weights once, O(log n) per draw.
        self._cumulative = np.cumsum(self._distribution)
        # Guard against floating drift on the last bin.
        self._cumulative[-1] = 1.0
        # Which users the popularity distribution cannot reach (module
        # docstring): their positives hold all but 1e-6 of its mass.  The
        # mass is fixed after bind, so it is summed once per user here.
        train = self.dataset.train
        self._uniform_fallback = np.array(
            [
                1.0 - float(self._distribution[train.items_of(user)].sum()) <= 1e-6
                for user in range(self.dataset.n_users)
            ]
        )

    def sample_for_user(
        self,
        user: int,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        n = np.asarray(pos_items).size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return self._draw_for_user(user, n)

    # No sample_batch override: PNS's cost is the per-user rejection draws
    # themselves, which the RNG-parity contract pins to sorted-unique-user
    # order, so the inherited grouped fallback is already optimal (the
    # distribution work — weights, cumulative sums — is global and shared).

    # ------------------------------------------------------------------ #

    def _draw_for_user(self, user: int, n: int) -> np.ndarray:
        """``n`` popularity-distributed negatives for one user."""
        # Rejection sampling against the popularity CDF needs an expected
        # ~1/mass draws per accepted negative, so negligible reachable mass
        # — not just exactly zero — means the loop would effectively hang;
        # those users fall back to the uniform distribution.
        if self._uniform_fallback[user]:
            return self.uniform_negatives(user, n)
        positives = self.dataset.train.items_of(user)
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            need = n - filled
            draws = self._cumulative.searchsorted(
                self.rng.random(max(need * 2, 8)), side="right"
            )
            pos = positives.searchsorted(draws)
            is_positive = (pos < positives.size) & (
                positives[np.minimum(pos, positives.size - 1)] == draws
            )
            accepted = draws[~is_positive][:need]
            out[filled : filled + accepted.size] = accepted
            filled += accepted.size
        return out
