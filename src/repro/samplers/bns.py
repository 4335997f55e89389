"""Bayesian negative sampling — the paper's Algorithm 1.

For each training pair ``(u, i)``:

1. draw a uniform candidate set ``M_u ⊆ I⁻_u`` of size ``m``;
2. for each candidate ``l`` compute
   * ``info(l) = 1 − σ(x̂_ui − x̂_ul)``            (Eq. 4, likelihood-side),
   * ``P_fn(l)``                                   (Eq. 17 prior, pluggable),
   * ``F(x̂_l)`` — empirical CDF of the candidate's score among the user's
     un-interacted scores                          (Eq. 16, pluggable
     estimator — see :mod:`repro.samplers.cdf`),
   * ``unbias(l)``                                 (Eq. 15, posterior);
3. return ``argmin_l info(l)·[1 − (1+λ)·unbias(l)]``  (Eq. 32).

Complexity per user per batch depends on the CDF estimator: the default
:class:`~repro.samplers.cdf.ExactCDF` pays one ``O(n_items log n_items)``
sort of the negative score vector on top of the trainer's ``O(n_items·d)``
score block — the linear-time budget claimed in §III-D — while the
sub-linear estimators (``SubsampledCDF``/``CachedCDF``) run the whole
pipeline in ``ScoreRequest.SPARSE`` mode: only candidates ∪ positives ∪
the CDF subsample are ever scored, ``O((m+s)·d + s log s)`` per triple,
independent of the catalogue size.

:class:`PosteriorOnlySampler` runs the same pipeline and replaces only
step 3 with the pure posterior criterion ``argmax_l unbias(l)`` (Eq. 35),
which Fig. 4 contrasts with the full risk rule: it maximizes
unbiasedness but ignores informativeness.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.risk import conditional_sampling_risk
from repro.core.unbiasedness import unbias
from repro.samplers.base import (
    BatchGroups,
    NegativeSampler,
    ScoreRequest,
    group_batch_by_user,
)
from repro.samplers.cdf import CDFLike, make_cdf
from repro.samplers.priors import PopularityPrior, Prior
from repro.train.loss import informativeness
from repro.train.schedule import ConstantSchedule, Schedule

__all__ = ["BayesianNegativeSampler", "PosteriorOnlySampler"]


class BayesianNegativeSampler(NegativeSampler):
    """Risk-minimizing Bayesian sampler (Eq. 32).

    Parameters
    ----------
    n_candidates:
        Candidate-set size ``|M_u|`` (paper default 5); ``None`` means the
        full candidate set ``M_u = I⁻_u`` — the optimal sampler h* of
        Theorem 0.1 / Table IV.
    weight:
        Trade-off λ — a float for a fixed value (paper default 5) or any
        :class:`~repro.train.schedule.Schedule` (e.g. ``WarmStartLambda``
        for the BNS-1 variant).
    prior:
        A :class:`~repro.samplers.priors.Prior`; default is the paper's
        popularity prior (Eq. 17).
    cdf:
        Empirical-CDF estimator for Eq. 16 — ``None``/``"exact"`` for the
        reference behaviour, ``"subsampled[:s]"`` or ``"cached[:T]"`` (or
        a :class:`~repro.samplers.cdf.CDFEstimator` instance) for the
        sub-linear sparse-scoring modes.

    Both entry points run Algorithm 1 the same way: draw the candidates,
    gather the positive and candidate scores (from the score row or
    block, or by pair and gather scoring in ``SPARSE`` mode), ask the
    estimator for ``F̂`` at the candidate scores, apply the prior and the
    posterior, and let :meth:`_select` pick one candidate per row.
    """

    score_request = ScoreRequest.FULL_BLOCK
    name = "BNS"

    def __init__(
        self,
        n_candidates: Optional[int] = 5,
        weight: Union[float, Schedule] = 5.0,
        prior: Optional[Prior] = None,
        cdf: CDFLike = None,
    ) -> None:
        super().__init__()
        if n_candidates is not None and n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1 or None, got {n_candidates}")
        self.n_candidates = None if n_candidates is None else int(n_candidates)
        self.prior = prior if prior is not None else PopularityPrior()
        self.cdf = make_cdf(cdf)
        if (
            self.n_candidates is None
            and self.cdf.score_request is ScoreRequest.SPARSE
        ):
            # The full candidate set scores every item anyway — O(n_items)
            # is inherent, a sparse estimator buys nothing and the gather
            # path would cost n_pos× an exact score row.  Refuse rather
            # than silently run slower than exact mode.
            raise ValueError(
                "n_candidates=None (the full candidate set) is inherently "
                "O(n_items) and requires the exact CDF; use cdf='exact' or "
                "a finite candidate set with a sparse estimator"
            )
        # Shadow the FULL_BLOCK ClassVar: the estimator decides whether the
        # trainer materializes a score block or this sampler self-scores.
        self.score_request = self.cdf.score_request
        if isinstance(weight, Schedule):
            self.weight_schedule: Schedule = weight
        else:
            if weight < 0:
                raise ValueError(f"weight must be >= 0, got {weight}")
            self.weight_schedule = ConstantSchedule(float(weight))
        self._current_weight = self.weight_schedule.value(0)

    # ------------------------------------------------------------------ #

    def _on_bind(self) -> None:
        self.prior.bind(self.dataset)
        self.cdf.bind(self)

    def on_epoch_start(self, epoch: int) -> None:
        self._current_weight = self.weight_schedule.value(epoch)
        self.cdf.on_epoch_start(epoch)

    # ------------------------------------------------------------------ #

    def sample_for_user(
        self,
        user: int,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        pos_items = np.asarray(pos_items, dtype=np.int64).ravel()
        if pos_items.size == 0:
            return np.empty(0, dtype=np.int64)
        if scores is None and self.score_request is ScoreRequest.FULL_BLOCK:
            raise ValueError(f"{type(self).__name__} requires the user's score vector")
        self.cdf.advance()
        if self.n_candidates is not None:
            candidates = self.candidate_matrix(user, pos_items.size, self.n_candidates)
        else:
            negatives = self.dataset.train.negative_items(user)
            if negatives.size == 0:
                raise ValueError(f"user {user} has no un-interacted items to sample")
            candidates = np.broadcast_to(negatives, (pos_items.size, negatives.size))
        if scores is not None:
            pos_scores, candidate_scores = scores[pos_items], scores[candidates]
        else:
            users = np.full(pos_items.size, user, dtype=np.int64)
            pos_scores = self.model.score_pairs(users, pos_items)
            candidate_scores = self.model.score_items_batch(users, candidates)
        cdf_values = self.cdf.cdf_for_user(self, user, candidate_scores, scores)
        unbias_values = unbias(cdf_values, self.prior.fn_prob(user, candidates))
        best = self._select(pos_scores, candidate_scores, unbias_values)
        return candidates[np.arange(pos_items.size), best]

    def sample_batch(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray] = None,
        *,
        groups: Optional[BatchGroups] = None,
    ) -> np.ndarray:
        """Vectorized Algorithm 1 for a whole mini-batch.

        One candidate matrix (draws grouped per sorted unique user — the
        RNG-parity contract), one batched empirical-CDF estimate, one
        :meth:`_select` over all ``B × m`` candidates, all elementwise, so
        each row equals :meth:`sample_for_user` bit for bit given the same
        scores.  Positive and candidate scores are gathered before the
        estimate, which may sort the block's rows in place.  The
        full-candidate-set mode (``n_candidates=None``) has variable-width
        rows, so it keeps the per-user fallback (which still reuses the
        shared score block and the caller's grouping).
        """
        users, pos_items = self._check_batch(users, pos_items)
        if users.size == 0:
            return np.empty(0, dtype=np.int64)
        if groups is None:
            groups = group_batch_by_user(users)
        if self.n_candidates is None:
            return super().sample_batch(users, pos_items, scores, groups=groups)
        self._check_score_block(groups, scores)
        self.cdf.advance()
        candidates = self.candidate_matrix_batch(groups, self.n_candidates)
        batch_users = groups.unique_users[groups.rows]
        if scores is not None:
            pos_scores = scores[groups.rows, pos_items]
            candidate_scores = scores[groups.rows[:, None], candidates]
        else:
            pos_scores = self.model.score_pairs(batch_users, pos_items)
            candidate_scores = self.model.score_items_batch(batch_users, candidates)
        cdf_values = self.cdf.cdf_for_batch(self, groups, candidate_scores, scores)
        unbias_values = unbias(cdf_values, self.prior.fn_prob(batch_users, candidates))
        best = self._select(pos_scores, candidate_scores, unbias_values)
        return candidates[np.arange(users.size), best]

    def _select(
        self,
        pos_scores: np.ndarray,
        candidate_scores: np.ndarray,
        unbias_values: np.ndarray,
    ) -> np.ndarray:
        """Each row's chosen candidate column: Eq. 32's risk argmin."""
        info = informativeness(pos_scores[:, None], candidate_scores)
        risk = conditional_sampling_risk(info, unbias_values, self._current_weight)
        return risk.argmin(axis=1)


class PosteriorOnlySampler(BayesianNegativeSampler):
    """Pure posterior criterion (Eq. 35): ``argmax_l unbias(l)``.

    Selects the most-likely-true negative regardless of informativeness;
    used by the sampling-quality study (Fig. 4) to isolate the posterior's
    classification power.  Runs :class:`BayesianNegativeSampler`'s
    pipeline with the same ``cdf=`` estimators and takes no ``weight``:
    only the final selection differs.
    """

    name = "BNS-posterior"

    def __init__(
        self,
        n_candidates: Optional[int] = 5,
        prior: Optional[Prior] = None,
        cdf: CDFLike = None,
    ) -> None:
        super().__init__(n_candidates, prior=prior, cdf=cdf)

    def _select(self, pos_scores, candidate_scores, unbias_values):
        """Each row's chosen candidate column: Eq. 35's posterior argmax."""
        return unbias_values.argmax(axis=1)
