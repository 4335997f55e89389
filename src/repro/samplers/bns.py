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

:class:`PosteriorOnlySampler` implements the pure posterior criterion
``argmax_l unbias(l)`` (Eq. 35), which Fig. 4 contrasts with the full risk
rule: it maximizes unbiasedness but ignores informativeness.
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


class _CandidatePosterior:
    """Shared machinery: candidate sets with F, prior and posterior values."""

    def _setup(
        self,
        n_candidates: Optional[int],
        prior: Optional[Prior],
        cdf: CDFLike = None,
    ) -> None:
        if n_candidates is not None and n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1 or None, got {n_candidates}")
        #: ``None`` means the *full* candidate set M_u = I⁻_u — the optimal
        #: sampler h* of Theorem 0.1 / Table IV.
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

    def _candidates_for(
        self, sampler: NegativeSampler, user: int, n_pos: int
    ) -> np.ndarray:
        """An ``(n_pos, m)`` candidate matrix (uniform draws or full I⁻_u)."""
        if self.n_candidates is not None:
            return sampler.candidate_matrix(user, n_pos, self.n_candidates)
        negatives = sampler.dataset.train.negative_items(user)
        if negatives.size == 0:
            raise ValueError(f"user {user} has no un-interacted items to sample")
        return np.broadcast_to(negatives, (n_pos, negatives.size))

    def _bind_members(self, sampler: NegativeSampler) -> None:
        self.prior.bind(sampler.dataset)
        self.cdf.bind(sampler)

    def _posterior_for_candidates(
        self,
        sampler: NegativeSampler,
        user: int,
        candidates: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> tuple:
        """Per-candidate ``(scores, F, unbias)`` for an ``(n_pos, m)`` set."""
        candidate_scores, cdf_values = self.cdf.cdf_for_user(
            sampler, user, candidates, scores
        )
        prior_fn = self.prior.fn_prob(user, candidates)
        return candidate_scores, cdf_values, unbias(cdf_values, prior_fn)

    def _posterior_for_batch(
        self,
        sampler: NegativeSampler,
        groups: BatchGroups,
        candidates: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> tuple:
        """Batched ``(scores, F, unbias)`` for a ``(B, m)`` candidate set.

        The estimator builds every unique user's empirical CDF (Eq. 16)
        and ranks that user's candidates in it; the prior and posterior
        (Eq. 15/17) are one vectorized pass over the whole candidate
        matrix.  All elementwise, so bitwise identical to
        :meth:`_posterior_for_candidates` per row.
        """
        users = groups.unique_users[groups.rows]
        candidate_scores, cdf_values = self.cdf.cdf_for_batch(
            sampler, groups, candidates, scores
        )
        prior_fn = self.prior.fn_prob(users, candidates)
        return candidate_scores, cdf_values, unbias(cdf_values, prior_fn)

    def _positive_scores_user(
        self,
        sampler: NegativeSampler,
        user: int,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        """``x̂_ui`` per positive: row gather, or pair scoring in sparse mode."""
        if scores is not None:
            return scores[pos_items]
        users = np.full(pos_items.size, user, dtype=np.int64)
        return sampler.model.score_pairs(users, pos_items)

    def _positive_scores_batch(
        self,
        sampler: NegativeSampler,
        groups: BatchGroups,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        if scores is not None:
            return scores[groups.rows, pos_items]
        users = groups.unique_users[groups.rows]
        return sampler.model.score_pairs(users, pos_items)

    def _require_scores(self, scores: Optional[np.ndarray], what: str) -> None:
        if scores is None and self.score_request is ScoreRequest.FULL_BLOCK:
            raise ValueError(f"{type(self).__name__} requires {what}")


class BayesianNegativeSampler(NegativeSampler, _CandidatePosterior):
    """Risk-minimizing Bayesian sampler (Eq. 32).

    Parameters
    ----------
    n_candidates:
        Candidate-set size ``|M_u|`` (paper default 5).
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
        self._setup(n_candidates, prior, cdf)
        if isinstance(weight, Schedule):
            self.weight_schedule: Schedule = weight
        else:
            if weight < 0:
                raise ValueError(f"weight must be >= 0, got {weight}")
            self.weight_schedule = ConstantSchedule(float(weight))
        self._current_weight = self.weight_schedule.value(0)

    # ------------------------------------------------------------------ #

    def _on_bind(self) -> None:
        self._bind_members(self)

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
        self._require_scores(scores, "the user's score vector")
        self.cdf.advance()
        candidates = self._candidates_for(self, user, pos_items.size)
        candidate_scores, _, unbias_values = self._posterior_for_candidates(
            self, user, candidates, scores
        )
        pos_scores = self._positive_scores_user(self, user, pos_items, scores)
        info = informativeness(pos_scores[:, None], candidate_scores)
        risk = conditional_sampling_risk(info, unbias_values, self._current_weight)
        best = np.argmin(risk, axis=1)
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
        risk argmin over all ``B × m`` candidates.  Positive scores are
        gathered before the estimate, which may sort the block's rows in
        place.  The full-candidate-set mode (``n_candidates=None``) has
        variable-width rows, so it keeps the per-user fallback (which
        still reuses the shared score block and the caller's grouping).
        """
        users, pos_items = self._check_batch(users, pos_items)
        if users.size == 0:
            return np.empty(0, dtype=np.int64)
        self._require_scores(scores, "the batch score block")
        if groups is None:
            groups = group_batch_by_user(users)
        if self.n_candidates is None:
            return super().sample_batch(users, pos_items, scores, groups=groups)
        self._check_score_block(groups, scores)
        self.cdf.advance()
        candidates = self.candidate_matrix_batch(groups, self.n_candidates)
        pos_scores = self._positive_scores_batch(self, groups, pos_items, scores)
        candidate_scores, _, unbias_values = self._posterior_for_batch(
            self, groups, candidates, scores
        )
        info = informativeness(pos_scores[:, None], candidate_scores)
        risk = conditional_sampling_risk(info, unbias_values, self._current_weight)
        best = np.argmin(risk, axis=1)
        return candidates[np.arange(users.size), best]


class PosteriorOnlySampler(NegativeSampler, _CandidatePosterior):
    """Pure posterior criterion (Eq. 35): ``argmax_l unbias(l)``.

    Selects the most-likely-true negative regardless of informativeness;
    used by the sampling-quality study (Fig. 4) to isolate the posterior's
    classification power.  Accepts the same ``cdf=`` estimators as
    :class:`BayesianNegativeSampler`.
    """

    score_request = ScoreRequest.FULL_BLOCK
    name = "BNS-posterior"

    def __init__(
        self,
        n_candidates: Optional[int] = 5,
        prior: Optional[Prior] = None,
        cdf: CDFLike = None,
    ) -> None:
        super().__init__()
        self._setup(n_candidates, prior, cdf)

    def _on_bind(self) -> None:
        self._bind_members(self)

    def on_epoch_start(self, epoch: int) -> None:
        self.cdf.on_epoch_start(epoch)

    def sample_for_user(
        self,
        user: int,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        pos_items = np.asarray(pos_items, dtype=np.int64).ravel()
        if pos_items.size == 0:
            return np.empty(0, dtype=np.int64)
        self._require_scores(scores, "the user's score vector")
        self.cdf.advance()
        candidates = self._candidates_for(self, user, pos_items.size)
        _, _, unbias_values = self._posterior_for_candidates(
            self, user, candidates, scores
        )
        best = np.argmax(unbias_values, axis=1)
        return candidates[np.arange(pos_items.size), best]

    def sample_batch(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray] = None,
        *,
        groups: Optional[BatchGroups] = None,
    ) -> np.ndarray:
        """Vectorized Eq. 35: one posterior argmax over all candidates."""
        users, pos_items = self._check_batch(users, pos_items)
        if users.size == 0:
            return np.empty(0, dtype=np.int64)
        self._require_scores(scores, "the batch score block")
        if groups is None:
            groups = group_batch_by_user(users)
        if self.n_candidates is None:
            return super().sample_batch(users, pos_items, scores, groups=groups)
        self._check_score_block(groups, scores)
        self.cdf.advance()
        candidates = self.candidate_matrix_batch(groups, self.n_candidates)
        _, _, unbias_values = self._posterior_for_batch(
            self, groups, candidates, scores
        )
        best = np.argmax(unbias_values, axis=1)
        return candidates[np.arange(users.size), best]
