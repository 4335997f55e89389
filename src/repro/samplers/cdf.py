"""Pluggable estimators of the Eq. 16 empirical CDF ``F(x̂_l)``.

The Bayesian posterior (Eq. 15) needs, for every candidate ``l``, the rank
of its score among the user's un-interacted item scores — an order
statistic of the negative score distribution.  The reference
implementation computes it *exactly*: sort the full negative score vector
(``O(n_items log n_items)`` per user per batch) and ``searchsorted`` each
candidate into it, which in turn forces the trainer to materialize a full
``(U, n_items)`` score block.  That exactness is an illusion of precision:
``F`` is itself an *estimate* built from one model snapshot, so a
statistically controlled approximation of it leaves the sampler's decisions
essentially unchanged while removing the only ``O(n_items)`` term from the
training hot path.

Three estimators implement the trade-off:

* :class:`ExactCDF` — the reference behaviour, bitwise-identical to the
  pre-estimator pipeline (the default; pinned by
  ``tests/samplers/test_cdf.py``).  Requires a full score block
  (``ScoreRequest.FULL_BLOCK``).
* :class:`SubsampledCDF` — Monte-Carlo ``F̂_s`` over ``s`` uniform draws
  (with replacement) from ``I⁻_u``, scored by gather.  By the
  Dvoretzky–Kiefer–Wolfowitz inequality,
  ``P(sup_x |F̂_s(x) − F(x)| > ε) ≤ 2 exp(−2 s ε²)``, so ``s = 256`` gives
  ``ε ≈ 0.085`` at 95% confidence *independent of n_items* — far below the
  resolution at which the risk argmin over a handful of candidates changes.
  Cost: ``O(s·d + s log s)`` per user per batch (``ScoreRequest.SPARSE``).
* :class:`CachedCDF` — AOBPR-style staleness: each user's *exact* sorted
  negative score vector is cached and reused for ``refresh_every`` sampler
  dispatches before being recomputed, amortizing the ``O(n_items·d +
  n_items log n_items)`` rebuild across ``T`` batches.  Candidate scores
  are always fresh (gather-scored); only the reference distribution they
  are ranked against lags (``ScoreRequest.SPARSE``).

Estimators are deterministic under a bound seed: :class:`SubsampledCDF`
spawns a child generator off the sampler's bound generator at bind time
(via ``SeedSequence`` spawning, which does **not** consume the parent
stream — the candidate-draw sequence, and hence the default exact path,
is untouched), and :class:`CachedCDF` uses no randomness at all.

An estimator computes ``F̂`` only.  The sampler draws the candidates and
gathers their scores (from the score row or block, or by gather scoring
in ``SPARSE`` mode) before it asks, and hands them in; the estimator
builds the reference distribution and ranks the given scores in it.

Scalar/batched parity: both code paths of each estimator consume the
estimator generator in sorted-unique-user order and use the same
elementwise arithmetic, so for a bound seed, equal estimator state and
equal candidate scores, ``cdf_for_user`` per sorted unique user and
``cdf_for_batch`` return identical ``F̂``, and the samplers' grouped
``sample_for_user`` calls and ``sample_batch`` identical negatives (the
RNG-parity contract of ``repro.samplers.base``).  One scoped divergence:
:class:`CachedCDF`'s staleness clock ticks once per sampler *dispatch* —
one ``sample_batch`` call, or one ``sample_for_user`` call — so a caller
that samples a batch user by user ticks it once per unique user where
``sample_batch`` ticks it once, and across a multi-batch run with a
moving model the two refresh at different points, so cached-mode results
are statistically, not bitwise, equivalent between them.  The trainer
dispatches once per mini-batch, one-row batches included.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Dict, Optional, Union

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.samplers.base import BatchGroups, NegativeSampler, ScoreRequest
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_positive

__all__ = [
    "CDFEstimator",
    "ExactCDF",
    "SubsampledCDF",
    "CachedCDF",
    "make_cdf",
]


def _sort_negative_rows(
    train: InteractionMatrix, users: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """Sort each row's negative scores to its front, in place.

    Row ``r`` of ``block`` is user ``users[r]``'s full score row.  Its
    positives go to ``+inf`` and the row is sorted ascending in the
    block's own dtype, so ``block[r, :neg_counts[r]]`` equals
    ``np.sort(row[I⁻_u])`` bit for bit (a negative scored ``+inf`` ties
    with the padding, and the prefix still ends in as many ``+inf`` as
    the user has such negatives).  One ``(U, n_items)`` sort
    replaces U per-user mask-allocate-and-sort passes.  Returns
    ``neg_counts``; the caller's block is overwritten.
    """
    rows, cols = train.positives_in_rows(users)
    block[rows, cols] = np.inf
    block.sort(axis=1)
    return train.n_items - train.degrees_of(users)


class CDFEstimator(ABC):
    """Interface: Eq. 16's ``F̂`` at candidate scores the sampler supplies.

    Lifecycle mirrors the sampler's: construct → :meth:`bind` (called from
    the sampler's ``_on_bind``) → per epoch :meth:`on_epoch_start` → one
    :meth:`advance` per sampler dispatch → :meth:`cdf_for_user` /
    :meth:`cdf_for_batch` queries.  Estimators receive the bound sampler
    on every call and read dataset/model/rng through it, so they never
    hold stale references of their own.  They never score candidates: the
    sampler gathers those scores, and its positives', first.
    """

    #: What the trainer must precompute for this estimator's queries.
    score_request: ClassVar[ScoreRequest] = ScoreRequest.FULL_BLOCK
    #: Registry name (see :func:`make_cdf`).
    name: ClassVar[str] = "cdf"

    def bind(self, sampler: NegativeSampler) -> None:
        """Attach to a freshly bound sampler (reset all internal state).

        An estimator belongs to exactly one sampler: stateful estimators
        key their caches/streams by user id only, so sharing one instance
        across samplers would serve references computed from the wrong
        model (and each ``bind`` would clobber the other's state).
        Re-binding the *same* sampler (trainer construction after manual
        binding) stays legal and resets state.
        """
        owner = getattr(self, "_owner", None)
        if owner is not None and owner is not sampler:
            raise ValueError(
                f"{type(self).__name__} is already bound to another sampler; "
                "construct one estimator per sampler (pass a spec string "
                "like 'subsampled:256' to share a configuration, not state)"
            )
        self._owner = sampler
        self._on_bind(sampler)

    def _on_bind(self, sampler: NegativeSampler) -> None:
        """Subclass hook; runs inside :meth:`bind`."""

    def on_epoch_start(self, epoch: int) -> None:
        """Per-epoch hook; default no-op."""

    def advance(self) -> None:
        """One sampler dispatch happened (staleness clock tick); no-op by
        default.  The trainer dispatches once per mini-batch — one
        ``sample_batch``, or one ``sample_for_user`` for a one-row batch —
        so staleness is counted in mini-batches.  A caller that samples a
        batch user by user ticks once per unique user instead, so the two
        are not bitwise interchangeable for stateful estimators (see
        module docstring)."""

    # ------------------------------------------------------------------ #

    @abstractmethod
    def cdf_for_user(
        self,
        sampler: NegativeSampler,
        user: int,
        candidate_scores: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        """``F̂`` at an ``(n_pos, m)`` array of one user's candidate scores.

        ``scores`` is the user's full score row when the trainer runs in
        ``FULL_BLOCK`` mode, else ``None``; only :class:`ExactCDF` reads
        it.
        """

    @abstractmethod
    def cdf_for_batch(
        self,
        sampler: NegativeSampler,
        groups: BatchGroups,
        candidate_scores: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        """``F̂`` at a ``(B, m)`` array of candidate scores, row ``b`` for
        batch row ``b`` (batch order, not grouped order).

        ``scores`` is the sorted-unique-user score block in ``FULL_BLOCK``
        mode, else ``None``.  The block belongs to the sampler's
        ``sample_batch``, which has gathered every score it needs from it
        before the call, so an estimator may overwrite it:
        :class:`ExactCDF` sorts its rows in place.
        """

    # ------------------------------------------------------------------ #

    @staticmethod
    def _rank_grouped(
        groups: BatchGroups,
        candidate_scores: np.ndarray,
        sorted_rows,
        row_sizes: np.ndarray,
    ) -> np.ndarray:
        """Per-user ``searchsorted`` counts for grouped candidate queries.

        ``sorted_rows[r]`` must index to user ``unique_users[r]``'s
        ascending reference scores (a list of 1-D arrays, or a 2-D block
        whose row ``r`` prefix of length ``row_sizes[r]`` is the
        reference).  Queries are laid out in grouped order once so each
        user's pass is a thin ``searchsorted`` on contiguous views; a
        single scatter restores batch order.
        """
        m = candidate_scores.shape[1]
        queries = candidate_scores[groups.order].ravel()
        counts_grouped = np.empty(queries.size, dtype=np.int64)
        bounds = (groups.boundaries * m).tolist()
        sizes = row_sizes.tolist()
        for group in range(groups.n_groups):
            start, stop = bounds[group], bounds[group + 1]
            counts_grouped[start:stop] = sorted_rows[group][
                : sizes[group]
            ].searchsorted(queries[start:stop], side="right")
        counts = np.empty(candidate_scores.shape, dtype=np.int64)
        counts[groups.order] = counts_grouped.reshape(-1, m)
        return counts

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ExactCDF(CDFEstimator):
    """Eq. 16 computed exactly — the reference (and default) estimator.

    The default pipeline stays bitwise-identical to the pre-estimator BNS
    code under a pinned seed: per user, one sort of ``scores[I⁻_u]`` and
    a ``side="right"`` ``searchsorted``; per batch, the block's rows are
    sorted in place (:func:`_sort_negative_rows`) and searched in
    per-user thin passes.  It reads the score row or block, which the
    sampler requires in ``FULL_BLOCK`` mode.
    """

    score_request = ScoreRequest.FULL_BLOCK
    name = "exact"

    def cdf_for_user(self, sampler, user, candidate_scores, scores):
        # The gather is a fresh copy, so it is sorted in place.
        negative_scores = scores[sampler.dataset.train.negative_items(user)]
        negative_scores.sort()
        return (
            negative_scores.searchsorted(candidate_scores, side="right")
            / negative_scores.size
        )

    def cdf_for_batch(self, sampler, groups, candidate_scores, scores):
        neg_counts = _sort_negative_rows(
            sampler.dataset.train, groups.unique_users, scores
        )
        counts = self._rank_grouped(groups, candidate_scores, scores, neg_counts)
        return counts / neg_counts[groups.rows][:, None]


class SubsampledCDF(CDFEstimator):
    """DKW-bounded Monte-Carlo CDF over a uniform subsample of ``I⁻_u``.

    Parameters
    ----------
    n_samples:
        Subsample size ``s``.  The DKW inequality bounds the uniform CDF
        error: ``sup_x |F̂_s − F| ≤ sqrt(ln(2/δ) / (2s))`` with probability
        ``1 − δ`` — e.g. ``s=256 → ε ≈ 0.085``, ``s=1024 → ε ≈ 0.042`` at
        95% confidence, independent of the catalogue size.

    A fresh subsample is drawn per user per dispatch from a dedicated
    child generator (spawned off the sampler's generator at bind, leaving
    the candidate-draw stream untouched), scored by gather
    (``O(s·d)``), and sorted (``O(s log s)``) — with the sampler's
    candidate gather, the per-triple cost the module docstring quotes.  Draws are with replacement (i.i.d. from
    the empirical negative distribution, exactly what DKW assumes) via the
    same :meth:`~repro.data.interactions.InteractionMatrix.
    uniform_negatives_rows` draw core the candidate sets use, one call
    per dispatch for the scalar and the batched path alike.
    """

    score_request = ScoreRequest.SPARSE
    name = "subsampled"

    def __init__(self, n_samples: int = 256) -> None:
        self.n_samples = int(check_positive(n_samples, "n_samples"))
        self._rng: Optional[np.random.Generator] = None

    def _on_bind(self, sampler: NegativeSampler) -> None:
        self._rng = spawn_rngs(sampler.rng, 1)[0]

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            raise RuntimeError(f"{type(self).__name__} is not bound; call bind() first")
        return self._rng

    def _subsample_block(self, sampler, users: np.ndarray) -> np.ndarray:
        """``(len(users), s)`` ascending subsample scores, one row per user.

        One :meth:`~repro.data.interactions.InteractionMatrix.
        uniform_negatives_rows` draw from the estimator's generator, one
        ``score_items_batch`` gather, one axis-1 sort.  The scalar path
        passes its one user and the batched path the sorted unique users,
        so both consume the generator in sorted-unique-user order and see
        identical references (the RNG-parity contract).
        """
        subsample = sampler.dataset.train.uniform_negatives_rows(
            users, self.n_samples, self.rng
        )
        block = sampler.model.score_items_batch(users, subsample)
        block.sort(axis=1)
        return block

    def cdf_for_user(self, sampler, user, candidate_scores, scores):
        reference = self._subsample_block(
            sampler, np.full(1, user, dtype=np.int64)
        )[0]
        return (
            np.searchsorted(reference, candidate_scores, side="right")
            / self.n_samples
        )

    def cdf_for_batch(self, sampler, groups, candidate_scores, scores):
        references = self._subsample_block(sampler, groups.unique_users)
        sizes = np.full(groups.n_groups, self.n_samples, dtype=np.int64)
        counts = self._rank_grouped(groups, candidate_scores, references, sizes)
        return counts / self.n_samples


class CachedCDF(CDFEstimator):
    """Stale exact CDF: per-user sorted negative scores, refreshed lazily.

    Parameters
    ----------
    refresh_every:
        Number of sampler dispatches a user's cached sorted score vector
        stays valid for.  A user touched at dispatch ``t`` is served the
        same reference until the first touch at dispatch ``≥ t +
        refresh_every``, when the vector is recomputed from the *current*
        model — the AOBPR trick of amortizing an expensive global
        structure across steps, applied to the Eq. 16 CDF.

    Candidate scores are always fresh (the sampler gather-scores them
    from the live model); only the reference distribution they are
    ranked against lags by at most ``refresh_every`` dispatches.  Between refreshes a query
    costs ``O(m·d + m log n_items)``; the ``O(n_items·d + n_items log
    n_items)`` rebuild is paid once per user per window.  No randomness —
    the estimator is deterministic given the sampler's draw sequence.

    Memory: one float64 vector of ``|I⁻_u|`` per *touched* user, i.e. up
    to ``n_users × n_items`` on a full sweep — the same envelope as the
    dataset's negative table.  Deployments beyond that envelope should
    prefer :class:`SubsampledCDF`, whose state is O(1).
    """

    score_request = ScoreRequest.SPARSE
    name = "cached"

    def __init__(self, refresh_every: int = 20) -> None:
        self.refresh_every = int(check_positive(refresh_every, "refresh_every"))
        self._sorted: Dict[int, np.ndarray] = {}
        self._stamp: Dict[int, int] = {}
        self._step = 0

    def _on_bind(self, sampler: NegativeSampler) -> None:
        self._sorted = {}
        self._stamp = {}
        self._step = 0

    def advance(self) -> None:
        self._step += 1

    @property
    def step(self) -> int:
        """Dispatches seen since bind (the staleness clock)."""
        return self._step

    def _is_stale(self, user: int) -> bool:
        stamp = self._stamp.get(user)
        return stamp is None or self._step - stamp >= self.refresh_every

    def _reference_for(self, sampler, user: int) -> np.ndarray:
        if self._is_stale(user):
            scores = sampler.model.scores(user)
            negatives = sampler.dataset.train.negative_items(user)
            self._sorted[user] = np.sort(scores[negatives])
            self._stamp[user] = self._step
        return self._sorted[user]

    def _refresh_users(self, sampler, users: np.ndarray) -> None:
        """Rebuild many users' references from one ``scores_batch`` block.

        Users touched in the same early batches expire together, so a
        refresh boundary would otherwise pay one gemv + sort per stale
        user in a Python loop — the per-user pattern the batched pipeline
        exists to avoid.  One block, one positives mask, one axis-1 sort
        (:func:`_sort_negative_rows`, as in :class:`ExactCDF`) amortizes
        the storm.
        The block is gemm-scored where the scalar path refresh is gemv —
        a last-ulp difference already covered by cached mode's documented
        cross-path statistical (not bitwise) equivalence.
        """
        block = sampler.model.scores_batch(users)
        counts = _sort_negative_rows(sampler.dataset.train, users, block).tolist()
        for row, user in enumerate(users.tolist()):
            self._sorted[user] = block[row, : counts[row]].copy()
            self._stamp[user] = self._step

    def cdf_for_user(self, sampler, user, candidate_scores, scores):
        reference = self._reference_for(sampler, user)
        return (
            np.searchsorted(reference, candidate_scores, side="right")
            / reference.size
        )

    def cdf_for_batch(self, sampler, groups, candidate_scores, scores):
        stale = groups.unique_users[
            [self._is_stale(int(user)) for user in groups.unique_users]
        ]
        if stale.size:
            self._refresh_users(sampler, stale)
        references = [self._sorted[int(user)] for user in groups.unique_users]
        sizes = np.array([r.size for r in references], dtype=np.int64)
        counts = self._rank_grouped(groups, candidate_scores, references, sizes)
        return counts / sizes[groups.rows][:, None]

    def __repr__(self) -> str:
        return f"CachedCDF(refresh_every={self.refresh_every})"


#: Accepted by every BNS-family constructor and the experiment harness:
#: ``None`` (exact), an estimator instance, or a spec string
#: ``"exact"`` / ``"subsampled[:s]"`` / ``"cached[:T]"``.
CDFLike = Union[None, str, CDFEstimator]


def make_cdf(spec: CDFLike = None) -> CDFEstimator:
    """Resolve a CDF-estimator spec (string, instance or ``None``).

    String forms (used by ``RunSpec.cdf`` and the CLI's ``--cdf``):
    ``"exact"``, ``"subsampled"`` / ``"subsampled:512"``, ``"cached"`` /
    ``"cached:50"`` — the optional integer overrides the estimator's
    default ``n_samples`` / ``refresh_every``.
    """
    if spec is None:
        return ExactCDF()
    if isinstance(spec, CDFEstimator):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"cdf must be None, a CDFEstimator or a spec string, got "
            f"{type(spec).__name__}"
        )
    name, _, argument = spec.partition(":")
    key = name.strip().lower()
    try:
        value = int(argument) if argument else None
    except ValueError:
        raise ValueError(
            f"invalid cdf spec {spec!r}: {argument!r} is not an int"
        ) from None
    if key == "exact":
        if argument:
            raise ValueError(f"cdf spec 'exact' takes no argument, got {spec!r}")
        return ExactCDF()
    if key == "subsampled":
        return SubsampledCDF() if value is None else SubsampledCDF(value)
    if key == "cached":
        return CachedCDF() if value is None else CachedCDF(value)
    raise ValueError(
        f"unknown cdf estimator {name!r}; use 'exact', 'subsampled[:s]' "
        "or 'cached[:T]'"
    )
