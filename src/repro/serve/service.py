"""The online ranking service: checkpoint → top-K answers under load.

:class:`RankingService` is the serving layer over the batched scoring and
ranking kernels the offline pipeline already trusts:

* scores come from :meth:`~repro.models.base.ScoreModel.scores_batch`
  (one gemm per batch of users, exactly the evaluator's score source);
* seen-item filtering is the evaluator's ``positives_in_rows`` scatter;
* ranking is :func:`repro.eval.topk.top_k_items_batch`, so a served list
  is **bitwise-identical** to the offline evaluator's list for the same
  model and interaction matrix — ties included (pinned by
  ``tests/serve/test_service.py``).

Three performance layers stack on top of that inner loop:

1. the per-user :class:`~repro.serve.cache.TopKCache` (prefix reads for
   ``k <= cache_k``), bulk-warmed in chunked ``scores_batch`` blocks;
2. the :class:`~repro.serve.coalescer.RequestCoalescer`, which folds the
   cache misses of concurrent callers into one gemm;
3. the argpartition partial-sort ranking kernel shared with the
   evaluator.

New interactions enter through :meth:`add_interactions`: the immutable
:class:`~repro.data.interactions.InteractionMatrix` is swapped for its
:meth:`~repro.data.interactions.InteractionMatrix.with_appended`
successor and exactly the touched users' cache entries are invalidated —
strictly by default, or with bounded staleness when the cache was built
with ``refresh_every`` (stale lists never contain seen items; see
:mod:`repro.serve.cache`).  The model itself is checkpoint-frozen:
appends change what is *filtered*, not what is *scored* (online model
updates are the ROADMAP's incremental-training item, not this layer).

Fault tolerance (``tests/serve/test_service.py::TestGracefulDegradation``):
scoring runs behind a :class:`~repro.reliability.breaker.CircuitBreaker`,
and when it fails — an exception out of the gemm, a NaN or ``+inf``
score, an open breaker, a coalescer deadline — the service *degrades*
instead of erroring: it serves the user's stale cached list if one
survives (seen-item filtering intact), else a popularity-ranked fallback
over the user's unseen items.
Every degraded answer is counted in :class:`ServeStats` and surfaced by
:meth:`RankingService.health`, so operators see the lie immediately;
exact bitwise parity with the offline evaluator is guaranteed only for
non-degraded answers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import kernels
from repro.data.interactions import InteractionMatrix
from repro.eval.protocol import check_finite_head
from repro.reliability.breaker import CircuitBreaker, CircuitOpenError
from repro.reliability.faults import FaultInjector
from repro.reliability.policy import DeadlineExceeded
from repro.serve.cache import TopKCache
from repro.serve.coalescer import RequestCoalescer
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

__all__ = ["RankingService", "ServeStats", "ServiceHealth"]

_LOGGER = get_logger("serve.service")

#: Scoring-path instrumentation point for injected faults (keyed by the
#: requesting user id).
SCORE_FAULT_SITE = "serve.score"

#: Users per ``scores_batch`` block during warmup — the evaluator's
#: cache-residency sweet spot (see ``repro.eval.protocol``), since warmup
#: runs exactly the evaluator's chunk pipeline.
DEFAULT_WARMUP_CHUNK = 256


@dataclass
class ServeStats:
    """Request accounting (mutated under the service lock)."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    scored_users: int = 0  # users actually sent through scores_batch
    appends: int = 0
    invalidated: int = 0
    #: Scoring attempts that raised (before any fallback was tried).
    scoring_failures: int = 0
    #: Requests answered by a fallback instead of fresh scoring, split
    #: by which fallback produced the list.
    degraded: int = 0
    degraded_stale: int = 0
    degraded_popularity: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def degraded_rate(self) -> float:
        return self.degraded / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class ServiceHealth:
    """One consistent snapshot of the service's operating condition.

    ``status`` is ``"ok"`` while the breaker is closed, ``"degraded"``
    while it is open or probing half-open (requests are being answered
    from fallbacks), matching what a load balancer health endpoint
    needs.  ``checkpoint_age_seconds`` is time since this process loaded
    the model (monotonic clock — the serving layer never reads
    wallclock), with the checkpoint path carried for operators.
    """

    status: str
    breaker_state: str
    breaker_opens: int
    checkpoint_age_seconds: float
    checkpoint_path: Optional[str]
    cache_hit_rate: float
    degraded_rate: float
    n_cached_users: int
    requests: int
    stats: ServeStats = field(repr=False, default_factory=ServeStats)


class RankingService:
    """Serve ``top_k(user, k)`` requests from a trained score model.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.ScoreModel` (typically rebuilt
        from an engine checkpoint via :meth:`from_checkpoint`).
    train:
        Interactions to filter out of every recommendation list (the
        user's seen items).  Swapped — never mutated — by
        :meth:`add_interactions`.
    cache_k:
        Width of the per-user cache lists; requests with ``k <= cache_k``
        hit the cache.  ``0`` disables caching entirely (every request
        scores — the baseline the serve benchmark measures against).
    refresh_every:
        ``None`` for strict invalidation on append; an integer ``T``
        tolerates serving invalidated entries for up to ``T`` requests
        (with fresh interactions always filtered out) before refreshing.
    coalesce:
        Batch concurrent cache-miss requests into one ``scores_batch``
        call (:class:`~repro.serve.coalescer.RequestCoalescer`).
    max_batch, max_wait:
        Coalescer knobs: largest gemm batch, and the seconds a batch
        leader waits for stragglers (``0``: dispatch immediately).
    submit_timeout:
        Seconds a coalesced request waits on its batch leader before
        failing over to the degraded path (``None``: wait forever, the
        pre-deadline behavior).
    breaker_threshold, breaker_cooldown:
        Circuit breaker around scoring: after ``breaker_threshold``
        consecutive scoring failures the service stops calling the
        scorer for ``breaker_cooldown`` seconds and serves fallbacks.
    degraded_serving:
        When ``True`` (default) scoring failures are answered with the
        user's stale cached list or a popularity fallback and counted
        in :class:`ServeStats`; ``False`` re-raises them (callers that
        prefer errors over inexact lists).
    fault_injector:
        Test/chaos seam: fired on the scoring path per user id (site
        ``"serve.score"``).  Production services pass ``None``.
    """

    def __init__(
        self,
        model,
        train: InteractionMatrix,
        *,
        cache_k: int = 100,
        refresh_every: Optional[int] = None,
        coalesce: bool = True,
        max_batch: int = 256,
        max_wait: float = 0.002,
        submit_timeout: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        degraded_serving: bool = True,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if model.n_users != train.n_users or model.n_items != train.n_items:
            raise ValueError(
                f"model universe {model.n_users}x{model.n_items} does not "
                f"match interactions {train.n_users}x{train.n_items}"
            )
        if cache_k < 0:
            raise ValueError(f"cache_k must be >= 0, got {cache_k}")
        self.model = model
        self._train = train
        self._cache = (
            TopKCache(cache_k, refresh_every=refresh_every) if cache_k else None
        )
        self._coalescer: Optional[RequestCoalescer] = (
            RequestCoalescer(
                self._compute_batch,
                max_batch=max_batch,
                max_wait=max_wait,
                default_timeout=submit_timeout,
            )
            if coalesce
            else None
        )
        # One reentrant lock guards the cache, the stats, and the
        # train-matrix swap.  Scoring itself happens under it too, which
        # serializes gemms — correct first; the gemm releases most of its
        # time to BLAS threads anyway, and coalescing (not lock
        # concurrency) is where the batching win lives.
        self._lock = threading.RLock()
        self.stats = ServeStats()
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)
        self.degraded_serving = bool(degraded_serving)
        self._faults = fault_injector
        self.checkpoint_path: Optional[str] = None
        self._loaded_at = time.perf_counter()
        # Popularity fallback, precomputed once: items by descending
        # training popularity, ties broken by id (stable sort on the
        # negated counts) — deterministic, and independent of the model
        # so it survives any scorer failure.
        self._popularity_order = np.argsort(
            -train.item_popularity, kind="stable"
        ).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_checkpoint(
        cls,
        path: Union[str, Path],
        train: Optional[InteractionMatrix] = None,
        *,
        dtype=None,
        **kwargs,
    ) -> "RankingService":
        """Build a service from a persisted ``model.npz`` checkpoint.

        ``train`` may be omitted for LightGCN checkpoints, which embed
        their training graph; MF-family checkpoints carry no
        interactions, so the caller must supply the matrix the model was
        trained on (e.g. from the dataset the engine run used).

        ``dtype`` asserts the serving precision: a float32 checkpoint
        cannot silently warm-start a float64 serving instance (the load
        raises instead).
        """
        from repro.models.lightgcn import LightGCN
        from repro.models.persistence import load_model

        model = load_model(path, dtype=dtype)
        if train is None:
            if isinstance(model, LightGCN):
                from repro.models.persistence import _graph_pairs

                users, items = _graph_pairs(model)
                train = InteractionMatrix(
                    model.n_users, model.n_items, users, items
                )
            else:
                raise ValueError(
                    f"checkpoint {path} stores no interactions; pass the "
                    "training InteractionMatrix explicitly"
                )
        service = cls(model, train, **kwargs)
        service.checkpoint_path = str(path)
        return service

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def train(self) -> InteractionMatrix:
        """The current (immutable) seen-interactions matrix."""
        return self._train

    @property
    def cache_k(self) -> int:
        return self._cache.cache_k if self._cache is not None else 0

    @property
    def coalescer_stats(self):
        """Dispatch accounting of the coalescer (``None`` when disabled)."""
        return self._coalescer.stats if self._coalescer is not None else None

    @property
    def n_cached_users(self) -> int:
        return len(self._cache) if self._cache is not None else 0

    def health(self) -> ServiceHealth:
        """One consistent snapshot for a health endpoint (thread-safe)."""
        with self._lock:
            state = self.breaker.state
            stats = ServeStats(**vars(self.stats))
            return ServiceHealth(
                status="ok" if state == CircuitBreaker.CLOSED else "degraded",
                breaker_state=state,
                breaker_opens=self.breaker.opens,
                checkpoint_age_seconds=time.perf_counter() - self._loaded_at,
                checkpoint_path=self.checkpoint_path,
                cache_hit_rate=stats.hit_rate,
                degraded_rate=stats.degraded_rate,
                n_cached_users=self.n_cached_users,
                requests=stats.requests,
                stats=stats,
            )

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def top_k(self, user: int, k: int = 10) -> np.ndarray:
        """The user's top-``k`` recommendation list (canonical order).

        Bitwise-identical to the offline
        ``top_k_items_batch(masked scores, k)`` list for the service's
        current model and interaction matrix; shorter than ``k`` only
        when the user has fewer eligible items.  Thread-safe.
        """
        user = self._check_user(user)
        check_positive(k, "k")
        with self._lock:
            self.stats.requests += 1
            if self._cache is not None:
                self._cache.advance()
                cached = self._cache.get(user, k)
                if cached is not None:
                    self.stats.cache_hits += 1
                    return cached
            self.stats.cache_misses += 1
        try:
            if self._coalescer is not None:
                return self._coalescer.submit((user, int(k)))
            return self._compute_batch([(user, int(k))])[0]
        except Exception as error:  # CircuitOpenError, DeadlineExceeded, gemm
            return self._degraded_answer(user, int(k), error)

    def top_k_many(
        self, users: Sequence[int], k: int = 10
    ) -> List[np.ndarray]:
        """Vectorized :meth:`top_k` for an array of users (one gemm for
        all misses).  Results align with ``users``."""
        users = np.asarray(users, dtype=np.int64).ravel()
        check_positive(k, "k")
        if users.size and (users.min() < 0 or users.max() >= self.model.n_users):
            raise IndexError(f"user ids out of range [0, {self.model.n_users})")
        results: List[Optional[np.ndarray]] = [None] * users.size
        missing: List[Tuple[int, int]] = []
        with self._lock:
            for position, user in enumerate(users.tolist()):
                self.stats.requests += 1
                if self._cache is not None:
                    self._cache.advance()
                    cached = self._cache.get(user, int(k))
                    if cached is not None:
                        self.stats.cache_hits += 1
                        results[position] = cached
                        continue
                self.stats.cache_misses += 1
                missing.append((position, user))
            if missing:
                try:
                    computed = self._compute_batch(
                        [(user, int(k)) for _, user in missing]
                    )
                except Exception as error:
                    computed = [
                        self._degraded_answer(user, int(k), error)
                        for _, user in missing
                    ]
                for (position, _), ids in zip(missing, computed):
                    results[position] = ids
        return results  # type: ignore[return-value]

    def warmup(
        self,
        users: Optional[np.ndarray] = None,
        *,
        chunk_users: int = DEFAULT_WARMUP_CHUNK,
    ) -> int:
        """Precompute the top-``cache_k`` cache for ``users`` (default:
        everyone) in chunked ``scores_batch`` blocks; returns the number
        of users warmed.  A no-op when caching is disabled."""
        if self._cache is None:
            return 0
        check_positive(chunk_users, "chunk_users")
        if users is None:
            users = np.arange(self.model.n_users, dtype=np.int64)
        users = np.asarray(users, dtype=np.int64).ravel()
        with self._lock:
            for start in range(0, users.size, chunk_users):
                chunk = users[start : start + chunk_users]
                ids, lengths = self._rank_block(chunk, self._cache.cache_k)
                self._cache.put_rows(chunk, ids, lengths)
                self.stats.scored_users += int(chunk.size)
        return int(users.size)

    def refresh_stale(self) -> int:
        """Recompute every invalidated-but-still-served cache entry now.

        The bulk companion of ``refresh_every``: instead of letting stale
        entries expire into individual misses, refresh them all in
        chunked blocks (one gemm per chunk).  Returns the number of users
        refreshed; strict-mode caches always return 0 (nothing is ever
        stale there).
        """
        if self._cache is None:
            return 0
        with self._lock:
            stale = self._cache.stale_users()
            if stale.size:
                self.warmup(stale)
        return int(stale.size)

    # ------------------------------------------------------------------ #
    # Online updates
    # ------------------------------------------------------------------ #

    def add_interactions(
        self, user_ids: Sequence[int], item_ids: Sequence[int]
    ) -> int:
        """Append observed ``(user, item)`` interactions and invalidate.

        Swaps the interaction matrix for its ``with_appended`` successor
        and invalidates exactly the touched users' cache entries (their
        new items are hidden from any stale reads).  Returns the number
        of users invalidated.
        """
        users = np.asarray(user_ids, dtype=np.int64).ravel()
        items = np.asarray(item_ids, dtype=np.int64).ravel()
        with self._lock:
            updated = self._train.with_appended(users, items)
            self._train = updated
            self.stats.appends += int(users.size)
            touched = 0
            if self._cache is not None:
                for user in np.unique(users).tolist():
                    if user in self._cache:
                        self._cache.invalidate(user, items[users == user])
                        touched += 1
                self.stats.invalidated += touched
        return touched

    # ------------------------------------------------------------------ #
    # Scoring core
    # ------------------------------------------------------------------ #

    def _compute_batch(
        self, requests: Sequence[Tuple[int, int]]
    ) -> List[np.ndarray]:
        """Answer ``(user, k)`` requests with one scores_batch gemm.

        The coalescer's compute callable and the direct miss path.  All
        requests are ranked at one shared width — the largest ``k`` in
        the batch, floored at ``cache_k`` so every computed row also
        refreshes the cache — and each request receives its own prefix
        (prefix-truncation is exact under the canonical total order).
        """
        with self._lock:
            if not self.breaker.allow():
                raise CircuitOpenError(
                    "scoring circuit open; serving fallbacks until cooldown"
                )
            try:
                result = self._score_requests(requests)
            except Exception:
                self.stats.scoring_failures += 1
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            return result

    def _score_requests(
        self, requests: Sequence[Tuple[int, int]]
    ) -> List[np.ndarray]:
        """The unguarded scoring body of :meth:`_compute_batch`."""
        users = np.fromiter(
            (user for user, _ in requests), dtype=np.int64, count=len(requests)
        )
        unique_users, inverse = np.unique(users, return_inverse=True)
        if self._faults is not None:
            for user in unique_users.tolist():
                self._faults.fire(SCORE_FAULT_SITE, str(user))
        width = max(max(k for _, k in requests), self.cache_k)
        ids, lengths = self._rank_block(unique_users, width)
        if self._cache is not None:
            cache_ids = ids[:, : self._cache.cache_k]
            cache_lengths = np.minimum(lengths, self._cache.cache_k)
            self._cache.put_rows(unique_users, cache_ids, cache_lengths)
        self.stats.scored_users += int(unique_users.size)
        return [
            ids[row, : min(k, lengths[row])].copy()
            for row, (_, k) in zip(inverse.tolist(), requests)
        ]

    def _rank_block(
        self, users: np.ndarray, width: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Score → mask seen items → canonical top-``width`` for a chunk.

        This is, deliberately, the evaluator's exact pipeline
        (``scores_batch`` + ``positives_in_rows`` + the canonical top-K +
        its finiteness check) so served lists and offline metrics can
        never disagree.  The block keeps the model's dtype policy.  A NaN
        or ``+inf`` score raises
        :class:`~repro.eval.protocol.NonFiniteScoresError`, which
        :meth:`_compute_batch` counts as a scoring failure.
        """
        block = np.asarray(self.model.scores_batch(users))
        if block.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            block = block.astype(np.float64)
        if not block.flags.writeable:
            block = block.copy()
        rows, cols = self._train.positives_in_rows(users)
        block[rows, cols] = -np.inf
        ids, lengths = kernels.topk(block, width)
        check_finite_head(block, ids, users)
        return ids, lengths

    # ------------------------------------------------------------------ #
    # Graceful degradation
    # ------------------------------------------------------------------ #

    def _degraded_answer(
        self, user: int, k: int, error: BaseException
    ) -> np.ndarray:
        """Best available answer when fresh scoring failed.

        Preference order: the user's stale cached list (seen-item
        filtering intact, just possibly mis-ranked) → popularity-ranked
        unseen items.  Counted in :class:`ServeStats`; re-raises the
        scoring error when ``degraded_serving`` is off.
        """
        if not self.degraded_serving:
            raise error
        with self._lock:
            self.stats.degraded += 1
            _LOGGER.warning(
                "degraded answer for user %d (%s: %s)",
                user,
                type(error).__name__,
                error,
            )
            if self._cache is not None:
                stale = self._cache.peek(user, k)
                if stale is not None and stale.size:
                    self.stats.degraded_stale += 1
                    return stale
            self.stats.degraded_popularity += 1
            return self._popularity_fallback(user, k)

    def _popularity_fallback(self, user: int, k: int) -> np.ndarray:
        """Top-``k`` most-popular training items the user has not seen.

        Model-free and deterministic (popularity descending, ties by item
        id), so it survives any scorer failure — the classic cold-path
        recommendation of last resort.
        """
        order = self._popularity_order
        seen = self._train.items_of(user)
        if seen.size:
            order = order[~np.isin(order, seen)]
        return order[:k].copy()

    # ------------------------------------------------------------------ #

    def _check_user(self, user: int) -> int:
        user = int(user)
        if not 0 <= user < self.model.n_users:
            raise IndexError(
                f"user {user} out of range [0, {self.model.n_users})"
            )
        return user

    def __repr__(self) -> str:
        return (
            f"RankingService(model={type(self.model).__name__}, "
            f"users={self.model.n_users}, items={self.model.n_items}, "
            f"cache_k={self.cache_k}, "
            f"coalesce={self._coalescer is not None})"
        )
