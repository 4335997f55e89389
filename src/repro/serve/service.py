"""The online ranking service: checkpoint → top-K answers under load.

:class:`RankingService` is the serving layer over the ranking pipeline
the offline evaluator already trusts: every scored block goes through
:func:`repro.eval.protocol.rank_unseen` (``scores_batch`` → mask seen
items → canonical top-K → finiteness check), so a served list is
**bitwise-identical** to the offline evaluator's list for the same model
and interaction matrix — ties included (pinned by
``tests/serve/test_service.py``).

Three performance layers stack on top of that inner loop:

1. the per-user :class:`~repro.serve.cache.TopKCache` (prefix reads for
   ``k <= cache_k``), bulk-warmed in chunked ``scores_batch`` blocks;
2. the :class:`~repro.serve.coalescer.RequestCoalescer`, which scores a
   lone cache miss at once and answers the misses waiting in its queue
   with one gemm.  Scoring holds the service lock, so a request that
   arrives during a gemm waits at that lock, not in the queue; it
   shares the next gemm only if it queues before the leader looks
   again;
3. the argpartition partial-sort ranking kernel shared with the
   evaluator.

New interactions enter through :meth:`add_interactions`: the immutable
:class:`~repro.data.interactions.InteractionMatrix` is swapped for its
:meth:`~repro.data.interactions.InteractionMatrix.with_appended`
successor and exactly the touched users' cache entries are dropped, so
their next request recomputes.  The model itself is checkpoint-frozen:
appends change what is *filtered*, not what is *scored* (online model
updates are the ROADMAP's incremental-training item, not this layer).

Fault tolerance (``tests/serve/test_service.py::TestGracefulDegradation``):
scoring runs behind a :class:`~repro.reliability.breaker.CircuitBreaker`,
and when it fails — an exception out of the gemm, a NaN or infinite
score, an open breaker — the service *degrades* instead of erroring: it
serves a popularity-ranked fallback over the user's unseen items.
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

from repro.data.interactions import InteractionMatrix
from repro.eval.protocol import rank_unseen
from repro.reliability.breaker import CircuitBreaker, CircuitOpenError
from repro.reliability.faults import FaultInjector
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
    #: Scoring attempts that raised (before the fallback was served).
    scoring_failures: int = 0
    #: Requests answered by the popularity fallback instead of fresh
    #: scoring.
    degraded: int = 0

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
    by the fallback), matching what a load balancer health endpoint
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
        Appends drop the touched users' entries.
    coalesce:
        Batch concurrent cache-miss requests into one ``scores_batch``
        call (:class:`~repro.serve.coalescer.RequestCoalescer`).  A lone
        miss is scored at once; misses that reach the queue together
        share one gemm.
    max_batch:
        The coalescer's largest gemm batch.
    breaker_threshold:
        Circuit breaker around scoring: after ``breaker_threshold``
        consecutive scoring failures the service stops calling the
        scorer for the breaker's default cooldown (30 s) and serves the
        fallback.
    degraded_serving:
        When ``True`` (default) scoring failures are answered with a
        popularity fallback and counted in :class:`ServeStats`;
        ``False`` re-raises them (callers that prefer errors over
        inexact lists).
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
        coalesce: bool = True,
        max_batch: int = 256,
        breaker_threshold: int = 5,
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
        self._cache = TopKCache(cache_k) if cache_k else None
        self._coalescer: Optional[RequestCoalescer] = (
            RequestCoalescer(self._compute_batch, max_batch=max_batch)
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
        self.breaker = CircuitBreaker(breaker_threshold)
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
                cached = self._cache.get(user, k)
                if cached is not None:
                    self.stats.cache_hits += 1
                    return cached
            self.stats.cache_misses += 1
        try:
            if self._coalescer is not None:
                return self._coalescer.submit((user, int(k)))
            return self._compute_batch([(user, int(k))])[0]
        except Exception as error:  # breaker open, non-finite scores, gemm
            return self._degraded_answer(user, int(k), error)

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

    # ------------------------------------------------------------------ #
    # Online updates
    # ------------------------------------------------------------------ #

    def add_interactions(
        self, user_ids: Sequence[int], item_ids: Sequence[int]
    ) -> int:
        """Append observed ``(user, item)`` interactions and invalidate.

        Swaps the interaction matrix for its ``with_appended`` successor
        and drops the cache entries of exactly the users that gained a
        pair: a pair the matrix already stored changes no list.  Returns
        the number of users invalidated.  Ids are passed on uncast, so
        ``with_appended`` rejects non-integer ones (``ValueError``)
        before anything changes.
        """
        users = np.asarray(user_ids).ravel()
        items = np.asarray(item_ids).ravel()
        with self._lock:
            before = self._train
            self._train = after = before.with_appended(users, items)
            self.stats.appends += int(users.size)
            touched = 0
            if self._cache is not None and after is not before:
                cached = [u for u in np.unique(users).tolist() if u in self._cache]
                for user in cached:
                    if after.degree_of(user) != before.degree_of(user):
                        self._cache.invalidate(user)
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
        """Canonical top-``width`` ids and lengths for a chunk of users.

        This is the evaluator's own pipeline,
        :func:`~repro.eval.protocol.rank_unseen`, so served lists and
        offline metrics can never disagree.  A NaN or infinite score
        raises :class:`~repro.eval.protocol.NonFiniteScoresError`, which
        :meth:`_compute_batch` counts as a scoring failure.
        """
        _, ids, lengths = rank_unseen(self.model, self._train, users, width)
        return ids, lengths

    # ------------------------------------------------------------------ #
    # Graceful degradation
    # ------------------------------------------------------------------ #

    def _degraded_answer(
        self, user: int, k: int, error: BaseException
    ) -> np.ndarray:
        """Popularity-ranked unseen items when fresh scoring failed.

        Counted in :class:`ServeStats`; re-raises the scoring error when
        ``degraded_serving`` is off.
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
