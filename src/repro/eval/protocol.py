"""The full evaluation protocol behind Table II.

For each user with at least one test positive: rank all un-interacted
items by the model's scores, compute Precision/Recall/NDCG at each cutoff
(plus optional extras), and average over users.

Users are processed in chunks of ``chunk_users``: one
:meth:`~repro.models.base.ScoreModel.scores_batch` call fetches the
chunk's ``(U, n_items)`` score block, train positives are masked out with
one :meth:`~repro.data.interactions.InteractionMatrix.positives_in_rows`
scatter, the whole chunk's top-``max(ks)`` lists come from one
:func:`~repro.eval.topk.top_k_items_batch` call, the hit matrix is one
CSR lookup (:meth:`~repro.data.interactions.InteractionMatrix.
hits_in_rows` against the test split), and every metric at every cutoff
is cumulative-sum algebra over that matrix
(:func:`~repro.eval.ranking.ranking_metrics_block`).  No per-user Python,
no per-metric ``isin``; peak memory is bounded by
``chunk_users × n_items`` so million-user evaluation streams.

The score → mask → top-K steps are :func:`rank_unseen`, which
:class:`~repro.serve.service.RankingService` calls too, so served lists
equal the evaluator's by construction.

The pipeline follows the canonical tie rule of :mod:`repro.eval.topk` and
the sequential-sum metric semantics of :mod:`repro.eval.ranking`, so given
the same score *values* it is **bitwise identical per user** to a per-user
loop over the scalar metric functions — the oracle in
``tests/property/test_property_eval_batch.py``.  The one caveat sits in
the score source, as in the training pipeline: ``scores_batch`` is a BLAS
gemm whose last-ulp rounding can differ from the per-user ``scores``
gemv.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.backend import kernels
from repro.data.dataset import ImplicitDataset
from repro.eval.ranking import auc_block, ranking_metrics_block

__all__ = [
    "DEFAULT_EVAL_CHUNK",
    "Evaluator",
    "NonFiniteScoresError",
    "check_finite_head",
    "rank_unseen",
    "score_block",
]

#: Default users per evaluation chunk.  Small on purpose: the eval
#: pipeline makes several passes over each chunk's score block (mask,
#: partition, membership scan, hit lookup), so keeping the block
#: cache-resident between passes beats amortizing the gemm further —
#: measured ~1.5x faster than 1024-user chunks at ml-100k scale.  Still
#: bounds peak memory at ``chunk × n_items`` floats; tune per universe.
DEFAULT_EVAL_CHUNK = 256


class NonFiniteScoresError(FloatingPointError):
    """A model scored an unmasked item NaN, ``+inf`` or ``-inf``.

    Such a score is not rankable: NaN takes a top-k slot yet shortens the
    list, and ``-inf`` ranks the item with the masked ones, so the item
    silently drops off a list that should hold it.  Either way the
    metrics of a broken model would read as an ordinary result.  The
    ranking pipeline (:func:`rank_unseen`) raises this instead.
    """


def score_block(model, users: np.ndarray) -> np.ndarray:
    """A writable float ``(len(users), n_items)`` score block.

    One ``scores_batch`` call on the model (one matmul for real models).
    The result may be masked in place: per the
    :class:`~repro.models.base.ScoreModel` ownership contract,
    ``scores_batch`` returns a freshly allocated block on every call, so
    no copy is taken unless a dtype conversion (or a read-only return)
    forces one.

    The block keeps the model's dtype policy (float32 models evaluate at
    float32 — same rankings, half the memory traffic); anything that is
    not already a float array is upcast to float64 as before.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    block = np.asarray(model.scores_batch(users))
    if block.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        block = block.astype(np.float64)
    if not block.flags.writeable:
        block = block.copy()
    if block.ndim != 2 or block.shape[0] != users.size:
        raise ValueError(
            f"score block must have one row per user, got shape {block.shape} "
            f"for {users.size} users"
        )
    return block


def check_finite_head(
    masked: np.ndarray,
    ranked: np.ndarray,
    lengths: np.ndarray,
    n_unseen: np.ndarray,
    users: np.ndarray,
) -> None:
    """Raise :class:`NonFiniteScoresError` unless every ranked row is a
    full list of finite scores.

    ``masked`` is a masked score block, ``ranked`` and ``lengths`` its
    ``kernels.topk`` result (``-1`` padding), ``n_unseen`` each row's
    number of unmasked items and ``users`` the block's users; the error
    names the first affected user.  ``argpartition`` ranks NaN and
    ``+inf`` above every finite score, so each such row holds one among
    its top-``k`` ids: checking those ``(U, k)`` scores finds every such
    row without another pass over the block.  An unmasked ``-inf`` sinks
    with the masked items instead, and the row comes out shorter than
    ``min(k, n_unseen)``.
    """
    head = np.take_along_axis(masked, np.maximum(ranked, 0), axis=1)
    broken = np.any((ranked >= 0) & ~np.isfinite(head), axis=1)
    broken |= lengths < np.minimum(ranked.shape[1], n_unseen)
    if broken.any():
        raise NonFiniteScoresError(
            f"model produced a non-finite score for user "
            f"{int(users[np.argmax(broken)])}"
        )


def rank_unseen(
    model, train, users: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank each user's unseen items: the one ranking pipeline.

    :func:`score_block` → mask ``train`` positives to ``-inf`` →
    ``kernels.topk`` → :func:`check_finite_head`.  The evaluator and
    :class:`~repro.serve.service.RankingService` both call this, so
    served lists and offline metrics cannot disagree.  Returns
    ``(block, ranked, lengths)``: the masked score block, its canonical
    top-``k`` ids (``-1`` padding) and the list lengths.  Raises
    :class:`NonFiniteScoresError` through :func:`check_finite_head`.
    """
    block = score_block(model, users)
    block[train.positives_in_rows(users)] = -np.inf
    ranked, lengths = kernels.topk(block, k)
    n_unseen = train.n_items - train.degrees_of(users)
    check_finite_head(block, ranked, lengths, n_unseen, users)
    return block, ranked, lengths


def _check_max_users(max_users: Optional[int]) -> Optional[int]:
    """``max_users`` unchanged; a cap below 1 raises ``ValueError``."""
    if max_users is not None and max_users < 1:
        raise ValueError(f"max_users must be >= 1 or None, got {max_users}")
    return max_users


def _cap_users(users: np.ndarray, max_users: Optional[int]) -> np.ndarray:
    """The first ``max_users`` of ``users``, or all of them for ``None``.

    Shared by :class:`Evaluator` and
    :func:`repro.eval.diversity.recommendation_footprint`.  A cap below 1
    raises ``ValueError``: as a slice, ``-1`` would silently drop the last
    user and ``0`` would evaluate nobody.
    """
    if _check_max_users(max_users) is None:
        return users
    return users[:max_users]


def _iter_ranked_chunks(model, dataset, users, k, chunk_users):
    """Drive the chunked :func:`rank_unseen` → hit pipeline.

    Yields ``(chunk, block, ranked, hits)`` per chunk of ``users``: the
    chunk's score block (train positives masked to ``-inf``), its
    ranked-id matrix at cutoff ``k``, and the boolean hit matrix against
    the test split.  Shared by :class:`Evaluator` and
    :func:`repro.eval.diversity.recommendation_footprint`.  Raises
    :class:`NonFiniteScoresError` through :func:`rank_unseen`.
    """
    for start in range(0, users.size, chunk_users):
        chunk = users[start : start + chunk_users]
        block, ranked, _ = rank_unseen(model, dataset.train, chunk, k)
        yield chunk, block, ranked, dataset.test.hits_in_rows(chunk, ranked)


class Evaluator:
    """Compute averaged ranking metrics on a dataset's test split.

    Parameters
    ----------
    dataset:
        Supplies train positives (masked out of rankings) and test
        positives (the relevance labels).
    ks:
        Cutoffs; the paper reports ``(5, 10, 20)``.
    extra_metrics:
        When true, additionally reports ``hitrate@K``, ``map@K``, ``mrr``
        and ``auc`` (not in the paper's tables but standard).  AUC
        re-ranks each chunk's full score block, roughly doubling
        per-chunk cost and memory.
    max_users:
        Optional cap of at least 1: evaluate a reproducible subset of
        users (the first ``max_users`` ids) — used by fast benchmarks.
    chunk_users:
        Users per score block; bounds peak memory at
        ``chunk_users × n_items`` floats and controls cache residency
        (see :data:`DEFAULT_EVAL_CHUNK`).  Lower it for huge item
        universes or when ``extra_metrics`` doubles the per-chunk
        footprint.
    """

    def __init__(
        self,
        dataset: ImplicitDataset,
        ks: Sequence[int] = (5, 10, 20),
        *,
        extra_metrics: bool = False,
        max_users: Optional[int] = None,
        chunk_users: int = DEFAULT_EVAL_CHUNK,
    ) -> None:
        if not ks:
            raise ValueError("ks must contain at least one cutoff")
        if any(k < 1 for k in ks):
            raise ValueError(f"all cutoffs must be >= 1, got {ks}")
        if chunk_users < 1:
            raise ValueError(f"chunk_users must be >= 1, got {chunk_users}")
        self.dataset = dataset
        self.ks = tuple(int(k) for k in ks)
        self.extra_metrics = bool(extra_metrics)
        self.max_users = max_users
        self.chunk_users = int(chunk_users)

    # ------------------------------------------------------------------ #

    def evaluate(self, model) -> Dict[str, float]:
        """Averaged metrics, keyed ``precision@5``, ``recall@10``, …"""
        per_user = self.evaluate_per_user(model)
        return {key: float(values.mean()) for key, values in per_user.items()}

    def evaluate_per_user(self, model) -> Dict[str, np.ndarray]:
        """Per-user metric arrays (aligned with :meth:`evaluated_users`).

        This is what paired significance tests consume
        (:mod:`repro.eval.significance`): comparing two models on the same
        users requires the un-averaged values.
        """
        users = self.evaluated_users()
        train = self.dataset.train
        test = self.dataset.test
        parts: Dict[str, list] = {key: [] for key in self._metric_keys()}

        for chunk, block, ranked, hits in _iter_ranked_chunks(
            model, self.dataset, users, max(self.ks), self.chunk_users
        ):
            n_relevant = test.degrees_of(chunk)
            metrics = ranking_metrics_block(
                hits, n_relevant, self.ks, extra_metrics=self.extra_metrics
            )
            if self.extra_metrics:
                # Reuse the chunk's block for AUC: flip the train-positive
                # mask from -inf (bottom of the top-K ranking) to +inf
                # (past the end of the ascending candidate ranking).
                block[train.positives_in_rows(chunk)] = np.inf
                metrics["auc"] = auc_block(
                    block,
                    train.n_items - train.degrees_of(chunk),
                    *test.positives_in_rows(chunk),
                )
            for key in parts:
                parts[key].append(metrics[key])

        return {
            key: np.concatenate(values) if len(values) > 1 else values[0]
            for key, values in parts.items()
        }

    def evaluated_users(self) -> np.ndarray:
        """The user ids evaluation iterates, in order."""
        users = _cap_users(self.dataset.evaluable_users(), self.max_users)
        if users.size == 0:
            raise ValueError("no users with test positives to evaluate")
        return users

    # ------------------------------------------------------------------ #

    def _metric_keys(self) -> list:
        """Metric keys in canonical (insertion) order."""
        keys = []
        for k in self.ks:
            keys.extend([f"precision@{k}", f"recall@{k}", f"ndcg@{k}"])
            if self.extra_metrics:
                keys.extend([f"hitrate@{k}", f"map@{k}"])
        if self.extra_metrics:
            keys.extend(["mrr", "auc"])
        return keys
