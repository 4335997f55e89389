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

The pipeline follows the canonical tie rule of :mod:`repro.eval.topk` and
the sequential-sum metric semantics of :mod:`repro.eval.ranking`, so given
the same score *values* it is **bitwise identical per user** to a per-user
loop over the scalar metric functions — the oracle in
``tests/property/test_property_eval_batch.py``.  The one caveat sits in
the score source, as in the training pipeline: ``scores_batch`` is a BLAS
gemm whose last-ulp rounding can differ from the per-user ``scores``
gemv.  Models that lack ``scores_batch`` are scored per user and stacked.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.backend import kernels
from repro.data.dataset import ImplicitDataset
from repro.eval.ranking import auc_block, ranking_metrics_block

__all__ = [
    "DEFAULT_EVAL_CHUNK",
    "Evaluator",
    "NonFiniteScoresError",
    "check_finite_head",
    "score_block",
]

#: Default users per evaluation chunk.  Smaller than the matmul-oriented
#: :data:`repro.models.base.DEFAULT_SCORE_CHUNK` on purpose: the eval
#: pipeline makes several passes over each chunk's score block (mask,
#: partition, membership scan, hit lookup), so keeping the block
#: cache-resident between passes beats amortizing the gemm further —
#: measured ~1.5x faster than 1024-user chunks at ml-100k scale.  Still
#: bounds peak memory at ``chunk × n_items`` floats; tune per universe.
DEFAULT_EVAL_CHUNK = 256


class NonFiniteScoresError(FloatingPointError):
    """A model scored an unmasked item NaN or ``+inf``.

    Such a score is not rankable: NaN takes a top-k slot yet shortens the
    list, so the metrics of a broken model would read as an ordinary
    result.  The evaluation pipeline raises this instead.
    """


def score_block(model, users: np.ndarray) -> np.ndarray:
    """A writable float ``(len(users), n_items)`` score block.

    Uses the model's ``scores_batch`` when present (one matmul for real
    models); otherwise stacks per-user ``scores`` calls so any object with
    a ``scores(user)`` method — oracle stubs, third-party wrappers — works
    too.  The result may be masked in place: per the
    :class:`~repro.models.base.ScoreModel` ownership contract,
    ``scores_batch`` returns a freshly allocated block on every call, so
    no copy is taken unless a dtype conversion (or a read-only return)
    forces one.

    The block keeps the model's dtype policy (float32 models evaluate at
    float32 — same rankings, half the memory traffic); anything that is
    not already a float array is upcast to float64 as before.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    batch_fn = getattr(model, "scores_batch", None)
    if batch_fn is not None:
        block = np.asarray(batch_fn(users))
        if block.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            block = block.astype(np.float64)
        if not block.flags.writeable:
            block = block.copy()
    else:
        block = np.stack(
            [np.asarray(model.scores(int(u)), dtype=np.float64) for u in users]
        )
    if block.ndim != 2 or block.shape[0] != users.size:
        raise ValueError(
            f"score block must have one row per user, got shape {block.shape} "
            f"for {users.size} users"
        )
    return block


def check_finite_head(
    masked: np.ndarray, ranked: np.ndarray, users: np.ndarray
) -> None:
    """Raise :class:`NonFiniteScoresError` if a ranked row holds NaN/``+inf``.

    ``masked`` is a masked score block, ``ranked`` its ``kernels.topk``
    ids (``-1`` padding) and ``users`` the block's users; the error names
    the first affected user.  ``argpartition`` ranks NaN and ``+inf``
    above every finite score, so each affected row holds one among its
    top-``k`` ids: checking those ``(U, k)`` scores finds every such row
    without another pass over the block.  The evaluator and the ranking
    service both call this, so neither ranks a broken model.
    """
    head = np.take_along_axis(masked, np.maximum(ranked, 0), axis=1)
    broken = np.any((ranked >= 0) & ~np.isfinite(head), axis=1)
    if broken.any():
        raise NonFiniteScoresError(
            f"model produced a non-finite score for user "
            f"{int(users[np.argmax(broken)])}"
        )


def _iter_ranked_chunks(model, dataset, users, k, chunk_users):
    """Drive the chunked score → mask → top-K → hit pipeline.

    Yields ``(chunk, block, mask_rows, mask_cols, ranked, hits)`` per
    chunk of ``users``: the chunk's score block (train positives already
    masked to ``-inf`` at ``block[mask_rows, mask_cols]``), its ranked-id
    matrix at cutoff ``k``, and the boolean hit matrix against the test
    split.  Shared by :class:`Evaluator`,
    :func:`repro.eval.stratified.stratified_recall` and
    :func:`repro.eval.diversity.recommendation_footprint` so the
    protocol's masking and tie semantics live in exactly one place.

    Raises :class:`NonFiniteScoresError` through :func:`check_finite_head`
    when a chunk scores an unmasked item NaN or ``+inf``.
    """
    train, test = dataset.train, dataset.test
    for start in range(0, users.size, chunk_users):
        chunk = users[start : start + chunk_users]
        block = score_block(model, chunk)
        rows, cols = train.positives_in_rows(chunk)
        block[rows, cols] = -np.inf
        ranked, _ = kernels.topk(block, k)
        check_finite_head(block, ranked, chunk)
        hits = test.hits_in_rows(chunk, ranked)
        yield chunk, block, rows, cols, ranked, hits


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
        Optional cap: evaluate a reproducible subset of users (ordered ids)
        — used by fast benchmarks.
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

        for chunk, block, rows, cols, ranked, hits in _iter_ranked_chunks(
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
                block[rows, cols] = np.inf
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
        users = self.dataset.evaluable_users()
        if self.max_users is not None:
            users = users[: self.max_users]
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
