"""Popularity-stratified evaluation: head / mid / tail recall.

Negative sampling redistributes gradient across the popularity spectrum
(see the footprint ablation), so aggregate metrics can hide *where* a
sampler wins.  This splits test items into popularity buckets by their
training interaction counts and reports recall@K within each bucket.

Like the main protocol (:mod:`repro.eval.protocol`), the recall pass runs
on the chunked batched pipeline: one score block, one positive-mask
scatter, one batched top-K and one CSR hit lookup per ``chunk_users``
users, with the bucket tallies reduced by ``np.bincount`` — the counts are
integers, so the result is exactly the per-user loop's.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.eval.protocol import DEFAULT_EVAL_CHUNK, _cap_users, _iter_ranked_chunks

__all__ = ["popularity_buckets", "stratified_recall"]


def popularity_buckets(
    dataset: ImplicitDataset, quantiles: Sequence[float] = (0.5, 0.8)
) -> np.ndarray:
    """Assign each item a bucket id by training-popularity quantile.

    With the default ``(0.5, 0.8)``: bucket 0 = tail (bottom half), 1 =
    mid, 2 = head (top 20%).  Returns an ``(n_items,)`` int array.
    """
    if not all(0.0 < q < 1.0 for q in quantiles):
        raise ValueError(f"quantiles must lie in (0, 1), got {quantiles}")
    if list(quantiles) != sorted(quantiles):
        raise ValueError(f"quantiles must be increasing, got {quantiles}")
    popularity = dataset.train.item_popularity.astype(np.float64)
    edges = np.quantile(popularity, quantiles)
    return np.searchsorted(edges, popularity, side="right").astype(np.int64)


def stratified_recall(
    model,
    dataset: ImplicitDataset,
    k: int = 20,
    *,
    quantiles: Sequence[float] = (0.5, 0.8),
    max_users: Optional[int] = None,
    chunk_users: int = DEFAULT_EVAL_CHUNK,
) -> Dict[str, float]:
    """Recall@K computed separately per popularity bucket.

    Recall within a bucket = (test items of that bucket found in top-K) /
    (test items of that bucket), pooled over users — pooling avoids the
    instability of per-user bucket recalls when a user has one tail item.
    Returns ``{"recall@K/tail": …, "recall@K/mid": …, "recall@K/head": …}``
    (bucket names generalize as ``bucket0..n`` for non-default quantiles).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if chunk_users < 1:
        raise ValueError(f"chunk_users must be >= 1, got {chunk_users}")
    buckets = popularity_buckets(dataset, quantiles)
    n_buckets = len(quantiles) + 1
    names = (
        ["tail", "mid", "head"]
        if n_buckets == 3
        else [f"bucket{i}" for i in range(n_buckets)]
    )

    hits = np.zeros(n_buckets, dtype=np.int64)
    totals = np.zeros(n_buckets, dtype=np.int64)
    users = _cap_users(dataset.evaluable_users(), max_users)
    for chunk, _, ranked, hit_matrix in _iter_ranked_chunks(
        model, dataset, users, k, chunk_users
    ):
        _, test_cols = dataset.test.positives_in_rows(chunk)
        totals += np.bincount(buckets[test_cols], minlength=n_buckets)
        hits += np.bincount(buckets[ranked[hit_matrix]], minlength=n_buckets)

    out: Dict[str, float] = {}
    for bucket, name in enumerate(names):
        if totals[bucket] == 0:
            out[f"recall@{k}/{name}"] = float("nan")
        else:
            out[f"recall@{k}/{name}"] = float(hits[bucket] / totals[bucket])
    return out
