"""Ranking metrics: per-user scalars and whole-block array kernels.

Two families share one set of formulas:

* the **scalar** functions (``precision_at_k`` …) take a *ranked* array of
  recommended item ids (best first, train positives already excluded) and
  the user's set of relevant items (test positives), returning a scalar in
  [0, 1] — the reference implementations the tests reason about and
  build the evaluator's per-user oracle from;
* the **block** kernels take a ``(U, W)`` boolean hit matrix (row ``r``
  = user ``r``'s hit flags down their ranked list, padded ``False`` past
  the list length) and return ``(U,)`` arrays — the vectorized evaluation
  hot path.  :func:`ranking_metrics_block` computes every hit-derived
  metric at every cutoff at once; :func:`auc_block` ranks scores instead.

Every sum in both families is accumulated **sequentially in rank order**
(``np.cumsum``), so for identical hit patterns the scalar value and the
kernel row are bitwise equal — the invariant the evaluator's oracle parity
tests pin.  (Summing the hit terms in rank order also keeps the
classic property that a perfect ranking's DCG equals its ideal DCG exactly,
making NDCG exactly 1.0 instead of drifting an ulp above it.)
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

import numpy as np

__all__ = [
    "precision_at_k",
    "recall_at_k",
    "ndcg_at_k",
    "hit_rate_at_k",
    "average_precision_at_k",
    "reciprocal_rank",
    "auc",
    "reciprocal_rank_block",
    "auc_block",
    "ranking_metrics_block",
]


# ---------------------------------------------------------------------- #
# Shared pieces
# ---------------------------------------------------------------------- #

#: Lazily grown cache of the DCG discounts ``1 / log2(r + 2)``.
_DISCOUNT_CACHE = np.empty(0)


def _discounts(n: int) -> np.ndarray:
    """The first ``n`` DCG discount terms (cached, read-only view)."""
    global _DISCOUNT_CACHE
    if _DISCOUNT_CACHE.size < n:
        _DISCOUNT_CACHE = 1.0 / np.log2(np.arange(max(n, 32)) + 2.0)
        _DISCOUNT_CACHE.flags.writeable = False
    return _DISCOUNT_CACHE[:n]


def _hits(ranked: np.ndarray, relevant: Set[int], k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    head = np.asarray(ranked).ravel()[:k]
    if not relevant:
        return np.zeros(head.size, dtype=bool)
    relevant_arr = np.fromiter(relevant, dtype=np.int64)
    return np.isin(head, relevant_arr)


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum (``cumsum`` order, not pairwise)."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


# ---------------------------------------------------------------------- #
# Scalar metrics
# ---------------------------------------------------------------------- #


def precision_at_k(ranked: np.ndarray, relevant: Set[int], k: int) -> float:
    """Fraction of the top-``k`` recommendations that are relevant.

    Follows the paper's convention of dividing by ``k`` even if the user
    has fewer than ``k`` relevant items.
    """
    return float(_hits(ranked, relevant, k).sum() / k)


def recall_at_k(ranked: np.ndarray, relevant: Set[int], k: int) -> float:
    """Fraction of the user's relevant items found in the top-``k``."""
    if not relevant:
        return 0.0
    return float(_hits(ranked, relevant, k).sum() / len(relevant))


def ndcg_at_k(ranked: np.ndarray, relevant: Set[int], k: int) -> float:
    """Normalized discounted cumulative gain with binary relevance.

    ``DCG = Σ_r hit_r / log2(r + 2)`` over ranks ``r = 0..k-1``;
    the ideal DCG places all (up to ``k``) relevant items first.
    """
    hit_flags = _hits(ranked, relevant, k)
    if not relevant:
        return 0.0
    # Sum only the hit terms, in rank order: when every hit sits at the
    # top, this makes the DCG sum bitwise identical to the ideal sum (same
    # addends, same order), so the ratio is exactly 1.0 instead of
    # drifting an ulp above it.
    hit_ranks = np.flatnonzero(hit_flags)
    dcg = _sequential_sum(1.0 / np.log2(hit_ranks + 2.0))
    n_ideal = min(len(relevant), k)
    ideal = _sequential_sum(1.0 / np.log2(np.arange(n_ideal) + 2.0))
    return dcg / ideal if ideal > 0 else 0.0


def hit_rate_at_k(ranked: np.ndarray, relevant: Set[int], k: int) -> float:
    """1 if any relevant item appears in the top-``k``, else 0."""
    return float(bool(_hits(ranked, relevant, k).any()))


def average_precision_at_k(ranked: np.ndarray, relevant: Set[int], k: int) -> float:
    """AP@k: precision averaged at each relevant rank, over min(|rel|, k)."""
    hit_flags = _hits(ranked, relevant, k)
    if not relevant:
        return 0.0
    if not hit_flags.any():
        return 0.0
    cumulative = np.cumsum(hit_flags)
    ranks = np.arange(1, hit_flags.size + 1)
    precisions = cumulative[hit_flags] / ranks[hit_flags]
    return _sequential_sum(precisions) / min(len(relevant), k)


def reciprocal_rank(ranked: np.ndarray, relevant: Set[int]) -> float:
    """1 / (rank of the first relevant item), 0 when none appears."""
    ranked = np.asarray(ranked).ravel()
    if not relevant:
        return 0.0
    relevant_arr = np.fromiter(relevant, dtype=np.int64)
    hits = np.isin(ranked, relevant_arr)
    positions = np.nonzero(hits)[0]
    if positions.size == 0:
        return 0.0
    return float(1.0 / (positions[0] + 1))


def auc(scores: np.ndarray, relevant_mask: np.ndarray, candidate_mask: np.ndarray) -> float:
    """Pairwise ranking accuracy among candidate items.

    ``scores`` covers all items; ``relevant_mask`` marks test positives and
    ``candidate_mask`` the items eligible for ranking (typically everything
    except train positives).  Computed exactly via rank statistics
    (Mann–Whitney), ties counted one half.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    relevant_mask = np.asarray(relevant_mask, dtype=bool).ravel()
    candidate_mask = np.asarray(candidate_mask, dtype=bool).ravel()
    if not (scores.size == relevant_mask.size == candidate_mask.size):
        raise ValueError("scores and masks must have identical length")
    positives = scores[relevant_mask & candidate_mask]
    negatives = scores[~relevant_mask & candidate_mask]
    if positives.size == 0 or negatives.size == 0:
        return 0.5
    pooled = np.concatenate([positives, negatives])
    # Average ranks with tie correction via double argsort of stable order.
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(pooled.size, dtype=np.float64)
    sorted_scores = pooled[order]
    # Assign average rank to ties in one pass.
    boundaries = np.nonzero(np.diff(sorted_scores))[0] + 1
    groups = np.split(order, boundaries)
    position = 0
    for group in groups:
        size = group.size
        ranks[group] = position + (size + 1) / 2.0
        position += size
    rank_sum = ranks[: positives.size].sum()
    u_statistic = rank_sum - positives.size * (positives.size + 1) / 2.0
    return float(u_statistic / (positives.size * negatives.size))


# ---------------------------------------------------------------------- #
# Block kernels (one row per user)
# ---------------------------------------------------------------------- #


def _check_hits_block(hits: np.ndarray, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = np.asarray(hits, dtype=bool)
    if hits.ndim != 2:
        raise ValueError(f"hit matrix must be 2-D, got {hits.ndim}-D")
    return hits


def reciprocal_rank_block(hits: np.ndarray) -> np.ndarray:
    """Row-wise :func:`reciprocal_rank` over the full hit matrix width."""
    hits = _check_hits_block(hits, 1)
    if hits.shape[1] == 0:
        return np.zeros(hits.shape[0])
    first = np.argmax(hits, axis=1)
    return np.where(hits.any(axis=1), 1.0 / (first + 1), 0.0)


def auc_block(
    scores: np.ndarray,
    n_candidates: np.ndarray,
    relevant_rows: np.ndarray,
    relevant_cols: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`auc` for a score block.

    Parameters
    ----------
    scores:
        ``(U, n_items)`` block with **non-candidate** items (train
        positives) pushed to ``+inf`` so one ascending sort per row leaves
        every candidate in its pooled rank position.  Candidate scores must
        be finite.  Not modified.
    n_candidates:
        Candidate count per row (``n_items`` minus the row's train degree).
    relevant_rows, relevant_cols:
        Scatter coordinates of the relevant (test-positive) items, row-major
        with ascending columns per row — exactly the layout
        :meth:`~repro.data.interactions.InteractionMatrix.positives_in_rows`
        produces for the test matrix.

    Ties average their ranks (Mann–Whitney), matching the scalar function
    bitwise: average ranks are exact half-integers, and each row's positive
    ranks are summed with the same contiguous ``np.sum`` the scalar
    function uses.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n_rows, n_items = scores.shape
    n_candidates = np.asarray(n_candidates, dtype=np.int64).ravel()
    relevant_rows = np.asarray(relevant_rows, dtype=np.int64).ravel()
    relevant_cols = np.asarray(relevant_cols, dtype=np.int64).ravel()

    order = np.argsort(scores, axis=1, kind="stable")
    sorted_scores = np.take_along_axis(scores, order, axis=1)
    new_group = np.ones((n_rows, n_items), dtype=bool)
    new_group[:, 1:] = sorted_scores[:, 1:] != sorted_scores[:, :-1]
    starts = np.flatnonzero(new_group.ravel())
    sizes = np.diff(np.append(starts, n_rows * n_items))
    # Average rank of a tie group spanning [start, start + size) within its
    # row: start + (size + 1) / 2 — exact half-integers, as in the scalar.
    start_in_row = starts % n_items
    avg_rank = np.repeat(start_in_row, sizes) + (np.repeat(sizes, sizes) + 1) / 2.0
    ranks = np.empty((n_rows, n_items))
    np.put_along_axis(ranks, order, avg_rank.reshape(n_rows, n_items), axis=1)

    relevant_ranks = ranks[relevant_rows, relevant_cols]
    n_positive = np.bincount(relevant_rows, minlength=n_rows).astype(np.int64)
    bounds = np.concatenate([[0], np.cumsum(n_positive)])
    out = np.full(n_rows, 0.5)
    for row in range(n_rows):
        n_pos = int(n_positive[row])
        n_neg = int(n_candidates[row]) - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        rank_sum = relevant_ranks[bounds[row] : bounds[row + 1]].sum()
        u_statistic = rank_sum - n_pos * (n_pos + 1) / 2.0
        out[row] = u_statistic / (n_pos * n_neg)
    return out


def ranking_metrics_block(
    hits: np.ndarray,
    n_relevant: np.ndarray,
    ks: Sequence[int],
    *,
    extra_metrics: bool = False,
) -> Dict[str, np.ndarray]:
    """All hit-derived metrics for all users and all cutoffs at once.

    Returns ``{"precision@k": (U,) array, ...}`` in the evaluator's
    canonical key order (``mrr`` last; ``auc`` needs scores, not hits, and
    is appended by the caller via :func:`auc_block`).

    The shared cumulative sums (hit counts, DCG terms, AP numerators) are
    computed once and sliced per cutoff, so the per-metric cost beyond
    them is one ``(U,)`` arithmetic pass.  Each row is bitwise identical
    to the scalar functions on the same hit pattern (pinned by
    ``tests/eval/test_ranking_blocks.py``).
    """
    hits = _check_hits_block(hits, min(ks) if ks else 1)
    n_relevant = np.asarray(n_relevant, dtype=np.int64).ravel()
    n_rows, width = hits.shape
    if width:
        cum_hits = np.cumsum(hits, axis=1, dtype=np.int64)
        dcg_cum = np.cumsum(_discounts(width) * hits, axis=1)
        if extra_metrics:
            ranks = np.arange(1, width + 1)
            ap_cum = np.cumsum(np.where(hits, cum_hits / ranks, 0.0), axis=1)
    out: Dict[str, np.ndarray] = {}
    for k in ks:
        if width:
            idx = min(k, width) - 1
            counted = cum_hits[:, idx]
            dcg = dcg_cum[:, idx]
        else:
            counted = np.zeros(n_rows, dtype=np.int64)
            dcg = np.zeros(n_rows)
        # The ideal list is not truncated by the row's list length: a user
        # with more relevant items than eligible slots still normalizes by
        # the full min(|rel|, k)-term ideal, exactly like ndcg_at_k.
        n_ideal = np.minimum(n_relevant, k)
        ideal_cum = np.cumsum(_discounts(k))
        ideal = np.where(n_ideal > 0, ideal_cum[np.maximum(n_ideal, 1) - 1], 0.0)
        out[f"precision@{k}"] = counted / k
        out[f"recall@{k}"] = np.where(
            n_relevant > 0, counted / np.maximum(n_relevant, 1), 0.0
        )
        out[f"ndcg@{k}"] = np.where(
            ideal > 0, dcg / np.where(ideal > 0, ideal, 1.0), 0.0
        )
        if extra_metrics:
            out[f"hitrate@{k}"] = (counted > 0).astype(np.float64)
            numerator = ap_cum[:, idx] if width else np.zeros(n_rows)
            out[f"map@{k}"] = np.where(
                n_ideal > 0, numerator / np.maximum(n_ideal, 1), 0.0
            )
    if extra_metrics:
        out["mrr"] = reciprocal_rank_block(hits)
    return out
