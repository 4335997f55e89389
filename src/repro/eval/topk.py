"""Top-K recommendation extraction, per user and batched.

The protocol: a user's recommendation list ranks his *un-interacted* items
by predicted score — train positives are masked out, test positives stay in
(they are exactly what a good model should surface).

Canonical ordering
------------------
Both the per-user and the batched extractors rank by **descending score
with ascending item id breaking ties** — including ties that straddle the
cut-off, where the tied items with the smallest ids win the remaining
slots.  The rule makes the ranked list a pure function of the score
*values* (no dependence on ``argpartition``'s implementation-defined
ordering), which is what lets the tests pin the evaluator exactly equal,
per user, to a per-user oracle built on :func:`top_k_items`.

Only finite scores are rankable: masked items sit at ``-inf`` and models
are expected to emit finite scores for everything else.

Two implementations compute the canonical result:

* :func:`top_k_items_batch` — the **argpartition fast path** shared by the
  evaluator and the serving layer: one ``argpartition`` selects each row's
  head, ties that straddle the cut-off are repaired to the canonical rule
  on the (rare) rows that need it, and two small ``(U, k)`` sorts produce
  the final ordering.  The full-width passes are one partial select and
  one equality scan, independent of how many entries clear the cut-off.
* :func:`top_k_items_batch_reference` — the membership-scan kernel and
  executable specification.  The fast path calls it to repair the rows
  whose ties straddle the cut-off, and the two are pinned bitwise-equal
  (ids, lengths and padding) by ``tests/eval/test_topk.py`` and the
  property suite.

:func:`top_k_items` is the per-user form: it masks one score vector and
runs it through :func:`top_k_items_batch` as a one-row block.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "top_k_items",
    "top_k_items_batch",
    "top_k_items_batch_reference",
]


def top_k_items(
    scores: np.ndarray,
    train_positives: np.ndarray,
    k: int,
) -> np.ndarray:
    """Top-``k`` item ids by score with train positives excluded.

    Parameters
    ----------
    scores:
        The user's full score vector.
    train_positives:
        Item ids to exclude from the ranking.
    k:
        List length; truncated to the number of eligible items.
    """
    masked = np.asarray(scores, dtype=np.float64).copy()
    masked[np.asarray(train_positives, dtype=np.int64)] = -np.inf
    ids, lengths = top_k_items_batch(masked[None, :], k)
    return ids[0, : lengths[0]]


def _check_block(
    masked: np.ndarray, k: int
) -> Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """Shared argument contract of the two batch kernels.

    Returns ``(block, early_result)`` where ``early_result`` is the
    degenerate answer for empty blocks (no rows, or ``width == 0``) and
    ``None`` when the caller should run the real kernel.

    Float score blocks keep their dtype (the float32 fast path ranks at
    float32 — rankings depend only on comparisons, so the canonical rule
    holds at any precision); non-float inputs are upcast to float64
    exactly as before.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    masked = np.asarray(masked)
    if masked.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        masked = masked.astype(np.float64)
    if masked.ndim != 2:
        raise ValueError(f"score block must be 2-D, got {masked.ndim}-D")
    n_rows, n_items = masked.shape
    width = min(int(k), n_items)
    if n_rows == 0 or width == 0:
        return masked, (
            np.full((n_rows, width), -1, dtype=np.int64),
            np.zeros(n_rows, dtype=np.int64),
        )
    return masked, None


def top_k_items_batch(
    masked: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise top-``k`` ids for a whole ``(U, n_items)`` score block.

    Parameters
    ----------
    masked:
        Score block with one row per user and excluded items already set
        to ``-inf`` (see
        :meth:`repro.data.interactions.InteractionMatrix.positives_in_rows`
        for the vectorized scatter).  Not modified.
    k:
        List length per row.

    Returns
    -------
    ids, lengths:
        ``ids`` has shape ``(U, min(k, n_items))``; row ``r`` holds user
        ``r``'s recommendation list in canonical order (module docstring)
        in ``ids[r, :lengths[r]]``, padded with ``-1`` past ``lengths[r]``
        when the row has fewer than ``min(k, n_items)`` eligible items.

    This is the argpartition fast path: one ``argpartition`` pulls each
    row's ``width`` largest entries (arbitrary internal order, arbitrary
    choice among cut-off ties), one equality scan counts how many
    cut-off-valued entries the full row holds, and only the rows where
    ties straddle the boundary — where argpartition's arbitrary choice
    could differ from the canonical smallest-ids rule — are repaired via
    the reference kernel.  Ordering within the head is two ``(U, width)``
    sorts: ascending id first, then a stable sort by descending score,
    which realizes "descending score, ascending id" exactly.
    """
    masked, shaped = _check_block(masked, k)
    if shaped is not None:
        return shaped
    n_rows, n_items = masked.shape
    width = min(int(k), n_items)

    head_ids = np.argpartition(masked, n_items - width, axis=1)[:, n_items - width :]
    head_scores = np.take_along_axis(masked, head_ids, axis=1)
    cutoff = head_scores.min(axis=1)

    # Ties straddle the cut-off when the full row holds more entries at
    # the cut-off value than the head does; argpartition picked an
    # arbitrary subset of them, the canonical rule wants the smallest
    # ids.  Rows whose cut-off is -inf never need repair: every eligible
    # (> -inf) entry is already in the head and -inf entries are padding.
    n_tie_all = np.count_nonzero(masked == cutoff[:, None], axis=1)
    n_tie_head = np.count_nonzero(head_scores == cutoff[:, None], axis=1)
    ambiguous = (n_tie_all > n_tie_head) & ~np.isneginf(cutoff)
    if np.any(ambiguous):
        rows = np.nonzero(ambiguous)[0]
        fixed_ids, _ = top_k_items_batch_reference(masked[rows], width)
        repaired = np.where(fixed_ids >= 0, fixed_ids, 0)
        repaired_scores = np.take_along_axis(masked[rows], repaired, axis=1)
        repaired_scores[fixed_ids < 0] = -np.inf
        head_ids[rows] = repaired
        head_scores[rows] = repaired_scores

    # Canonical ordering: ascending-id pre-sort, then a stable descending
    # score sort; -inf head entries sink to the tail and become padding.
    id_order = np.argsort(head_ids, axis=1)
    head_ids = np.take_along_axis(head_ids, id_order, axis=1)
    head_scores = np.take_along_axis(head_scores, id_order, axis=1)
    score_order = np.argsort(-head_scores, axis=1, kind="stable")
    ids = np.take_along_axis(head_ids, score_order, axis=1)
    ordered_scores = np.take_along_axis(head_scores, score_order, axis=1)
    ids[np.isneginf(ordered_scores)] = -1
    lengths = np.count_nonzero(ordered_scores > -np.inf, axis=1).astype(np.int64)
    return ids, lengths


def top_k_items_batch_reference(
    masked: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Membership-scan reference kernel (the executable specification).

    Same contract and bitwise-identical output as
    :func:`top_k_items_batch`; kept because its correctness argument is
    direct (one ``>=`` membership pass with explicit tie quotas) and as
    the comparison target for the fast path's parity tests.

    The whole block costs one ``partition`` (the per-row cut-off value),
    two boolean passes (membership, with boundary ties resolved to the
    smallest ids), and one ``(U, width)`` head sort — no per-row Python.
    """
    masked, shaped = _check_block(masked, k)
    if shaped is not None:
        return shaped
    n_rows, n_items = masked.shape
    width = min(int(k), n_items)

    # The width-th largest value per row bounds the head.  Everything
    # strictly above it is in; the remaining slots go to the tied items
    # with the smallest ids (canonical rule).  Rows with fewer than
    # `width` eligible items get a -inf cut-off, which zeroes the tie
    # quota so exactly the eligible (> -inf) entries are selected.
    # One >= comparison and one (row-major, hence ascending-id-per-row)
    # np.nonzero are the only full-block passes after the partition; the
    # above/tie split and per-row tie ranks are small-array arithmetic on
    # the extracted coordinates.
    cutoff = np.partition(masked, n_items - width, axis=1)[:, n_items - width]
    ge_rows, ge_cols = np.nonzero(masked >= cutoff[:, None])
    is_tie = masked[ge_rows, ge_cols] == cutoff[ge_rows]
    n_above = np.bincount(ge_rows[~is_tie], minlength=n_rows).astype(np.int64)
    tie_counts = np.bincount(ge_rows[is_tie], minlength=n_rows).astype(np.int64)
    quota = np.where(np.isneginf(cutoff), 0, width - n_above)
    ties_before_row = np.concatenate([[0], np.cumsum(tie_counts)[:-1]])
    tie_rank = (np.cumsum(is_tie) - 1) - ties_before_row[ge_rows]
    keep = ~is_tie | (tie_rank < quota[ge_rows])
    lengths = n_above + np.minimum(quota, tie_counts)
    rows, cols = ge_rows[keep], ge_cols[keep]

    # Members arrive per row in ascending item-id order; a stable head
    # sort by descending score then yields the canonical ordering with
    # -1/-inf padding pushed to the tail.
    starts = np.concatenate([[0], np.cumsum(lengths)])
    slot = np.arange(rows.size) - starts[:-1][rows]
    ids = np.full((n_rows, width), -1, dtype=np.int64)
    head_scores = np.full((n_rows, width), -np.inf)
    ids[rows, slot] = cols
    head_scores[rows, slot] = masked[rows, cols]
    head_order = np.argsort(-head_scores, axis=1, kind="stable")
    return np.take_along_axis(ids, head_order, axis=1), lengths

