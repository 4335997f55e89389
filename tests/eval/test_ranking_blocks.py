"""Block metric kernels vs the scalar reference functions: exact equality.

The kernels in ``repro.eval.ranking`` are the batched evaluator's formula
source; the scalar functions are the reference.  Both accumulate sums
sequentially in rank order, so for identical hit patterns each kernel row
must equal the scalar value **bitwise** — including rows with eight or
more hits, where a pairwise-summation implementation would drift an ulp.
"""

import numpy as np
import pytest

from repro.eval.ranking import (
    auc,
    auc_block,
    average_precision_at_k,
    hit_rate_at_k,
    ndcg_at_k,
    precision_at_k,
    ranking_metrics_block,
    recall_at_k,
    reciprocal_rank,
)


def make_cases(seed=0, n_rows=30, width=20, n_items=200):
    """Random hit matrices with matching ranked lists and relevant sets.

    Rows mix sparse and dense hit patterns (several rows have >= 8 hits)
    and relevant sets larger than the hit count (items outside the list).
    """
    rng = np.random.default_rng(seed)
    hits = rng.random((n_rows, width)) < rng.uniform(0.05, 0.9, size=(n_rows, 1))
    hits[0] = True  # fully-hit row
    hits[1] = False  # fully-missed row
    ranked = np.argsort(rng.random((n_rows, n_items)), axis=1)[:, :width]
    cases = []
    for r in range(n_rows):
        relevant = set(ranked[r][hits[r]].tolist())
        extra = rng.integers(0, 8)
        for item in rng.choice(n_items, size=extra, replace=False).tolist():
            if item not in ranked[r]:
                relevant.add(item)
        cases.append((ranked[r], relevant))
    return hits, cases


KS = [1, 3, 8, 13, 20, 50]


@pytest.mark.parametrize("k", KS)
def test_kernels_match_scalars_bitwise(k):
    """Every fused row at cutoff ``k`` equals the scalar functions.

    The block is computed at all of ``KS`` at once, so the cumulative
    sums it shares across cutoffs are checked too.
    """
    hits, cases = make_cases()
    n_relevant = np.asarray([len(rel) for _, rel in cases], dtype=np.int64)
    fused = ranking_metrics_block(hits, n_relevant, KS, extra_metrics=True)
    for r, (ranked, relevant) in enumerate(cases):
        assert fused[f"precision@{k}"][r] == precision_at_k(ranked, relevant, k)
        assert fused[f"recall@{k}"][r] == recall_at_k(ranked, relevant, k)
        assert fused[f"ndcg@{k}"][r] == ndcg_at_k(ranked, relevant, k)
        assert fused[f"hitrate@{k}"][r] == hit_rate_at_k(ranked, relevant, k)
        assert fused[f"map@{k}"][r] == average_precision_at_k(ranked, relevant, k)
        assert fused["mrr"][r] == reciprocal_rank(ranked, relevant)


def test_ndcg_perfect_ranking_is_exactly_one():
    """The bitwise dcg == ideal property survives the cumsum rewrite."""
    width = 15
    hits = np.zeros((width, width), dtype=bool)
    for n_hits in range(1, width + 1):
        hits[n_hits - 1, :n_hits] = True
    n_relevant = np.arange(1, width + 1, dtype=np.int64)
    values = ranking_metrics_block(hits, n_relevant, (width,))[f"ndcg@{width}"]
    assert np.all(values == 1.0)
    for n_hits in range(1, width + 1):
        ranked = np.arange(width)
        relevant = set(range(n_hits))
        assert ndcg_at_k(ranked, relevant, width) == 1.0


def test_ranking_metrics_block_key_order():
    hits, cases = make_cases(seed=2, n_rows=4)
    n_relevant = np.asarray([len(rel) for _, rel in cases], dtype=np.int64)
    out = ranking_metrics_block(hits, n_relevant, (5, 10), extra_metrics=True)
    assert list(out) == [
        "precision@5", "recall@5", "ndcg@5", "hitrate@5", "map@5",
        "precision@10", "recall@10", "ndcg@10", "hitrate@10", "map@10",
        "mrr",
    ]
    plain = ranking_metrics_block(hits, n_relevant, (5,))
    assert list(plain) == ["precision@5", "recall@5", "ndcg@5"]


class TestAUCBlock:
    def _scalar_reference(self, scores, train_pos, test_pos):
        n_items = scores.size
        relevant = np.zeros(n_items, dtype=bool)
        relevant[test_pos] = True
        candidates = np.ones(n_items, dtype=bool)
        candidates[train_pos] = False
        return auc(scores, relevant, candidates)

    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_scalar_bitwise(self, ties):
        rng = np.random.default_rng(8)
        n_rows, n_items = 12, 40
        scores = rng.normal(size=(n_rows, n_items))
        if ties:
            scores = np.round(scores)
        block = scores.copy()
        expected = np.empty(n_rows)
        rel_rows, rel_cols, n_candidates = [], [], []
        for r in range(n_rows):
            ids = rng.permutation(n_items)
            train_pos = np.sort(ids[: rng.integers(0, 10)])
            test_pos = np.sort(ids[10 : 10 + rng.integers(0, 12)])
            expected[r] = self._scalar_reference(scores[r], train_pos, test_pos)
            block[r, train_pos] = np.inf
            rel_rows.extend([r] * test_pos.size)
            rel_cols.extend(test_pos.tolist())
            n_candidates.append(n_items - train_pos.size)
        out = auc_block(
            block,
            np.asarray(n_candidates),
            np.asarray(rel_rows, dtype=np.int64),
            np.asarray(rel_cols, dtype=np.int64),
        )
        assert np.array_equal(out, expected)

    def test_degenerate_rows_are_half(self):
        # Row 0: no relevant items; row 1: every candidate relevant.
        block = np.asarray([[1.0, 2.0, 3.0], [1.0, 2.0, np.inf]])
        out = auc_block(
            block,
            np.asarray([3, 2]),
            np.asarray([1, 1]),
            np.asarray([0, 1]),
        )
        assert np.array_equal(out, [0.5, 0.5])
