"""Tests for repro.eval.topk."""

import numpy as np
import pytest

from repro.eval.topk import (
    top_k_items_batch_reference,
    top_k_items,
    top_k_items_batch,
)


class TestTopKItems:
    def test_orders_by_score(self):
        scores = np.asarray([0.1, 0.9, 0.5, 0.7])
        out = top_k_items(scores, np.asarray([], dtype=np.int64), 3)
        assert np.array_equal(out, [1, 3, 2])

    def test_excludes_train_positives(self):
        scores = np.asarray([0.1, 0.9, 0.5, 0.7])
        out = top_k_items(scores, np.asarray([1]), 3)
        assert 1 not in out
        assert np.array_equal(out, [3, 2, 0])

    def test_truncates_to_eligible(self):
        scores = np.asarray([0.1, 0.9, 0.5])
        out = top_k_items(scores, np.asarray([0, 1]), 5)
        assert np.array_equal(out, [2])

    def test_k_validated(self):
        with pytest.raises(ValueError):
            top_k_items(np.ones(3), np.asarray([]), 0)

    def test_all_items_excluded(self):
        out = top_k_items(np.ones(2), np.asarray([0, 1]), 1)
        assert out.size == 0

    def test_deterministic_for_ties(self):
        scores = np.zeros(6)
        a = top_k_items(scores, np.asarray([]), 3)
        b = top_k_items(scores, np.asarray([]), 3)
        assert np.array_equal(a, b)

    def test_canonical_tie_rule_smallest_ids(self):
        """Ties — including across the cut-off — go to the smallest ids."""
        assert np.array_equal(top_k_items(np.zeros(6), np.asarray([]), 3), [0, 1, 2])
        scores = np.asarray([0.5, 1.0, 0.5, 0.5, 0.2])
        assert np.array_equal(top_k_items(scores, np.asarray([]), 3), [1, 0, 2])

    def test_does_not_mutate_scores(self):
        scores = np.asarray([0.3, 0.8])
        top_k_items(scores, np.asarray([1]), 1)
        assert scores[1] == 0.8


def _masked(scores, positives):
    masked = np.asarray(scores, dtype=np.float64).copy()
    masked[np.asarray(positives, dtype=np.int64)] = -np.inf
    return masked


class TestTopKItemsBatch:
    def test_matches_scalar_per_row(self):
        rng = np.random.default_rng(0)
        scores = rng.random((12, 30))
        positives = [rng.choice(30, size=rng.integers(0, 10), replace=False) for _ in range(12)]
        block = np.stack([_masked(scores[r], positives[r]) for r in range(12)])
        ids, lengths = top_k_items_batch(block, 7)
        assert ids.shape == (12, 7)
        for r in range(12):
            expected = top_k_items(scores[r], positives[r], 7)
            assert lengths[r] == expected.size
            assert np.array_equal(ids[r, : lengths[r]], expected)
            assert np.all(ids[r, lengths[r] :] == -1)

    def test_matches_scalar_with_heavy_ties(self):
        rng = np.random.default_rng(3)
        scores = np.round(rng.random((10, 25)) * 3)  # 4 distinct values
        block = np.stack([_masked(row, []) for row in scores])
        ids, lengths = top_k_items_batch(block, 6)
        for r in range(10):
            assert np.array_equal(ids[r, : lengths[r]], top_k_items(scores[r], [], 6))

    def test_boundary_ties_take_smallest_ids(self):
        block = np.asarray([[1.0, 0.5, 0.5, 0.5, 0.0]])
        ids, lengths = top_k_items_batch(block, 2)
        assert lengths[0] == 2
        assert np.array_equal(ids[0], [0, 1])

    def test_truncation_pads_with_minus_one(self):
        block = np.asarray(
            [
                [-np.inf, -np.inf, -np.inf, -np.inf],  # fully masked row
                [0.1, -np.inf, 0.9, -np.inf],
                [0.4, 0.3, 0.2, 0.1],
            ]
        )
        ids, lengths = top_k_items_batch(block, 3)
        assert np.array_equal(lengths, [0, 2, 3])
        assert np.array_equal(ids[0], [-1, -1, -1])
        assert np.array_equal(ids[1], [2, 0, -1])
        assert np.array_equal(ids[2], [0, 1, 2])

    def test_k_wider_than_universe(self):
        block = np.asarray([[0.2, 0.9, 0.4]])
        ids, lengths = top_k_items_batch(block, 10)
        assert ids.shape == (1, 3)
        assert lengths[0] == 3
        assert np.array_equal(ids[0], [1, 2, 0])

    def test_empty_block(self):
        ids, lengths = top_k_items_batch(np.empty((0, 5)), 3)
        assert ids.shape == (0, 3)
        assert lengths.size == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            top_k_items_batch(np.ones((2, 3)), 0)
        with pytest.raises(ValueError, match="2-D"):
            top_k_items_batch(np.ones(3), 1)

    def test_does_not_mutate_block(self):
        block = np.asarray([[0.3, 0.8], [0.1, 0.2]])
        copy = block.copy()
        top_k_items_batch(block, 1)
        assert np.array_equal(block, copy)

    def test_premasked_trims_padding(self):
        """Items already at ``-inf`` are excluded like train positives, and
        the one-row block's ``-1`` padding is trimmed."""
        masked = _masked([0.1, 0.9, 0.5], [1])
        out = top_k_items(masked, np.asarray([], dtype=np.int64), 5)
        assert np.array_equal(out, [2, 0])


class TestRankedItems:
    def test_agrees_with_topk(self):
        """The head of the full ranking of un-interacted items (a stable
        descending argsort) is ``top_k_items``' list."""
        rng = np.random.default_rng(0)
        scores = rng.random(30)
        positives = np.asarray([3, 7, 11])
        eligible = np.setdiff1d(np.arange(30), positives)
        full = eligible[np.argsort(-scores[eligible], kind="stable")]
        head = top_k_items(scores, positives, 10)
        assert np.array_equal(full[:10], head)


class TestFastVsReferenceParity:
    """The argpartition fast path is bitwise-pinned to the reference scan.

    The serving layer and the evaluator both ride the fast path; its
    contract is exact agreement with ``top_k_items_batch_reference`` —
    canonical tie order included, even when ties straddle the cut-off.
    """

    def _assert_identical(self, masked, k):
        fast_ids, fast_lengths = top_k_items_batch(masked, k)
        ref_ids, ref_lengths = top_k_items_batch_reference(masked, k)
        assert np.array_equal(fast_ids, ref_ids)
        assert np.array_equal(fast_lengths, ref_lengths)
        assert fast_ids.dtype == ref_ids.dtype == np.int64

    def test_continuous_scores(self):
        rng = np.random.default_rng(7)
        self._assert_identical(rng.standard_normal((40, 60)), 10)

    def test_heavy_ties_at_cutoff(self):
        # Quantized scores force ties that straddle the cut-off — the
        # case where raw argpartition picks an arbitrary head.
        rng = np.random.default_rng(8)
        for trial in range(20):
            masked = rng.integers(0, 4, size=(16, 50)).astype(np.float64)
            self._assert_identical(masked, 1 + trial % 12)

    def test_all_tied(self):
        self._assert_identical(np.zeros((5, 12)), 7)

    def test_rows_with_masked_entries(self):
        rng = np.random.default_rng(9)
        masked = rng.integers(0, 3, size=(12, 30)).astype(np.float64)
        masked[rng.random(masked.shape) < 0.4] = -np.inf
        masked[0, :] = -np.inf  # fully masked row: length 0, all padding
        self._assert_identical(masked, 8)

    def test_k_exceeds_items(self):
        rng = np.random.default_rng(10)
        self._assert_identical(rng.integers(0, 2, (6, 5)).astype(float), 9)

    def test_empty_blocks(self):
        self._assert_identical(np.zeros((0, 7)), 3)

    def test_reference_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            top_k_items_batch_reference(np.zeros((2, 3)), 0)
