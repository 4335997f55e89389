"""Tests for repro.samplers.base.NegativeSampler."""

import numpy as np
import pytest

from repro.data.dataset import ImplicitDataset
from repro.samplers.rns import RandomNegativeSampler
from matrix_builders import interactions_from_pairs


class TestLifecycle:
    def test_unbound_access_raises(self):
        sampler = RandomNegativeSampler()
        with pytest.raises(RuntimeError, match="not bound"):
            _ = sampler.dataset
        with pytest.raises(RuntimeError, match="not bound"):
            _ = sampler.rng
        with pytest.raises(RuntimeError, match="not bound"):
            _ = sampler.model

    def test_bind_attaches(self, micro_dataset, micro_model):
        sampler = RandomNegativeSampler()
        sampler.bind(micro_dataset, micro_model, seed=0)
        assert sampler.dataset is micro_dataset
        assert sampler.model is micro_model

    def test_repr(self):
        assert "RandomNegativeSampler" in repr(RandomNegativeSampler())


class TestUniformNegatives:
    @pytest.fixture
    def bound(self, micro_dataset, micro_model):
        sampler = RandomNegativeSampler()
        sampler.bind(micro_dataset, micro_model, seed=0)
        return sampler

    def test_never_returns_positives(self, bound, micro_dataset):
        for user in range(micro_dataset.n_users):
            draws = bound.uniform_negatives(user, 500)
            positives = set(micro_dataset.train.items_of(user).tolist())
            assert not positives.intersection(draws.tolist())

    def test_requested_count(self, bound):
        assert bound.uniform_negatives(0, 17).size == 17

    def test_zero_count(self, bound):
        assert bound.uniform_negatives(0, 0).size == 0

    def test_covers_all_negatives(self, bound, micro_dataset):
        """With enough draws every un-interacted item appears."""
        draws = set(bound.uniform_negatives(0, 2000).tolist())
        negatives = set(np.nonzero(micro_dataset.train.negative_mask(0))[0].tolist())
        assert draws == negatives

    def test_approximately_uniform(self, bound, micro_dataset):
        draws = bound.uniform_negatives(0, 50_000)
        counts = np.bincount(draws, minlength=micro_dataset.n_items)
        negatives = micro_dataset.train.negative_mask(0)
        expected = 50_000 / negatives.sum()
        assert np.all(np.abs(counts[negatives] - expected) < 0.1 * 50_000)
        # chi-square-ish sanity: all negative bins within 10% of uniform
        assert np.allclose(counts[negatives], expected, rtol=0.1)

    def test_saturated_user_rejected(self):
        train = interactions_from_pairs(
            [(0, i) for i in range(4)] + [(1, 0)], 2, 4
        )
        test = interactions_from_pairs([(1, 1)], 2, 4)
        dataset = ImplicitDataset(train, test)
        sampler = RandomNegativeSampler()

        class Dummy:
            pass

        sampler.bind(dataset, Dummy(), seed=0)
        with pytest.raises(ValueError, match="no un-interacted"):
            sampler.uniform_negatives(0, 1)

    def test_candidate_matrix_shape(self, bound):
        matrix = bound.candidate_matrix(0, n_pos=3, m=5)
        assert matrix.shape == (3, 5)

    def test_candidate_matrix_invalid_m(self, bound):
        with pytest.raises(ValueError, match="positive"):
            bound.candidate_matrix(0, 2, 0)

    def test_reproducible_given_seed(self, micro_dataset, micro_model):
        a, b = RandomNegativeSampler(), RandomNegativeSampler()
        a.bind(micro_dataset, micro_model, seed=9)
        b.bind(micro_dataset, micro_model, seed=9)
        assert np.array_equal(a.uniform_negatives(0, 20), b.uniform_negatives(0, 20))


class TestBatchGrouping:
    def test_groups_cover_batch_in_order(self):
        from repro.samplers.base import group_batch_by_user

        users = np.array([3, 1, 3, 0, 1, 3])
        groups = group_batch_by_user(users)
        assert np.array_equal(groups.unique_users, [0, 1, 3])
        seen = np.concatenate(
            [groups.row_indices(g) for g in range(groups.n_groups)]
        )
        assert sorted(seen.tolist()) == list(range(users.size))
        # Within a group, rows keep batch order.
        assert np.array_equal(groups.row_indices(2), [0, 2, 5])
        assert np.array_equal(groups.unique_users[groups.rows], users)


class TestSampleBatchFallback:
    @pytest.fixture
    def bound(self, micro_dataset, micro_model):
        sampler = RandomNegativeSampler()
        sampler.bind(micro_dataset, micro_model, seed=0)
        return sampler

    def test_shape_and_validity(self, bound, micro_dataset):
        users = np.array([0, 2, 0, 1, 3, 2])
        pos = np.array([0, 4, 1, 2, 7, 5])
        out = bound.sample_batch(users, pos)
        assert out.shape == users.shape
        for user, item in zip(users.tolist(), out.tolist()):
            assert not micro_dataset.train.contains(user, item)

    def test_mismatched_arrays_rejected(self, bound):
        with pytest.raises(ValueError, match="parallel"):
            bound.sample_batch(np.array([0, 1]), np.array([0]))

    def test_score_block_shape_rejected(self, micro_dataset, micro_model):
        from repro.samplers.dns import DynamicNegativeSampler

        sampler = DynamicNegativeSampler(n_candidates=2)
        sampler.bind(micro_dataset, micro_model, seed=0)
        users = np.array([0, 1, 0])
        pos = np.array([0, 2, 1])
        # Two unique users -> block must have exactly two rows.
        bad = micro_model.scores_batch(np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="sorted unique"):
            sampler.sample_batch(users, pos, bad)

    def test_missing_scores_rejected_when_needed(self, micro_dataset, micro_model):
        from repro.samplers.dns import DynamicNegativeSampler

        sampler = DynamicNegativeSampler(n_candidates=2)
        sampler.bind(micro_dataset, micro_model, seed=0)
        with pytest.raises(ValueError, match="score"):
            sampler.sample_batch(np.array([0]), np.array([1]), None)


class TestCandidateMatrixBatch:
    def test_rows_match_per_user_draws(self, micro_dataset, micro_model):
        from repro.samplers.base import group_batch_by_user

        users = np.array([2, 0, 2, 1])
        a = RandomNegativeSampler()
        a.bind(micro_dataset, micro_model, seed=5)
        batch = a.candidate_matrix_batch(group_batch_by_user(users), 3)
        assert batch.shape == (4, 3)

        b = RandomNegativeSampler()
        b.bind(micro_dataset, micro_model, seed=5)
        # Scalar reference: sorted unique users, same per-user draw counts.
        expected = np.empty_like(batch)
        expected[1] = b.candidate_matrix(0, 1, 3)
        expected[3] = b.candidate_matrix(1, 1, 3)
        expected[[0, 2]] = b.candidate_matrix(2, 2, 3)
        assert np.array_equal(batch, expected)

    def test_invalid_m(self, micro_dataset, micro_model):
        from repro.samplers.base import group_batch_by_user

        sampler = RandomNegativeSampler()
        sampler.bind(micro_dataset, micro_model, seed=0)
        with pytest.raises(ValueError, match="positive"):
            sampler.candidate_matrix_batch(group_batch_by_user(np.array([0])), 0)


class TestCandidateMatrixBatchFallback:
    def test_score_block_width_rejected(self, micro_dataset, micro_model):
        """A block narrower than n_items must error, not silently clamp
        the empirical-CDF prefix (wrong denominators, wrong negatives)."""
        from repro.samplers.dns import DynamicNegativeSampler

        sampler = DynamicNegativeSampler(n_candidates=2)
        sampler.bind(micro_dataset, micro_model, seed=0)
        users = np.array([0, 1])
        pos = np.array([0, 2])
        narrow = micro_model.scores_batch(users)[:, :4]
        with pytest.raises(ValueError, match="score block"):
            sampler.sample_batch(users, pos, narrow)
