"""Tests for the hard samplers: DNS, AOBPR and SRNS."""

import numpy as np
import pytest

from repro.samplers.aobpr import AOBPRSampler
from repro.samplers.base import ScoreRequest
from repro.samplers.dns import DynamicNegativeSampler
from repro.samplers.srns import SRNSSampler


class TestDNS:
    @pytest.fixture
    def bound(self, tiny_dataset, tiny_model):
        sampler = DynamicNegativeSampler(n_candidates=5)
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        return sampler

    def test_needs_scores(self):
        assert DynamicNegativeSampler.score_request is not ScoreRequest.NONE

    def test_requires_scores(self, bound):
        with pytest.raises(ValueError, match="score vector"):
            bound.sample_for_user(0, np.asarray([1]), None)

    def test_candidate_count_validated(self):
        with pytest.raises(ValueError):
            DynamicNegativeSampler(n_candidates=0)

    def test_avoids_positives(self, bound, tiny_dataset, tiny_model):
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)
        scores = tiny_model.scores(user)
        out = bound.sample_for_user(user, np.repeat(pos, 10), scores)
        assert not set(pos.tolist()).intersection(out.tolist())

    def test_prefers_high_scores(self, bound, tiny_dataset, tiny_model):
        """DNS draws must average a higher score than uniform draws."""
        user = int(tiny_dataset.trainable_users()[0])
        scores = tiny_model.scores(user)
        out = bound.sample_for_user(user, np.zeros(2000, dtype=np.int64), scores)
        uniform = bound.uniform_negatives(user, 2000)
        assert scores[out].mean() > scores[uniform].mean()

    def test_single_candidate_is_rns(self, tiny_dataset, tiny_model):
        """M=1 degenerates to uniform sampling (no max to take)."""
        sampler = DynamicNegativeSampler(n_candidates=1)
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        user = int(tiny_dataset.trainable_users()[0])
        scores = tiny_model.scores(user)
        out = sampler.sample_for_user(user, np.zeros(3000, dtype=np.int64), scores)
        uniform_mean = scores[tiny_dataset.train.negative_mask(user)].mean()
        assert scores[out].mean() == pytest.approx(uniform_mean, abs=0.05)

    def test_empty_positives(self, bound):
        out = bound.sample_for_user(0, np.empty(0, dtype=np.int64), np.zeros(48))
        assert out.size == 0


class TestAOBPR:
    @pytest.fixture
    def bound(self, tiny_dataset, tiny_model):
        sampler = AOBPRSampler(rank_lambda=5.0)
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        return sampler

    def test_lambda_validated(self):
        with pytest.raises(ValueError):
            AOBPRSampler(rank_lambda=0.0)

    def test_lambda_past_float64_resolution_rejected(self):
        """At 1e17, q = exp(−1/λ) rounds to 1.0: every rank would be NaN
        and clamp to 0, the hardest negative every time."""
        with pytest.raises(ValueError, match=r"rank_lambda must be <= 2\*\*53"):
            AOBPRSampler(rank_lambda=1e17)

    def test_largest_lambda_spreads_ranks(self, tiny_dataset, tiny_model):
        sampler = AOBPRSampler(rank_lambda=2.0**53)
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        with np.errstate(all="raise"):
            ranks = sampler._sample_ranks(n_negatives=50, n_draws=2000)
        assert np.unique(ranks).size == 50

    def test_requires_scores(self, bound):
        with pytest.raises(ValueError, match="score vector"):
            bound.sample_for_user(0, np.asarray([1]), None)

    def test_avoids_positives(self, bound, tiny_dataset, tiny_model):
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)
        scores = tiny_model.scores(user)
        out = bound.sample_for_user(user, np.repeat(pos, 20), scores)
        assert not set(pos.tolist()).intersection(out.tolist())

    def test_oversamples_top_ranked(self, bound, tiny_dataset, tiny_model):
        """The top-ranked negative must be drawn far above uniform rate."""
        user = int(tiny_dataset.trainable_users()[0])
        scores = tiny_model.scores(user)
        negatives = np.nonzero(tiny_dataset.train.negative_mask(user))[0]
        top = negatives[np.argmax(scores[negatives])]
        draws = bound.sample_for_user(user, np.zeros(5000, dtype=np.int64), scores)
        top_rate = (draws == top).mean()
        assert top_rate > 3.0 / negatives.size  # >3x uniform

    def test_rank_distribution_geometric(self, bound):
        """Sampled ranks follow the truncated geometric's head-heaviness."""
        ranks = bound._sample_ranks(n_negatives=100, n_draws=40_000)
        assert ranks.min() >= 0 and ranks.max() < 100
        counts = np.bincount(ranks, minlength=100).astype(float)
        # P(rank 0) / P(rank 5) should be exp(5/λ) = e ≈ 2.72 for λ=5.
        assert counts[0] / counts[5] == pytest.approx(np.exp(1.0), rel=0.2)

    def test_greedier_with_smaller_lambda(self, tiny_dataset, tiny_model):
        user = int(tiny_dataset.trainable_users()[0])
        scores = tiny_model.scores(user)
        pos = np.zeros(3000, dtype=np.int64)
        greedy = AOBPRSampler(rank_lambda=1.0)
        mild = AOBPRSampler(rank_lambda=50.0)
        greedy.bind(tiny_dataset, tiny_model, seed=1)
        mild.bind(tiny_dataset, tiny_model, seed=1)
        greedy_mean = scores[greedy.sample_for_user(user, pos, scores)].mean()
        mild_mean = scores[mild.sample_for_user(user, pos, scores)].mean()
        assert greedy_mean > mild_mean

    def test_batch_never_returns_positive_behind_minus_inf(
        self, tiny_dataset, tiny_model
    ):
        """A negative scored ``-inf`` sorts last among the negatives; the
        batched path must still keep every positive behind it.  With
        ``rank_lambda`` this large, drawn ranks reach the tail."""
        users = np.repeat(tiny_dataset.trainable_users()[:8], 200).astype(np.int64)
        pos = np.array(
            [tiny_dataset.train.items_of(int(u))[0] for u in users], dtype=np.int64
        )
        unique = np.unique(users)
        block = tiny_model.scores_batch(unique)
        for row, user in enumerate(unique.tolist()):
            block[row, tiny_dataset.train.negative_items(user)[-1]] = -np.inf
        scalar = AOBPRSampler(rank_lambda=1e6)
        batched = AOBPRSampler(rank_lambda=1e6)
        scalar.bind(tiny_dataset, tiny_model, seed=4)
        batched.bind(tiny_dataset, tiny_model, seed=4)
        expected = np.empty(users.size, dtype=np.int64)
        for row, user in enumerate(unique.tolist()):
            rows = np.nonzero(users == user)[0]
            expected[rows] = scalar.sample_for_user(user, pos[rows], block[row])
        got = batched.sample_batch(users, pos, block.copy())
        assert not tiny_dataset.train.contains_pairs(users, got).any()
        assert np.array_equal(got, expected)


class TestSRNS:
    @pytest.fixture
    def bound(self, tiny_dataset, tiny_model):
        sampler = SRNSSampler(memory_size=10, n_candidates=4, history=3)
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        return sampler

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SRNSSampler(memory_size=0)
        with pytest.raises(ValueError):
            SRNSSampler(n_candidates=0)
        with pytest.raises(ValueError):
            SRNSSampler(refresh_fraction=1.5)
        with pytest.raises(ValueError):
            SRNSSampler(history=0)

    def test_candidates_capped_by_memory(self):
        sampler = SRNSSampler(memory_size=5, n_candidates=50)
        assert sampler.n_candidates == 5

    def test_memory_initialized_with_negatives(self, bound, tiny_dataset):
        for user in tiny_dataset.trainable_users()[:5]:
            memory = bound._memory[user]
            positives = set(tiny_dataset.train.items_of(int(user)).tolist())
            assert not positives.intersection(memory.tolist())

    def test_requires_scores(self, bound):
        with pytest.raises(ValueError, match="score vector"):
            bound.sample_for_user(0, np.asarray([1]), None)

    def test_samples_from_memory(self, bound, tiny_dataset, tiny_model):
        user = int(tiny_dataset.trainable_users()[0])
        scores = tiny_model.scores(user)
        out = bound.sample_for_user(user, np.zeros(100, dtype=np.int64), scores)
        assert set(out.tolist()).issubset(set(bound._memory[user].tolist()))

    def test_epoch_refresh_updates_history(self, bound):
        assert bound._filled_epochs == 0
        bound.on_epoch_start(0)
        assert bound._filled_epochs == 1
        bound.on_epoch_start(1)
        assert bound._filled_epochs == 2

    def test_variance_zero_before_two_epochs(self, bound):
        assert np.all(bound._variance_std(0) == 0)

    def test_variance_positive_after_training_moves_scores(
        self, tiny_dataset, tiny_model
    ):
        from repro.train.optimizer import SGD

        sampler = SRNSSampler(memory_size=8, n_candidates=3, history=4,
                              refresh_fraction=0.0)
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        rng = np.random.default_rng(0)
        for epoch in range(3):
            sampler.on_epoch_start(epoch)
            # Nudge the model so memory scores change between epochs.
            users = rng.integers(tiny_dataset.n_users, size=32)
            pos = np.asarray(
                [rng.choice(tiny_dataset.train.items_of(int(u))) if
                 tiny_dataset.train.degree_of(int(u)) else 0 for u in users]
            )
            neg = rng.integers(tiny_dataset.n_items, size=32)
            tiny_model.train_step(users, pos, neg, SGD(0.1), reg=0.0)
        user = int(tiny_dataset.trainable_users()[0])
        assert sampler._variance_std(user).max() > 0

    def test_std_equals_the_history_window_after_each_epoch_start(
        self, tiny_dataset, tiny_model
    ):
        """The std is taken once per epoch; each draw reads the value the
        filled history window gives at that point, bit for bit."""
        from repro.train.optimizer import SGD

        sampler = SRNSSampler(memory_size=6, history=3)
        sampler.bind(tiny_dataset, tiny_model, seed=2)
        users = tiny_dataset.trainable_users()
        for epoch in range(5):
            sampler.on_epoch_start(epoch)
            filled = sampler._filled_epochs
            for user in users.tolist():
                window = sampler._score_history[user, :, -filled:]
                expected = window.std(axis=1) if filled >= 2 else np.zeros(6)
                assert sampler._variance_std(user).tobytes() == expected.tobytes()
            pos = np.asarray([tiny_dataset.train.items_of(int(u))[0] for u in users])
            neg = np.asarray([tiny_dataset.train.negative_items(int(u))[0] for u in users])
            tiny_model.train_step(users, pos, neg, SGD(0.1), reg=0.0)

    def test_favors_high_value_candidates(self, bound, tiny_dataset, tiny_model):
        user = int(tiny_dataset.trainable_users()[0])
        scores = tiny_model.scores(user)
        bound.on_epoch_start(0)
        out = bound.sample_for_user(user, np.zeros(1000, dtype=np.int64), scores)
        memory_mean = scores[bound._memory[user]].mean()
        assert scores[out].mean() >= memory_mean
