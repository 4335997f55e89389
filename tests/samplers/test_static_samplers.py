"""Tests for the static samplers: RNS and PNS."""

import numpy as np
import pytest

from repro.data.dataset import ImplicitDataset
from repro.samplers.base import ScoreRequest
from repro.samplers.pns import PopularityNegativeSampler
from repro.samplers.rns import RandomNegativeSampler
from repro.utils.rng import as_rng
from matrix_builders import interactions_from_pairs


class TestRNS:
    @pytest.fixture
    def bound(self, tiny_dataset, tiny_model):
        sampler = RandomNegativeSampler()
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        return sampler

    def test_does_not_need_scores(self):
        assert RandomNegativeSampler.score_request is ScoreRequest.NONE

    def test_one_negative_per_positive(self, bound, tiny_dataset):
        pos = tiny_dataset.train.items_of(0)
        out = bound.sample_for_user(0, pos, None)
        assert out.shape == pos.shape

    def test_avoids_positives(self, bound, tiny_dataset):
        for user in range(5):
            pos = tiny_dataset.train.items_of(user)
            if pos.size == 0:
                continue
            out = bound.sample_for_user(user, np.repeat(pos, 30), None)
            assert not set(pos.tolist()).intersection(out.tolist())

    def test_empty_positives(self, bound):
        assert bound.sample_for_user(0, np.empty(0, dtype=np.int64), None).size == 0

    def test_name(self):
        assert RandomNegativeSampler.name == "RNS"


class TestPNS:
    @pytest.fixture
    def bound(self, tiny_dataset, tiny_model):
        sampler = PopularityNegativeSampler()
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        return sampler

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            PopularityNegativeSampler(exponent=-0.5)

    def test_avoids_positives(self, bound, tiny_dataset):
        for user in range(8):
            pos = tiny_dataset.train.items_of(user)
            if pos.size == 0:
                continue
            out = bound.sample_for_user(user, np.repeat(pos, 20), None)
            assert not set(pos.tolist()).intersection(out.tolist())

    def test_oversamples_popular_items(self, bound, tiny_dataset):
        """The empirical draw frequency must correlate with popularity^0.75."""
        user = int(tiny_dataset.trainable_users()[0])
        draws = bound.sample_for_user(
            user, np.zeros(30_000, dtype=np.int64), None
        )
        counts = np.bincount(draws, minlength=tiny_dataset.n_items).astype(float)
        negatives = tiny_dataset.train.negative_mask(user)
        popularity = tiny_dataset.train.item_popularity.astype(float)
        weights = popularity[negatives] ** 0.75
        observed = counts[negatives]
        correlation = np.corrcoef(weights, observed)[0, 1]
        assert correlation > 0.95

    def test_unpopular_items_rare(self, bound, tiny_dataset):
        user = int(tiny_dataset.trainable_users()[0])
        draws = bound.sample_for_user(user, np.zeros(5000, dtype=np.int64), None)
        counts = np.bincount(draws, minlength=tiny_dataset.n_items)
        popularity = tiny_dataset.train.item_popularity
        zero_pop = (popularity == 0) & tiny_dataset.train.negative_mask(user)
        if zero_pop.any():
            assert counts[zero_pop].sum() == 0

    def test_empty_positives(self, bound):
        assert bound.sample_for_user(0, np.empty(0, dtype=np.int64), None).size == 0

    def test_unreachable_user_draws_uniformly(self, micro_dataset, micro_model):
        """User 0's positives are every interacted item, so the popularity
        distribution cannot reach I⁻_0: its draws are exactly the uniform
        draw core's, from the same generator state."""
        train = interactions_from_pairs([(0, 0), (0, 1), (0, 2)], 4, 8)
        sampler = PopularityNegativeSampler()
        sampler.bind(ImplicitDataset(train, micro_dataset.test), micro_model, seed=5)
        out = sampler.sample_for_user(0, np.zeros(40, dtype=np.int64), None)
        assert np.array_equal(out, train.uniform_negatives(0, 40, as_rng(5)))

    def test_reproducible(self, tiny_dataset, tiny_model):
        a, b = PopularityNegativeSampler(), PopularityNegativeSampler()
        a.bind(tiny_dataset, tiny_model, seed=4)
        b.bind(tiny_dataset, tiny_model, seed=4)
        pos = np.zeros(50, dtype=np.int64)
        assert np.array_equal(
            a.sample_for_user(0, pos, None), b.sample_for_user(0, pos, None)
        )
