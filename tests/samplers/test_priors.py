"""Tests for repro.samplers.priors."""

import numpy as np
import pytest

from repro.data.popularity import interaction_ratio
from repro.samplers.priors import (
    OccupationPrior,
    OraclePrior,
    PopularityPrior,
    UniformPrior,
)


class TestLifecycle:
    def test_unbound_raises(self):
        prior = PopularityPrior()
        with pytest.raises(RuntimeError, match="not bound"):
            _ = prior.dataset


PRIORS = {
    "popularity": PopularityPrior,
    "uniform": UniformPrior,
    "occupation": OccupationPrior,
    "oracle": OraclePrior,
}


@pytest.mark.parametrize("name", sorted(PRIORS))
def test_one_user_call_equals_its_row(micro_dataset, name):
    """``fn_prob(user, items)`` is row ``b`` of ``fn_prob(users, items)``
    bit for bit — the batched BNS path relies on it."""
    prior = PRIORS[name]()
    prior.bind(micro_dataset)
    users = np.array([3, 0, 1, 0, 2])
    items = np.tile(np.arange(micro_dataset.n_items), (users.size, 1))
    block = prior.fn_prob(users, items)
    assert block.shape == items.shape and block.dtype == np.float64
    for row, user in enumerate(users.tolist()):
        assert prior.fn_prob(user, items[row]).tobytes() == block[row].tobytes()


class TestPopularityPrior:
    @pytest.fixture
    def bound(self, micro_dataset):
        prior = PopularityPrior()
        prior.bind(micro_dataset)
        return prior

    def test_eq17(self, bound, micro_dataset):
        items = np.asarray([2, 7])
        expected = micro_dataset.train.item_popularity[items] / 9
        assert np.allclose(bound.fn_prob(0, items), expected)

    @pytest.mark.parametrize("dataset", ["micro_dataset", "tiny_dataset"])
    def test_fn_prob_is_interaction_ratio_bitwise(self, request, dataset):
        """Eq. 17 has one implementation: the prior is
        :func:`repro.data.popularity.interaction_ratio`, bit for bit."""
        data = request.getfixturevalue(dataset)
        prior = PopularityPrior()
        prior.bind(data)
        items = np.arange(data.n_items)
        expected = interaction_ratio(data.train)
        assert prior.fn_prob(0, items).tobytes() == expected.tobytes()

    def test_user_independent(self, bound):
        items = np.asarray([2, 4])
        assert np.allclose(bound.fn_prob(0, items), bound.fn_prob(3, items))

    def test_shape_preserved(self, bound):
        items = np.zeros((3, 4), dtype=np.int64)
        assert bound.fn_prob(0, items).shape == (3, 4)

    def test_never_exceeds_one(self, bound, micro_dataset):
        items = np.arange(micro_dataset.n_items)
        probs = bound.fn_prob(0, items)
        assert np.all(probs >= 0) and np.all(probs <= 1)


class TestUniformPrior:
    def test_default_one_over_items(self, micro_dataset):
        prior = UniformPrior()
        prior.bind(micro_dataset)
        assert prior.fn_prob(0, np.asarray([3]))[0] == pytest.approx(1 / 8)

    def test_explicit_value(self, micro_dataset):
        prior = UniformPrior(0.2)
        prior.bind(micro_dataset)
        assert np.allclose(prior.fn_prob(1, np.asarray([0, 5])), 0.2)

    def test_value_validated(self):
        with pytest.raises(ValueError):
            UniformPrior(1.5)

    def test_item_independent(self, micro_dataset):
        prior = UniformPrior()
        prior.bind(micro_dataset)
        probs = prior.fn_prob(0, np.arange(8))
        assert np.allclose(probs, probs[0])


class TestOccupationPrior:
    @pytest.fixture
    def bound(self, micro_dataset):
        prior = OccupationPrior()
        prior.bind(micro_dataset)
        return prior

    def test_requires_occupations(self, micro_train, micro_test):
        from repro.data.dataset import ImplicitDataset

        dataset = ImplicitDataset(micro_train, micro_test)
        prior = OccupationPrior()
        with pytest.raises(ValueError, match="occupations"):
            prior.bind(dataset)

    def test_raises_prior_for_own_occupation_items(self, bound, micro_dataset):
        """Items consumed by the user's occupation get a boosted prior.

        In the micro dataset users 0 and 2 share occupation 0; user 0
        interacted with item 0, so occupation 0 over-consumes item 0
        relative to the across-occupation mean.
        """
        base = micro_dataset.train.item_popularity[0] / 9
        boosted = bound.fn_prob(2, np.asarray([0]))[0]  # user 2: occupation 0
        other = bound.fn_prob(1, np.asarray([0]))[0]  # user 1: occupation 1
        assert boosted > base
        assert other < base

    def test_clipped_to_unit_interval(self, bound, micro_dataset):
        items = np.arange(micro_dataset.n_items)
        for user in range(micro_dataset.n_users):
            probs = bound.fn_prob(user, items)
            assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_zero_popularity_items_unaffected(self, bound, micro_dataset):
        """An item nobody interacted with keeps prior 0 for every user."""
        popularity = micro_dataset.train.item_popularity
        cold = np.nonzero(popularity == 0)[0]
        if cold.size:
            for user in range(micro_dataset.n_users):
                assert np.all(bound.fn_prob(user, cold) == 0)


class TestOraclePrior:
    @pytest.fixture
    def bound(self, micro_dataset):
        prior = OraclePrior()
        prior.bind(micro_dataset)
        return prior

    def test_paper_values(self, bound):
        """0.64 for actual false negatives, 0.04 otherwise."""
        # User 0's test positive is item 5.
        assert bound.fn_prob(0, np.asarray([5]))[0] == 0.64
        assert bound.fn_prob(0, np.asarray([4]))[0] == 0.04

    def test_user_specific(self, bound):
        # Item 0 is a test positive for users 1 and 3, not for user 0.
        assert bound.fn_prob(1, np.asarray([0]))[0] == 0.64
        assert bound.fn_prob(0, np.asarray([0]))[0] == 0.04

    def test_custom_values(self, micro_dataset):
        prior = OraclePrior(fn_value=0.9, tn_value=0.1)
        prior.bind(micro_dataset)
        assert prior.fn_prob(0, np.asarray([5]))[0] == 0.9

    def test_values_validated(self):
        with pytest.raises(ValueError):
            OraclePrior(fn_value=1.5)

    def test_matrix_shape(self, bound):
        items = np.zeros((2, 3), dtype=np.int64)
        assert bound.fn_prob(0, items).shape == (2, 3)
