"""Tests for repro.data.splits."""

import numpy as np
import pytest

from repro.data.interactions import InteractionMatrix
from repro.data.splits import random_holdout_split


@pytest.fixture
def dense_interactions(rng):
    """60 users × 40 items, each user with 8-20 interactions."""
    users, items = [], []
    for user in range(60):
        k = int(rng.integers(8, 21))
        chosen = rng.choice(40, size=k, replace=False)
        users.extend([user] * k)
        items.extend(chosen.tolist())
    return InteractionMatrix(60, 40, users, items)


class TestRandomHoldout:
    def test_disjoint_and_complete(self, dense_interactions):
        train, test = random_holdout_split(dense_interactions, 0.2, seed=0)
        assert not train.intersects(test)
        assert train.with_appended(*test.pairs()) == dense_interactions

    def test_fraction_roughly_respected(self, dense_interactions):
        _, test = random_holdout_split(dense_interactions, 0.25, seed=1)
        fraction = test.n_interactions / dense_interactions.n_interactions
        assert 0.15 < fraction < 0.35

    def test_min_train_per_user(self, dense_interactions):
        train, _ = random_holdout_split(
            dense_interactions, 0.9, seed=2, min_train_per_user=2
        )
        active = dense_interactions.user_activity > 0
        assert np.all(train.user_activity[active] >= 2)

    def test_reproducible(self, dense_interactions):
        a = random_holdout_split(dense_interactions, 0.2, seed=3)
        b = random_holdout_split(dense_interactions, 0.2, seed=3)
        assert a[0] == b[0] and a[1] == b[1]

    def test_seed_changes_split(self, dense_interactions):
        a, _ = random_holdout_split(dense_interactions, 0.2, seed=3)
        b, _ = random_holdout_split(dense_interactions, 0.2, seed=4)
        assert a != b

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_fraction(self, dense_interactions, fraction):
        with pytest.raises(ValueError, match="test_fraction"):
            random_holdout_split(dense_interactions, fraction)

    def test_empty_matrix_rejected(self):
        empty = InteractionMatrix(2, 2, [], [])
        with pytest.raises(ValueError, match="empty"):
            random_holdout_split(empty, 0.2)

    def test_negative_min_train_rejected(self, dense_interactions):
        with pytest.raises(ValueError, match="min_train_per_user"):
            random_holdout_split(dense_interactions, 0.2, min_train_per_user=-1)

    def test_single_interaction_user_stays_in_train(self):
        matrix = InteractionMatrix(2, 4, [0, 0, 0, 1], [0, 1, 2, 3])
        train, _ = random_holdout_split(matrix, 0.99, seed=0)
        assert train.degree_of(1) == 1
