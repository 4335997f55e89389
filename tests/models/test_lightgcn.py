"""Tests for repro.models.lightgcn.LightGCN."""

import numpy as np
import pytest

from repro.models.lightgcn import LightGCN
from repro.train.loss import log_sigmoid
from repro.train.optimizer import SGD
from matrix_builders import interactions_from_pairs


@pytest.fixture
def interactions():
    pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
    return interactions_from_pairs(pairs, 4, 5)


@pytest.fixture
def model(interactions):
    return LightGCN(interactions, n_factors=6, n_layers=1, seed=0)


class TestPropagation:
    def test_propagate_shape(self, model):
        assert model.propagate().shape == (9, 6)

    def test_layer_average_formula(self, interactions):
        """Ê = (E + ÂE)/2 for one layer."""
        model = LightGCN(interactions, n_factors=4, n_layers=1, seed=1)
        base = model.base_embeddings.copy()
        adjacency = model._adjacency.toarray()
        expected = (base + adjacency @ base) / 2
        assert np.allclose(model.propagate(), expected)

    def test_multi_layer(self, interactions):
        model = LightGCN(interactions, n_factors=4, n_layers=3, seed=1)
        base = model.base_embeddings.copy()
        A = model._adjacency.toarray()
        expected = (base + A @ base + A @ A @ base + A @ A @ A @ base) / 4
        assert np.allclose(model.propagate(), expected)

    def test_propagation_cached(self, model):
        assert model.propagate() is model.propagate()

    def test_invalidate_cache(self, model):
        first = model.propagate()
        model.invalidate_cache()
        second = model.propagate()
        assert first is not second
        assert np.allclose(first, second)


class TestScoring:
    def test_scores_use_propagated(self, model):
        propagated = model.propagate()
        expected = propagated[4:] @ propagated[1]
        assert np.allclose(model.scores(1), expected)

    def test_score_pairs_consistent(self, model):
        users = np.asarray([0, 2])
        items = np.asarray([3, 0])
        pairwise = model.score_pairs(users, items)
        assert pairwise[0] == pytest.approx(model.scores(0)[3])
        assert pairwise[1] == pytest.approx(model.scores(2)[0])

    def test_user_range_checked(self, model):
        with pytest.raises(IndexError):
            model.scores(4)


class TestTrainStep:
    def test_returns_info_and_updates(self, model):
        base_before = model.base_embeddings.copy()
        info = model.train_step(
            np.asarray([0]), np.asarray([1]), np.asarray([4]), SGD(0.5), reg=0.0
        )
        assert info.shape == (1,)
        assert not np.allclose(model.base_embeddings, base_before)

    def test_cache_invalidated_after_step(self, model):
        before = model.scores(0).copy()
        model.train_step(
            np.asarray([0]), np.asarray([1]), np.asarray([4]), SGD(0.5), reg=0.0
        )
        after = model.scores(0)
        assert not np.allclose(before, after)

    def test_improves_pairwise_objective(self, model):
        users, pos, neg = np.asarray([1]), np.asarray([2]), np.asarray([4])
        def objective():
            return log_sigmoid(
                model.score_pairs(users, pos) - model.score_pairs(users, neg)
            )[0]

        before = objective()
        for _ in range(5):
            model.train_step(users, pos, neg, SGD(0.2), reg=0.0)
        assert objective() > before

    def test_gradient_matches_numerical(self, interactions):
        """Backward through P must equal finite differences on the loss."""
        model = LightGCN(interactions, n_factors=3, n_layers=2, seed=4)
        users, pos, neg = np.asarray([2]), np.asarray([0]), np.asarray([4])
        reg = 0.05
        base = model.base_embeddings.copy()
        A = model._adjacency.toarray()
        n_users = model.n_users

        def loss(E):
            prop = (E + A @ E + A @ A @ E) / 3
            w, hi, hj = prop[2], prop[n_users + 0], prop[n_users + 4]
            diff = w @ hi - w @ hj
            rows = (2, n_users + 0, n_users + 4)
            penalty = 0.5 * reg * sum(E[r] @ E[r] for r in rows)
            return -log_sigmoid(np.asarray([diff]))[0] + penalty

        model.train_step(users, pos, neg, SGD(1.0), reg=reg)
        analytic = base - model.base_embeddings  # lr=1 → gradient

        eps = 1e-6
        rng = np.random.default_rng(0)
        # Probe a handful of random coordinates, including untouched rows
        # (propagation spreads gradient beyond the triple's own rows).
        for _ in range(12):
            row = int(rng.integers(base.shape[0]))
            col = int(rng.integers(base.shape[1]))
            plus, minus = base.copy(), base.copy()
            plus[row, col] += eps
            minus[row, col] -= eps
            numeric = (loss(plus) - loss(minus)) / (2 * eps)
            assert numeric == pytest.approx(analytic[row, col], abs=1e-5)

    def test_gradient_reaches_neighbors(self, model):
        """Propagation must spread gradient to rows outside the triple."""
        before = model.base_embeddings.copy()
        model.train_step(
            np.asarray([0]), np.asarray([1]), np.asarray([2]), SGD(0.5), reg=0.0
        )
        delta = np.abs(model.base_embeddings - before).sum(axis=1)
        # user 1 also interacts with items 1 and 2 → its row must move.
        assert delta[1] > 0

    def test_layer_count_validated(self, interactions):
        with pytest.raises(ValueError):
            LightGCN(interactions, n_layers=0)

    def test_repr(self, model):
        assert "LightGCN" in repr(model)
