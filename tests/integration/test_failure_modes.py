"""Failure-injection tests: degenerate datasets, cold users, edge shapes."""

import numpy as np
import pytest

from repro.data.dataset import ImplicitDataset
from repro.eval.protocol import Evaluator
from repro.models.mf import MatrixFactorization
from repro.samplers.variants import make_sampler
from repro.train.trainer import Trainer, TrainingConfig
from matrix_builders import interactions_from_pairs


def make_dataset(train_pairs, test_pairs, n_users, n_items, **kwargs):
    return ImplicitDataset(
        interactions_from_pairs(train_pairs, n_users, n_items),
        interactions_from_pairs(test_pairs, n_users, n_items),
        **kwargs,
    )


class TestColdUsers:
    def test_training_skips_cold_users(self):
        """A user with no train positives never forms a triple."""
        dataset = make_dataset(
            [(0, 0), (0, 1), (2, 3)], [(1, 2)], n_users=3, n_items=5
        )
        model = MatrixFactorization(3, 5, n_factors=4, seed=0)
        trainer = Trainer(
            model,
            dataset,
            make_sampler("rns"),
            TrainingConfig(epochs=2, batch_size=2, seed=0),
        )
        history = trainer.fit()
        assert 1 not in history[0].users.tolist()

    def test_evaluation_covers_cold_train_users(self):
        """A user with test items but no train items is still evaluated."""
        dataset = make_dataset(
            [(0, 0), (0, 1), (2, 3)], [(1, 2)], n_users=3, n_items=5
        )
        model = MatrixFactorization(3, 5, n_factors=4, seed=0)
        metrics = Evaluator(dataset, ks=(2,)).evaluate(model)
        assert "ndcg@2" in metrics


class TestExtremeDensity:
    def test_near_saturated_user_still_samples(self):
        """A user with all but one item interacted can still be trained."""
        n_items = 6
        train_pairs = [(0, i) for i in range(n_items - 1)] + [(1, 0)]
        dataset = make_dataset(train_pairs, [(1, 3)], n_users=2, n_items=n_items)
        model = MatrixFactorization(2, n_items, n_factors=4, seed=0)
        trainer = Trainer(
            model,
            dataset,
            make_sampler("rns"),
            TrainingConfig(epochs=2, batch_size=3, seed=0),
        )
        history = trainer.fit()
        # Every negative sampled for user 0 must be the single eligible item.
        for stats in history:
            mask = stats.users == 0
            assert np.all(stats.neg_items[mask] == n_items - 1)

    def test_single_user_dataset(self):
        dataset = make_dataset([(0, 0), (0, 1)], [(0, 2)], n_users=1, n_items=5)
        model = MatrixFactorization(1, 5, n_factors=3, seed=0)
        trainer = Trainer(
            model,
            dataset,
            make_sampler("dns", n_candidates=2),
            TrainingConfig(epochs=3, batch_size=1, seed=0),
        )
        trainer.fit()
        metrics = Evaluator(dataset, ks=(1,)).evaluate(model)
        assert 0.0 <= metrics["recall@1"] <= 1.0


class TestBNSDegenerateInputs:
    def test_bns_with_constant_scores(self):
        """All-equal scores (untrained model) must not crash the CDF path."""

        class ConstantModel(MatrixFactorization):
            def scores(self, user):
                return np.zeros(self.n_items)

        dataset = make_dataset(
            [(0, 0), (1, 1), (2, 2)], [(0, 3)], n_users=3, n_items=6
        )
        model = ConstantModel(3, 6, n_factors=2, seed=0)
        sampler = make_sampler("bns", n_candidates=3)
        sampler.bind(dataset, model, seed=0)
        out = sampler.sample_for_user(0, np.asarray([0]), model.scores(0))
        assert out.size == 1
        assert out[0] != 0  # still avoids the positive

    def test_bns4_requires_occupations(self):
        dataset = make_dataset([(0, 0)], [(0, 1)], n_users=1, n_items=3)
        sampler = make_sampler("bns-4")
        model = MatrixFactorization(1, 3, n_factors=2, seed=0)
        with pytest.raises(ValueError, match="occupations"):
            sampler.bind(dataset, model, seed=0)

    def test_bns4_works_with_occupations(self):
        dataset = make_dataset(
            [(0, 0), (1, 1)],
            [(0, 2)],
            n_users=2,
            n_items=4,
            user_occupations=np.asarray([0, 1]),
        )
        model = MatrixFactorization(2, 4, n_factors=2, seed=0)
        sampler = make_sampler("bns-4")
        sampler.bind(dataset, model, seed=0)
        out = sampler.sample_for_user(0, np.asarray([0]), model.scores(0))
        assert out.size == 1


class TestNumericalRobustness:
    def test_training_with_huge_lr_stays_finite(self, tiny_dataset):
        """Even an absurd learning rate must not produce NaNs (stable
        sigmoid/log-sigmoid paths)."""
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=4, seed=0
        )
        trainer = Trainer(
            model,
            tiny_dataset,
            make_sampler("rns"),
            TrainingConfig(epochs=2, batch_size=8, lr=50.0, seed=0),
        )
        history = trainer.fit()
        assert np.isfinite(history[-1].mean_loss)
        assert np.all(np.isfinite(model.user_factors))

    def test_zero_reg_training(self, tiny_dataset):
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=4, seed=0
        )
        trainer = Trainer(
            model,
            tiny_dataset,
            make_sampler("rns"),
            TrainingConfig(epochs=2, batch_size=8, reg=0.0, seed=0),
        )
        trainer.fit()
        assert np.all(np.isfinite(model.item_factors))
