"""Tests for repro.models.biased_mf."""

import numpy as np
import pytest

from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.mf import MatrixFactorization
from repro.train.loss import log_sigmoid
from repro.train.optimizer import SGD


@pytest.fixture
def model():
    return BiasedMatrixFactorization(4, 6, n_factors=3, seed=0)


class TestScoring:
    def test_bias_added(self, model):
        model.item_bias[2] = 5.0
        scores = model.scores(0)
        dot = model.item_factors[2] @ model.user_factors[0]
        assert scores[2] == pytest.approx(dot + 5.0)

    def test_score_pairs_consistent(self, model):
        model.item_bias[:] = np.arange(6) * 0.1
        users = np.asarray([1, 3])
        items = np.asarray([0, 5])
        pairwise = model.score_pairs(users, items)
        assert pairwise[0] == pytest.approx(model.scores(1)[0])
        assert pairwise[1] == pytest.approx(model.scores(3)[5])

    def test_bias_starts_zero(self, model):
        assert np.all(model.item_bias == 0.0)


class TestTraining:
    def test_bias_learns_popularity_direction(self, model):
        """An item used only as positive gains bias; only-negative loses."""
        for _ in range(50):
            model.train_step(
                np.asarray([0]), np.asarray([1]), np.asarray([2]), SGD(0.1), reg=0.0
            )
        assert model.item_bias[1] > 0.0
        assert model.item_bias[2] < 0.0

    def test_improves_objective(self, model):
        users, pos, neg = np.asarray([0]), np.asarray([1]), np.asarray([2])
        def objective():
            return log_sigmoid(
                model.score_pairs(users, pos) - model.score_pairs(users, neg)
            )[0]

        before = objective()
        model.train_step(users, pos, neg, SGD(0.1), reg=0.0)
        assert objective() > before

    def test_gradient_matches_numerical(self):
        model = BiasedMatrixFactorization(3, 5, n_factors=2, seed=1)
        model.item_bias[:] = np.linspace(-0.2, 0.2, 5)
        users, pos, neg = np.asarray([1]), np.asarray([0]), np.asarray([4])
        reg = 0.02
        base_bias = model.item_bias.copy()
        base_u = model.user_factors.copy()
        base_i = model.item_factors.copy()

        def loss(bias):
            w, hi, hj = base_u[1], base_i[0], base_i[4]
            diff = (w @ hi + bias[0]) - (w @ hj + bias[4])
            penalty = 0.5 * reg * (bias[0] ** 2 + bias[4] ** 2)
            return -log_sigmoid(np.asarray([diff]))[0] + penalty

        model.train_step(users, pos, neg, SGD(1.0), reg=reg)
        analytic = base_bias - model.item_bias

        eps = 1e-6
        for idx in (0, 4):
            up, down = base_bias.copy(), base_bias.copy()
            up[idx] += eps
            down[idx] -= eps
            numeric = (loss(up) - loss(down)) / (2 * eps)
            assert numeric == pytest.approx(analytic[idx], abs=1e-5)

    def test_factor_step_is_mf_step(self):
        """With the bias still zero, BiasedMF's step on the factor tables
        is MF's (Eq. 2) bit for bit, and so is the ``info`` it returns."""
        users = np.array([0, 3, 3, 1, 2])
        pos = np.array([1, 2, 5, 1, 0])
        neg = np.array([4, 0, 2, 3, 5])
        biased = BiasedMatrixFactorization(4, 6, n_factors=3, seed=9)
        plain = MatrixFactorization(4, 6, n_factors=3, seed=9)
        info = biased.train_step(users, pos, neg, SGD(0.1), reg=0.01)
        info_mf = plain.train_step(users, pos, neg, SGD(0.1), reg=0.01)
        assert info.tobytes() == info_mf.tobytes()
        assert biased.user_factors.tobytes() == plain.user_factors.tobytes()
        assert biased.item_factors.tobytes() == plain.item_factors.tobytes()

    def test_bias_reg_scale(self):
        light = BiasedMatrixFactorization(2, 3, n_factors=2, bias_reg_scale=0.0, seed=0)
        light.item_bias[:] = 1.0
        # pos == neg → pure regularization step on biases.
        light.train_step(
            np.asarray([0]), np.asarray([1]), np.asarray([1]), SGD(0.5), reg=1.0
        )
        assert np.allclose(light.item_bias, 1.0)  # bias reg disabled

    def test_trains_end_to_end(self, tiny_dataset):
        from repro.samplers.variants import make_sampler
        from repro.train.trainer import Trainer, TrainingConfig

        model = BiasedMatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=8, seed=0
        )
        trainer = Trainer(
            model,
            tiny_dataset,
            make_sampler("bns"),
            TrainingConfig(epochs=3, batch_size=16, lr=0.05, seed=0),
        )
        history = trainer.fit()
        assert history[-1].mean_loss < history[0].mean_loss

    def test_bias_tracks_item_popularity(self, tiny_dataset):
        """After training, bias should correlate with training popularity."""
        from repro.samplers.variants import make_sampler
        from repro.train.trainer import Trainer, TrainingConfig

        model = BiasedMatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=8, seed=0
        )
        trainer = Trainer(
            model,
            tiny_dataset,
            make_sampler("rns"),
            TrainingConfig(epochs=15, batch_size=16, lr=0.05, seed=0),
        )
        trainer.fit()
        popularity = tiny_dataset.train.item_popularity.astype(float)
        correlation = np.corrcoef(popularity, model.item_bias)[0, 1]
        assert correlation > 0.3
