"""Tests for repro.models.mf.MatrixFactorization."""

import numpy as np
import pytest

from repro.backend import kernels
from repro.models.mf import MatrixFactorization
from repro.train.loss import informativeness, log_sigmoid
from repro.train.optimizer import SGD, aggregate_rows


@pytest.fixture
def model():
    return MatrixFactorization(5, 7, n_factors=4, seed=0)


class TestConstruction:
    def test_shapes(self, model):
        assert model.user_factors.shape == (5, 4)
        assert model.item_factors.shape == (7, 4)

    def test_seed_reproducible(self):
        a = MatrixFactorization(5, 7, n_factors=4, seed=1)
        b = MatrixFactorization(5, 7, n_factors=4, seed=1)
        assert np.array_equal(a.user_factors, b.user_factors)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            MatrixFactorization(0, 7)
        with pytest.raises(ValueError):
            MatrixFactorization(5, 7, n_factors=0)


class TestScoring:
    def test_scores_are_dot_products(self, model):
        scores = model.scores(2)
        expected = model.item_factors @ model.user_factors[2]
        assert np.allclose(scores, expected)

    def test_scores_shape(self, model):
        assert model.scores(0).shape == (7,)

    def test_scores_user_range(self, model):
        with pytest.raises(IndexError):
            model.scores(5)
        with pytest.raises(IndexError):
            model.scores(-1)

    def test_score_pairs_matches_scores(self, model):
        users = np.asarray([0, 1, 4])
        items = np.asarray([3, 0, 6])
        pairwise = model.score_pairs(users, items)
        for k in range(3):
            assert pairwise[k] == pytest.approx(model.scores(users[k])[items[k]])


class TestTrainStep:
    def test_returns_info(self, model):
        info = model.train_step(
            np.asarray([0]), np.asarray([1]), np.asarray([2]), SGD(0.1), reg=0.0
        )
        assert info.shape == (1,)
        assert 0.0 < info[0] < 1.0

    def test_improves_pairwise_objective(self, model):
        """One step must increase ln σ(x̂_ui − x̂_uj) for the trained triple."""
        users, pos, neg = np.asarray([0]), np.asarray([1]), np.asarray([2])
        before = log_sigmoid(
            model.score_pairs(users, pos) - model.score_pairs(users, neg)
        )[0]
        model.train_step(users, pos, neg, SGD(0.1), reg=0.0)
        after = log_sigmoid(
            model.score_pairs(users, pos) - model.score_pairs(users, neg)
        )[0]
        assert after > before

    def test_gradient_matches_numerical(self, model):
        """Analytic gradient vs central finite differences on the loss."""
        users, pos, neg = np.asarray([1]), np.asarray([2]), np.asarray([5])
        reg = 0.03
        base_u = model.user_factors.copy()
        base_i = model.item_factors.copy()

        def loss(user_factors, item_factors):
            w, hi, hj = user_factors[1], item_factors[2], item_factors[5]
            diff = w @ hi - w @ hj
            penalty = 0.5 * reg * (w @ w + hi @ hi + hj @ hj)
            return -log_sigmoid(np.asarray([diff]))[0] + penalty

        # Analytic step with lr=1 on a fresh copy gives -gradient.
        model.train_step(users, pos, neg, SGD(1.0), reg=reg)
        analytic_grad_u = base_u[1] - model.user_factors[1]
        analytic_grad_i = base_i[2] - model.item_factors[2]
        analytic_grad_j = base_i[5] - model.item_factors[5]

        eps = 1e-6
        for dim in range(4):
            for target, grad in (
                (("user", 1, dim), analytic_grad_u[dim]),
                (("item", 2, dim), analytic_grad_i[dim]),
                (("item", 5, dim), analytic_grad_j[dim]),
            ):
                kind, row, col = target
                u_plus, i_plus = base_u.copy(), base_i.copy()
                u_minus, i_minus = base_u.copy(), base_i.copy()
                if kind == "user":
                    u_plus[row, col] += eps
                    u_minus[row, col] -= eps
                else:
                    i_plus[row, col] += eps
                    i_minus[row, col] -= eps
                numeric = (loss(u_plus, i_plus) - loss(u_minus, i_minus)) / (2 * eps)
                assert numeric == pytest.approx(grad, abs=1e-5)

    def test_regularization_shrinks_unused_direction(self, model):
        """With reg > 0 the touched rows shrink toward zero over steps."""
        norm_before = np.linalg.norm(model.user_factors[0])
        for _ in range(200):
            model.train_step(
                np.asarray([0]), np.asarray([1]), np.asarray([1]), SGD(0.05), reg=0.5
            )
        # pos == neg → zero BPR gradient; only the L2 term acts.
        assert np.linalg.norm(model.user_factors[0]) < norm_before * 0.01

    def test_duplicate_rows_aggregated_deterministically(self):
        """A batch with a repeated user must equal the summed-gradient step."""
        a = MatrixFactorization(3, 5, n_factors=4, seed=2)
        b = MatrixFactorization(3, 5, n_factors=4, seed=2)
        users = np.asarray([0, 0])
        pos = np.asarray([1, 2])
        neg = np.asarray([3, 4])
        a.train_step(users, pos, neg, SGD(0.1), reg=0.0)
        # Manual: same triples, gradients summed before one update.
        w = b.user_factors[0].copy()
        h = b.item_factors.copy()
        from repro.train.loss import sigmoid

        total = np.zeros(4)
        for i, j in ((1, 3), (2, 4)):
            s = 1 - sigmoid(np.asarray([w @ h[i] - w @ h[j]]))[0]
            total += -s * (h[i] - h[j])
        b.train_step(users, pos, neg, SGD(0.1), reg=0.0)
        expected = w - 0.1 * total
        assert np.allclose(b.user_factors[0], expected)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("reg", [0.01, 0.0])
    @pytest.mark.parametrize(
        "triples",
        [
            ([3], [1], [6]),
            ([0, 4, 2], [1, 5, 7], [3, 8, 0]),
            ([0, 0, 5, 2], [1, 3, 1, 8], [3, 2, 7, 1]),
        ],
        ids=["one", "conflict_free", "repeated_rows"],
    )
    def test_item_gradients_match_per_row_form(self, dtype, reg, triples):
        """One gather and one ``reg·h + (−s·w_u; s·w_u)`` for both item
        gradients must step exactly like the per-row expressions
        ``−s·w_u + reg·h_i`` and ``s·w_u + reg·h_j``."""
        users, pos, neg = (np.asarray(ids, dtype=np.int64) for ids in triples)
        model = MatrixFactorization(6, 9, n_factors=8, seed=3, dtype=dtype)
        user_table = model.user_factors.copy()
        item_table = model.item_factors.copy()
        w_u, h_i, h_j = user_table[users], item_table[pos], item_table[neg]
        expected_info = informativeness(
            kernels.pair_dot(w_u, h_i), kernels.pair_dot(w_u, h_j)
        )
        s = expected_info[:, None]
        grad_u = -s * (h_i - h_j) + reg * w_u
        grad_i = -s * w_u + reg * h_i
        grad_j = s * w_u + reg * h_j
        oracle = SGD(0.05)
        oracle.update_rows("user_factors", user_table, *aggregate_rows(users, grad_u))
        oracle.update_rows(
            "item_factors",
            item_table,
            *aggregate_rows(
                np.concatenate([pos, neg]), np.concatenate([grad_i, grad_j])
            ),
        )

        info = model.train_step(users, pos, neg, SGD(0.05), reg=reg)
        assert info.tobytes() == expected_info.tobytes()
        assert model.user_factors.tobytes() == user_table.tobytes()
        assert model.item_factors.tobytes() == item_table.tobytes()

    def test_parallel_array_validation(self, model):
        with pytest.raises(ValueError, match="parallel"):
            model.train_step(
                np.asarray([0, 1]), np.asarray([0]), np.asarray([1]), SGD(0.1), 0.0
            )

    def test_negative_reg_rejected(self, model):
        with pytest.raises(ValueError):
            model.train_step(
                np.asarray([0]), np.asarray([1]), np.asarray([2]), SGD(0.1), -0.1
            )

    def test_repr(self, model):
        assert "n_factors=4" in repr(model)
