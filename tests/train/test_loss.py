"""Tests for repro.train.loss."""

import numpy as np
import pytest

from repro.train.loss import bpr_loss, informativeness, log_sigmoid, sigmoid


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.asarray([0.0]))[0] == 0.5

    def test_symmetry(self):
        x = np.linspace(-5, 5, 21)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)

    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-20, 20, 101)
        naive = 1.0 / (1.0 + np.exp(-x))
        assert np.allclose(sigmoid(x), naive)

    def test_extreme_values_stable(self):
        out = sigmoid(np.asarray([-1000.0, 1000.0]))
        assert out[0] == 0.0
        assert out[1] == 1.0
        assert np.all(np.isfinite(out))

    def test_preserves_shape(self):
        assert sigmoid(np.zeros((3, 4))).shape == (3, 4)


def masked_sigmoid(x):
    """The boolean-mask body ``sigmoid`` had before: the bitwise oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestSigmoidMatchesMaskedFormula:
    """``exp(−|x|)`` once is the same exponential the masked version took
    per branch, so every output bit — NaN sign and payload included —
    must agree."""

    EDGES = [
        0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 709.8, -709.8,
        5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 36.8, -36.8,
    ]
    # Quiet NaNs of both signs, one with a payload, and a signalling NaN.
    NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF80000000ABCDE,
                0x7FF0000000000001]

    def test_edge_values_bitwise(self):
        nans = np.asarray(self.NAN_BITS, dtype=np.uint64).view(np.float64)
        x = np.concatenate([self.EDGES, nans])
        with np.errstate(invalid="ignore"):
            expected = masked_sigmoid(x)
            actual = sigmoid(x)
        np.testing.assert_array_equal(_bits(actual), _bits(expected))

    def test_float32_input_bitwise(self, rng):
        x = (rng.standard_normal(1000) * 20).astype(np.float32)
        x[:4] = [0.0, -0.0, np.inf, -np.inf]
        out = sigmoid(x)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(_bits(out), _bits(masked_sigmoid(x)))

    def test_random_values_bitwise(self, rng):
        x = rng.standard_normal(10**5) * 30
        np.testing.assert_array_equal(_bits(sigmoid(x)), _bits(masked_sigmoid(x)))

    def test_zero_dim_input(self):
        out = sigmoid(-2.5)
        assert out.shape == ()
        assert _bits(out) == _bits(masked_sigmoid(-2.5))


class TestLogSigmoid:
    def test_matches_log_of_sigmoid(self):
        x = np.linspace(-20, 20, 101)
        assert np.allclose(log_sigmoid(x), np.log(sigmoid(x)))

    def test_no_overflow_at_extremes(self):
        out = log_sigmoid(np.asarray([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(-1000.0)
        assert out[1] == pytest.approx(0.0)
        assert np.all(np.isfinite(out))

    def test_always_negative(self):
        x = np.linspace(-10, 10, 50)
        assert np.all(log_sigmoid(x) <= 0)


class TestBprLoss:
    def test_loss_and_info(self):
        loss, info = bpr_loss(np.asarray([2.0]), np.asarray([1.0]))
        assert loss[0] == pytest.approx(-log_sigmoid(np.asarray([1.0]))[0])
        assert info[0] == pytest.approx(1 - sigmoid(np.asarray([1.0]))[0])

    def test_perfect_ranking_vanishes(self):
        loss, info = bpr_loss(np.asarray([100.0]), np.asarray([-100.0]))
        assert loss[0] == pytest.approx(0.0, abs=1e-9)
        assert info[0] == pytest.approx(0.0, abs=1e-9)

    def test_inverted_ranking_large(self):
        loss, info = bpr_loss(np.asarray([-10.0]), np.asarray([10.0]))
        assert loss[0] > 19
        assert info[0] == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            bpr_loss(np.ones(2), np.ones(3))

    def test_info_is_loss_gradient(self):
        """info = ∂loss/∂x̂_uj, checked by finite differences."""
        pos, neg, eps = 1.3, 0.4, 1e-7
        _, info = bpr_loss(np.asarray([pos]), np.asarray([neg]))
        up, _ = bpr_loss(np.asarray([pos]), np.asarray([neg + eps]))
        down, _ = bpr_loss(np.asarray([pos]), np.asarray([neg - eps]))
        assert (up[0] - down[0]) / (2 * eps) == pytest.approx(info[0], abs=1e-6)


class TestInformativeness:
    def test_eq4(self):
        out = informativeness(np.asarray([0.7]), np.asarray([0.2]))
        assert out[0] == pytest.approx(1 - sigmoid(np.asarray([0.5]))[0])

    def test_monotone_in_negative_score(self):
        """Higher-scored negatives are more informative (harder)."""
        pos = np.zeros(50)
        neg = np.linspace(-5, 5, 50)
        info = informativeness(pos, neg)
        assert np.all(np.diff(info) > 0)

    def test_range(self):
        info = informativeness(np.asarray([-100.0, 0.0, 100.0]), np.zeros(3))
        assert np.all(info >= 0) and np.all(info <= 1)

    def test_half_at_equal_scores(self):
        assert informativeness(np.asarray([1.0]), np.asarray([1.0]))[0] == 0.5

    def test_broadcasting(self):
        out = informativeness(np.ones((3, 1)), np.zeros((3, 5)))
        assert out.shape == (3, 5)
