"""Tests for repro.contrastive.loss (InfoNCE and its gradients)."""

import numpy as np
import pytest

from repro.contrastive.loss import info_nce_gradients, info_nce_loss


@pytest.fixture
def case(rng):
    anchor = rng.normal(size=6)
    positive = rng.normal(size=6)
    negatives = rng.normal(size=(4, 6))
    return anchor, positive, negatives


class TestLossValue:
    def test_positive(self, case):
        assert info_nce_loss(*case) > 0

    def test_perfect_alignment_small_loss(self):
        anchor = np.asarray([10.0, 0.0])
        positive = np.asarray([10.0, 0.0])
        negatives = np.asarray([[-10.0, 0.0], [0.0, -10.0]])
        assert info_nce_loss(anchor, positive, negatives, temperature=1.0) < 1e-8

    def test_hard_negative_raises_loss(self, case):
        anchor, positive, negatives = case
        hard = negatives.copy()
        hard[0] = anchor * 3  # extremely similar negative
        assert info_nce_loss(anchor, positive, hard) > info_nce_loss(*case)

    def test_temperature_validated(self, case):
        with pytest.raises(ValueError):
            info_nce_loss(*case, temperature=0.0)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="share a shape"):
            info_nce_loss(rng.normal(size=4), rng.normal(size=5), rng.normal(size=(2, 4)))
        with pytest.raises(ValueError, match="negatives"):
            info_nce_loss(rng.normal(size=4), rng.normal(size=4), rng.normal(size=(2, 5)))

    def test_numerically_stable_at_extremes(self):
        anchor = np.asarray([1000.0, 0.0])
        positive = np.asarray([1000.0, 0.0])
        negatives = np.asarray([[1000.0, 1.0]])
        value = info_nce_loss(anchor, positive, negatives, temperature=0.1)
        assert np.isfinite(value)


class TestGradients:
    def test_matches_numerical(self, case):
        """All three analytic gradients vs central finite differences."""
        anchor, positive, negatives = case
        temperature = 0.7
        grad_a, grad_p, grad_n = info_nce_gradients(
            anchor, positive, negatives, temperature
        )
        eps = 1e-6

        def loss(a, p, n):
            return info_nce_loss(a, p, n, temperature)

        for i in range(anchor.size):
            bump = np.zeros_like(anchor)
            bump[i] = eps
            numeric = (
                loss(anchor + bump, positive, negatives)
                - loss(anchor - bump, positive, negatives)
            ) / (2 * eps)
            assert numeric == pytest.approx(grad_a[i], abs=1e-5)
            numeric = (
                loss(anchor, positive + bump, negatives)
                - loss(anchor, positive - bump, negatives)
            ) / (2 * eps)
            assert numeric == pytest.approx(grad_p[i], abs=1e-5)

        for k in range(negatives.shape[0]):
            for i in range(anchor.size):
                bumped_up = negatives.copy()
                bumped_up[k, i] += eps
                bumped_down = negatives.copy()
                bumped_down[k, i] -= eps
                numeric = (
                    loss(anchor, positive, bumped_up)
                    - loss(anchor, positive, bumped_down)
                ) / (2 * eps)
                assert numeric == pytest.approx(grad_n[k, i], abs=1e-5)

    def test_descent_reduces_loss(self, case):
        anchor, positive, negatives = case
        before = info_nce_loss(anchor, positive, negatives)
        grad_a, grad_p, grad_n = info_nce_gradients(anchor, positive, negatives)
        after = info_nce_loss(
            anchor - 0.05 * grad_a,
            positive - 0.05 * grad_p,
            negatives - 0.05 * grad_n,
        )
        assert after < before
