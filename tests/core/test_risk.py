"""Tests for repro.core.risk (Eq. 23–32, Theorem 0.1)."""

import numpy as np
import pytest

from repro.core.risk import (
    conditional_sampling_risk,
    empirical_sampling_risk,
    optimal_sample_index,
)


class TestConditionalRisk:
    def test_eq31_formula(self):
        info = np.asarray([0.5])
        unbias = np.asarray([0.8])
        weight = 5.0
        expected = 0.5 * (1 - 0.8) - 5.0 * 0.8 * 0.5
        assert conditional_sampling_risk(info, unbias, weight)[0] == pytest.approx(
            expected
        )

    def test_eq32_factored_form(self):
        """info·(1−u) − λ·u·info == info·(1 − (1+λ)u)."""
        rng = np.random.default_rng(0)
        info, unbias = rng.random(100), rng.random(100)
        lam = 3.0
        factored = info * (1 - (1 + lam) * unbias)
        assert np.allclose(conditional_sampling_risk(info, unbias, lam), factored)

    def test_certain_tn_risk_is_negative(self):
        """Sampling a certain true negative is pure gain (negative risk)."""
        risk = conditional_sampling_risk(np.asarray([0.5]), np.asarray([1.0]), 5.0)
        assert risk[0] < 0

    def test_certain_fn_risk_is_positive(self):
        risk = conditional_sampling_risk(np.asarray([0.5]), np.asarray([0.0]), 5.0)
        assert risk[0] > 0

    def test_zero_info_zero_risk(self):
        risk = conditional_sampling_risk(np.asarray([0.0]), np.asarray([0.5]), 5.0)
        assert risk[0] == 0.0

    def test_neutral_point(self):
        """Risk crosses zero at unbias = 1/(1+λ)."""
        lam = 4.0
        risk = conditional_sampling_risk(
            np.asarray([0.7]), np.asarray([1 / (1 + lam)]), lam
        )
        assert risk[0] == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            conditional_sampling_risk(np.ones(3), np.ones(2), 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            conditional_sampling_risk(np.ones(2), np.ones(2), -1.0)


class TestOptimalIndex:
    def test_picks_minimum(self):
        info = np.asarray([0.9, 0.9, 0.9])
        unbias = np.asarray([0.1, 0.9, 0.5])
        assert optimal_sample_index(info, unbias, 5.0) == 1

    def test_prefers_informative_among_equally_unbiased(self):
        info = np.asarray([0.2, 0.8])
        unbias = np.asarray([0.9, 0.9])
        # both risks negative; the more informative negative is riskier
        # downward → smaller risk → selected.
        assert optimal_sample_index(info, unbias, 5.0) == 1

    def test_avoids_informative_false_negative(self):
        info = np.asarray([0.9, 0.3])
        unbias = np.asarray([0.05, 0.95])
        assert optimal_sample_index(info, unbias, 5.0) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            optimal_sample_index(np.asarray([]), np.asarray([]), 1.0)


class TestEmpiricalRisk:
    def test_mean(self):
        assert empirical_sampling_risk(np.asarray([1.0, 2.0, 3.0])) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_sampling_risk(np.asarray([]))

    def test_theorem01_argmin_minimizes_empirical_risk(self, rng):
        """Theorem 0.1 by simulation: the per-positive argmin sampler's
        empirical risk lower-bounds any other sampler's."""
        n_positives, n_candidates = 200, 8
        info = rng.random((n_positives, n_candidates))
        unbias = rng.random((n_positives, n_candidates))
        risk = conditional_sampling_risk(info, unbias, 5.0)
        optimal = risk.min(axis=1)
        h_star = empirical_sampling_risk(optimal)
        for trial in range(20):
            arbitrary_choice = rng.integers(n_candidates, size=n_positives)
            competitor = risk[np.arange(n_positives), arbitrary_choice]
            assert h_star <= empirical_sampling_risk(competitor) + 1e-12
