"""Tests for repro.core.empirical (Eq. 16, Glivenko–Cantelli)."""

import numpy as np
import pytest
from scipy import stats

from repro.core.empirical import EmpiricalCdf, empirical_cdf_at, ks_distance


class TestEmpiricalCdf:
    def test_step_values(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
        assert cdf(np.asarray([0.5]))[0] == 0.0
        assert cdf(np.asarray([1.0]))[0] == 0.25  # right-continuous: includes itself
        assert cdf(np.asarray([2.5]))[0] == 0.5
        assert cdf(np.asarray([4.0]))[0] == 1.0
        assert cdf(np.asarray([9.0]))[0] == 1.0

    def test_handles_ties(self):
        cdf = EmpiricalCdf([1.0, 1.0, 1.0, 2.0])
        assert cdf(np.asarray([1.0]))[0] == 0.75

    def test_unsorted_input(self):
        cdf = EmpiricalCdf([3.0, 1.0, 2.0])
        assert cdf(np.asarray([1.5]))[0] == pytest.approx(1 / 3)

    def test_vectorized(self):
        cdf = EmpiricalCdf(np.arange(10.0))
        out = cdf(np.asarray([[0.0, 4.5], [9.0, -1.0]]))
        assert out.shape == (2, 2)
        assert out[1, 1] == 0.0

    def test_n_property(self):
        assert EmpiricalCdf([1.0, 2.0]).n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EmpiricalCdf([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmpiricalCdf([1.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmpiricalCdf([1.0, float("inf")])


class TestHelpers:
    def test_empirical_cdf_at_eq16(self):
        """Eq. 16: percentage of reference scores <= the query score."""
        reference = np.asarray([0.1, 0.2, 0.3, 0.4, 0.5])
        out = empirical_cdf_at(reference, np.asarray([0.35, 0.05]))
        assert out[0] == pytest.approx(0.6)
        assert out[1] == 0.0


class TestGlivenkoCantelli:
    def test_ks_distance_shrinks_with_n(self, rng):
        """sup|F_n − F| must shrink as the sample grows (a.s. convergence)."""
        base = stats.norm(0, 1)
        small = ks_distance(rng.normal(size=50), base.cdf)
        large = ks_distance(rng.normal(size=50_000), base.cdf)
        assert large < small
        assert large < 0.02

    def test_ks_distance_exact_for_point_mass(self):
        # A single observation at the median: F_n jumps 0→1 at 0 while
        # F(0) = 0.5, so the sup-distance is 0.5 on both sides.
        base = stats.norm(0, 1)
        assert ks_distance(np.asarray([0.0]), base.cdf) == pytest.approx(0.5)

    def test_ks_distance_hand_computed(self):
        """Two-point sample vs U(0,1): both one-sided gaps equal 0.25."""
        uniform_cdf = lambda x: np.clip(x, 0.0, 1.0)  # noqa: E731
        assert ks_distance(np.asarray([0.25, 0.75]), uniform_cdf) == pytest.approx(
            0.25
        )

    def test_ks_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance(np.asarray([]), stats.norm().cdf)

    def test_rate_of_convergence(self, rng):
        """KS distance should scale like 1/sqrt(n) (DKW bound regime)."""
        base = stats.uniform(0, 1)
        distances = []
        for n in (100, 10_000):
            sample = rng.random(n)
            distances.append(ks_distance(sample, base.cdf))
        assert distances[1] < distances[0] * 0.35
