"""Tests for repro.core.unbiasedness (Eq. 15, Lemma 0.1)."""

import numpy as np
import pytest

from repro.core.unbiasedness import unbias, unbias_from_components


class TestAlgebra:
    def test_matches_eq15_denominator(self):
        """(1−F)(1−P) + F·P == 1 − F − P + 2FP (the paper's form)."""
        rng = np.random.default_rng(0)
        F = rng.random(100)
        P = rng.random(100)
        ours = (1 - F) * (1 - P) + F * P
        paper = 1 - F - P + 2 * F * P
        assert np.allclose(ours, paper)

    def test_unbias_equals_paper_expression(self):
        rng = np.random.default_rng(1)
        F = rng.random(50) * 0.98 + 0.01
        P = rng.random(50) * 0.98 + 0.01
        expected = ((1 - F) * (1 - P)) / (1 - F - P + 2 * F * P)
        assert np.allclose(unbias(F, P), expected)


class TestBoundaryBehaviour:
    def test_zero_cdf_certain_tn(self):
        """Lowest-scored item with any non-degenerate prior → unbias = 1."""
        assert unbias(np.asarray([0.0]), np.asarray([0.3]))[0] == 1.0

    def test_unit_cdf_certain_fn(self):
        """Top-scored item with a positive prior → unbias = 0."""
        assert unbias(np.asarray([1.0]), np.asarray([0.3]))[0] == 0.0

    def test_degenerate_corners_are_half(self):
        """0/0 corners carry no evidence → defined as 0.5."""
        assert unbias(np.asarray([1.0]), np.asarray([0.0]))[0] == 0.5
        assert unbias(np.asarray([0.0]), np.asarray([1.0]))[0] == 0.5

    def test_corners_raise_no_floating_point_error(self):
        """The 0/0 corners never divide by zero, so ``errstate(all="raise")``
        sees nothing."""
        with np.errstate(all="raise"):
            out = unbias(np.asarray([1.0, 0.0]), np.asarray([0.0, 1.0]))
        assert out.tolist() == [0.5, 0.5]

    def test_nan_input_raises_nothing(self):
        """A NaN denominator is not positive, so it lands on the 0.5
        corner without signalling."""
        with np.errstate(all="raise"):
            out = unbias(
                np.asarray([np.nan, 0.3, np.nan]), np.asarray([0.2, np.nan, np.nan])
            )
        assert out.tolist() == [0.5, 0.5, 0.5]

    def test_uniform_prior_half_cdf(self):
        """F = 1/2 with prior 1/2 → posterior 1/2 (no information)."""
        assert unbias(np.asarray([0.5]), np.asarray([0.5]))[0] == pytest.approx(0.5)

    def test_range(self):
        rng = np.random.default_rng(2)
        values = unbias(rng.random(1000), rng.random(1000))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_clips_out_of_range_inputs(self):
        values = unbias(np.asarray([-0.5, 1.5]), np.asarray([0.5, 0.5]))
        assert values[0] == 1.0  # clipped to F=0
        assert values[1] == 0.0  # clipped to F=1


class TestMonotonicity:
    def test_decreasing_in_cdf(self):
        F = np.linspace(0, 1, 51)
        values = unbias(F, np.full_like(F, 0.3))
        assert np.all(np.diff(values) <= 1e-12)

    def test_decreasing_in_prior(self):
        P = np.linspace(0, 1, 51)
        values = unbias(np.full_like(P, 0.3), P)
        assert np.all(np.diff(values) <= 1e-12)


class TestLemma01Unbiasedness:
    """Lemma 0.1's unbiasedness claim, stated precisely.

    The paper's proof (Eq. 20–22) evaluates Eq. 15 at the *expectations*
    E[F(X)] = 1/2 and E[P_fn] = θ, yielding 1 − θ.  Because Eq. 15 is
    nonlinear, the full expectation over a uniform F differs from 1 − θ
    for θ ≠ 1/2 (a Jensen gap the paper does not discuss).  The claim that
    *does* hold exactly: at the median score F = 1/2, ``unbias(1/2, p)``
    is linear (= 1 − p), so the binomial prior noise averages out and the
    estimator is exactly unbiased.  We test all three facets.
    """

    @pytest.mark.parametrize("theta", [0.05, 0.1, 0.3, 0.5, 0.8])
    def test_plug_in_value_is_one_minus_theta(self, theta):
        """Eq. 22: unbias(E[F], E[P_fn]) = 1 − θ, exactly."""
        value = unbias(np.asarray([0.5]), np.asarray([theta]))[0]
        assert value == pytest.approx(1 - theta, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.5])
    def test_exactly_unbiased_at_median_score(self, theta, rng):
        """With F fixed at 1/2, E_pop[unbias(1/2, pop/N)] = 1 − θ."""
        n_trials, N = 200_000, 200
        pop = rng.binomial(N, theta, size=n_trials)
        estimates = unbias(np.full(n_trials, 0.5), pop / N)
        assert estimates.mean() == pytest.approx(1 - theta, abs=0.005)

    def test_prior_estimator_itself_unbiased(self, rng):
        """Eq. 19: E[pop/N] = θ (the binomial mean)."""
        theta, N = 0.23, 150
        pop = rng.binomial(N, theta, size=100_000)
        assert (pop / N).mean() == pytest.approx(theta, abs=0.003)

    def test_jensen_gap_over_uniform_cdf(self, rng):
        """Documented deviation: averaging over F ~ U(0,1) with θ < 1/2
        *underestimates* 1 − θ (Eq. 15 is convex in F there)."""
        theta, n_trials = 0.1, 200_000
        F = rng.random(n_trials)
        estimates = unbias(F, np.full(n_trials, theta))
        assert estimates.mean() < 1 - theta - 0.01


class TestFromComponents:
    def test_composition(self):
        reference = np.asarray([0.0, 1.0, 2.0, 3.0])
        scores = np.asarray([2.5])
        prior = np.asarray([0.25])
        # F = 3/4; unbias = (0.25*0.75)/(0.25*0.75 + 0.75*0.25) = 0.5
        value = unbias_from_components(scores, reference, prior)
        assert value[0] == pytest.approx(0.5)

    def test_shape_preserved(self):
        reference = np.arange(10.0)
        scores = np.asarray([[1.0, 5.0], [8.0, 2.0]])
        prior = np.full((2, 2), 0.2)
        assert unbias_from_components(scores, reference, prior).shape == (2, 2)
