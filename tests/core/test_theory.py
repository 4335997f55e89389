"""Tests for repro.core.theory (Fig. 2's closed forms)."""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import cumulative_trapezoid

from repro.core.theory import TheoreticalDistribution, named_distribution


@pytest.fixture(scope="module")
def gaussian():
    return TheoreticalDistribution(stats.norm(0, 1))


class TestConstruction:
    def test_rejects_non_distribution(self):
        with pytest.raises(TypeError, match="frozen scipy.stats"):
            TheoreticalDistribution(42)

    @pytest.mark.parametrize("name", ["gaussian", "normal", "student", "t", "gamma"])
    def test_named_families(self, name):
        assert isinstance(named_distribution(name), TheoreticalDistribution)

    def test_named_parameters_forwarded(self):
        dist = named_distribution("gaussian", mu=3.0, sigma=0.5)
        assert dist.base.mean() == pytest.approx(3.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown distribution"):
            named_distribution("cauchy")


def min_cdf(x):
    """CDF of the minimum of two standard normals: 1 − (1 − Φ)²."""
    return 1 - (1 - stats.norm.cdf(x)) ** 2


def max_cdf(x):
    """CDF of the maximum of two standard normals: Φ²."""
    return stats.norm.cdf(x) ** 2


class TestClosedForms:
    def test_cdf_tn_is_min_distribution(self, gaussian):
        """The TN density integrates to the pair minimum's CDF."""
        x = np.linspace(-8, 3, 11001)
        integral = cumulative_trapezoid(gaussian.pdf_tn(x), x, initial=0.0)
        assert np.allclose(integral, min_cdf(x), atol=1e-5)

    def test_cdf_fn_is_max_distribution(self, gaussian):
        """The FN density integrates to the pair maximum's CDF."""
        x = np.linspace(-8, 3, 11001)
        integral = cumulative_trapezoid(gaussian.pdf_fn(x), x, initial=0.0)
        assert np.allclose(integral, max_cdf(x), atol=1e-5)

    def test_cdf_matches_pdf_integral(self, gaussian):
        """d/dx CDF ≈ pdf (finite differences)."""
        x = np.linspace(-3, 3, 2001)
        assert np.allclose(np.gradient(min_cdf(x), x), gaussian.pdf_tn(x), atol=1e-3)
        assert np.allclose(np.gradient(max_cdf(x), x), gaussian.pdf_fn(x), atol=1e-3)

    def test_gaussian_means_symmetric(self, gaussian):
        """For a symmetric base, E[TN] = −E[FN]."""
        assert gaussian.mean_tn() == pytest.approx(-gaussian.mean_fn(), abs=1e-8)

    def test_gaussian_separation_value(self, gaussian):
        """E[max−min] of two standard normals is 2/√π."""
        assert gaussian.separation() == pytest.approx(2 / np.sqrt(np.pi), abs=1e-6)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("gaussian", {}),
            ("student", {"df": 5}),
            ("gamma", {"alpha": 2.0, "lam": 1.0}),
        ],
    )
    def test_separation_positive_for_all_families(self, name, params):
        dist = named_distribution(name, **params)
        assert dist.separation() > 0


class TestSampling:
    def test_sample_order(self, gaussian):
        tn, fn = gaussian.sample(1000, seed=0)
        assert np.all(tn <= fn)

    def test_sample_reproducible(self, gaussian):
        a = gaussian.sample(100, seed=5)
        b = gaussian.sample(100, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sample_size_validated(self, gaussian):
        with pytest.raises(ValueError):
            gaussian.sample(0)

    def test_sample_means_match_theory(self, gaussian):
        tn, fn = gaussian.sample(200_000, seed=1)
        assert tn.mean() == pytest.approx(gaussian.mean_tn(), abs=0.01)
        assert fn.mean() == pytest.approx(gaussian.mean_fn(), abs=0.01)

    def test_sample_cdf_matches_theory(self, gaussian):
        from repro.core.empirical import ks_distance

        tn, fn = gaussian.sample(50_000, seed=2)
        assert ks_distance(tn, min_cdf) < 0.01
        assert ks_distance(fn, max_cdf) < 0.01
