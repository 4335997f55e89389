"""Closed-form theoretical TN/FN distributions (Fig. 2).

For a chosen base score distribution ``f`` — Gaussian, Student-t, or Gamma,
the three families the paper plots — this module provides the induced
true-negative density ``g = 2f(1−F)``, false-negative density
``h = 2fF``, their CDFs, moments, and samplers.  These are the analytic
curves that the *empirical* score distributions of a real training run
(Fig. 1) converge towards; the test suite checks both the analytics and
that convergence.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import integrate, stats

from repro.core.order_statistics import (
    false_negative_density,
    true_negative_density,
)
from repro.utils.rng import SeedLike, as_rng

__all__ = ["TheoreticalDistribution", "named_distribution"]


class TheoreticalDistribution:
    """TN/FN order-statistic distributions induced by a base distribution.

    Parameters
    ----------
    base:
        Any ``scipy.stats`` frozen continuous distribution (e.g.
        ``scipy.stats.norm(0, 1)``).
    """

    def __init__(self, base) -> None:
        if not hasattr(base, "pdf") or not hasattr(base, "cdf"):
            raise TypeError("base must be a frozen scipy.stats distribution")
        self.base = base

    # ------------------------------------------------------------------ #
    # Densities and CDFs
    # ------------------------------------------------------------------ #

    def pdf_tn(self, x: np.ndarray) -> np.ndarray:
        """True-negative density ``g(x) = 2 f(x)(1 − F(x))``."""
        return true_negative_density(x, self.base.pdf, self.base.cdf)

    def pdf_fn(self, x: np.ndarray) -> np.ndarray:
        """False-negative density ``h(x) = 2 f(x) F(x)``."""
        return false_negative_density(x, self.base.pdf, self.base.cdf)

    # ------------------------------------------------------------------ #
    # Moments and separation
    # ------------------------------------------------------------------ #

    def mean_tn(self) -> float:
        """Mean of the TN distribution (numerical integration)."""
        return self._moment(self.pdf_tn)

    def mean_fn(self) -> float:
        """Mean of the FN distribution."""
        return self._moment(self.pdf_fn)

    def separation(self) -> float:
        """``E[x̂_fn] − E[x̂_tn] ≥ 0`` — how far apart the classes sit.

        For any base distribution this equals ``2·E|X₁ − X₂|/2 ≥ 0``; the
        paper's Fig. 2 visualizes exactly this separation.
        """
        return self.mean_fn() - self.mean_tn()

    def _moment(self, pdf, order: int = 1) -> float:
        low, high = self.base.support()

        def integrand(x: float) -> float:
            return (x**order) * float(pdf(np.asarray([x]))[0])

        value, _ = integrate.quad(integrand, low, high, limit=200)
        return float(value)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def sample(self, n: int, seed: SeedLike = None) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` (TN, FN) score pairs by the generative story itself.

        Two IID draws from the base distribution are sorted; the minimum is
        the TN score and the maximum the FN score (Eq. 7).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        rng = as_rng(seed)
        draws = self.base.rvs(size=(n, 2), random_state=rng)
        draws = np.sort(draws, axis=1)
        return draws[:, 0], draws[:, 1]


def named_distribution(name: str, **params) -> TheoreticalDistribution:
    """The paper's three Fig. 2 families by name.

    ``"gaussian"`` (``mu``, ``sigma``), ``"student"`` (``df``), or
    ``"gamma"`` (``alpha``, ``lam`` rate).
    """
    key = name.lower()
    if key in {"gaussian", "normal"}:
        base = stats.norm(params.get("mu", 0.0), params.get("sigma", 1.0))
    elif key in {"student", "student-t", "t"}:
        base = stats.t(params.get("df", 5.0))
    elif key == "gamma":
        base = stats.gamma(params.get("alpha", 2.0), scale=1.0 / params.get("lam", 1.0))
    else:
        raise KeyError(f"unknown distribution {name!r}; use gaussian|student|gamma")
    return TheoreticalDistribution(base)
