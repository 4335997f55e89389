"""Empirical distribution function machinery (Eq. 16).

The posterior of §III-C needs the score CDF ``F``, which has no closed form
for a learned model.  The paper replaces it with the empirical CDF over the
user's un-interacted scores,

    F_n(x̂_l) = #{x̂_· ≤ x̂_l, · ∈ I⁻_u} / |I⁻_u|,

justified by the Glivenko–Cantelli theorem (``sup_x |F_n − F| → 0`` a.s.).
:func:`ks_distance` exposes that uniform deviation so tests can watch the
convergence directly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["empirical_cdf_at", "ks_distance", "EmpiricalCdf"]


class EmpiricalCdf:
    """The empirical CDF of a fixed sample, evaluable at arbitrary points.

    Build once (``O(n log n)`` sort), evaluate many times (``O(log n)``
    per point) — the access pattern of the BNS sampler, which evaluates
    ``F_n`` at each candidate's score against the user's full negative
    score vector.
    """

    def __init__(self, sample: np.ndarray) -> None:
        sample = np.asarray(sample, dtype=np.float64).ravel()
        if sample.size == 0:
            raise ValueError("empirical CDF needs at least one observation")
        if not np.all(np.isfinite(sample)):
            raise ValueError("sample contains non-finite values")
        self._sorted = np.sort(sample)
        self._n = sample.size

    @property
    def n(self) -> int:
        """Sample size."""
        return self._n

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``F_n(x)`` — fraction of the sample ``<= x`` (right-continuous)."""
        x = np.asarray(x, dtype=np.float64)
        return np.searchsorted(self._sorted, x, side="right") / self._n


def empirical_cdf_at(sample: np.ndarray, points: np.ndarray) -> np.ndarray:
    """One-shot ``F_n`` evaluation — Eq. 16 exactly.

    ``empirical_cdf_at(scores_of_negatives, candidate_scores)`` returns, for
    each candidate, the fraction of the user's negative scores that do not
    exceed it.
    """
    return EmpiricalCdf(sample)(points)


def ks_distance(
    sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Kolmogorov–Smirnov distance ``sup_x |F_n(x) − F(x)|``.

    Evaluated at the sample points (where the supremum of the one-sided
    differences is attained for a right-continuous step function).
    ``cdf`` is assumed *continuous* — the standard KS setting; feeding a
    step function (e.g. another ECDF) overestimates the distance.
    """
    sorted_sample = np.sort(np.asarray(sample, dtype=np.float64).ravel())
    if sorted_sample.size == 0:
        raise ValueError("ks_distance needs at least one observation")
    n = sorted_sample.size
    theoretical = np.asarray(cdf(sorted_sample), dtype=np.float64)
    upper = np.arange(1, n + 1) / n - theoretical
    lower = theoretical - np.arange(0, n) / n
    return float(np.max(np.maximum(upper, lower)))
