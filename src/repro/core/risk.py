"""Sampling risk and the Bayesian-optimal sampling rule (§III-D).

Sampling an unlabeled instance ``l`` and pushing its score down either
*helps* the ranking objective (if ``l`` is a true negative, gain scaled by
the trade-off weight λ) or *hurts* it (if ``l`` is a false negative).
Taking the expectation over the posterior label gives the conditional
sampling risk (Eq. 23 with the Taylor estimates of Eq. 30):

    R(l|i) = [1 − unbias(l)] · info(l)  −  λ · unbias(l) · info(l)
           = info(l) · [1 − (1 + λ) · unbias(l)]                  (Eq. 31–32)

Theorem 0.1: picking the candidate minimizing ``R(l|i)`` minimizes the
empirical sampling risk — so the sampler is simply an ``argmin``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_non_negative

__all__ = [
    "conditional_sampling_risk",
    "optimal_sample_index",
    "empirical_sampling_risk",
]


def conditional_sampling_risk(
    info: np.ndarray, unbias_values: np.ndarray, weight: float
) -> np.ndarray:
    """Eq. 31: ``R(l|i) = info·(1 − unbias) − λ·info·unbias``, elementwise.

    ``weight`` is the paper's λ — the emphasis on ranking gain from true
    negatives relative to the penalty of hitting false negatives.
    """
    check_non_negative(weight, "weight")
    info = np.asarray(info, dtype=np.float64)
    unbias_values = np.asarray(unbias_values, dtype=np.float64)
    if info.shape != unbias_values.shape:
        raise ValueError(
            f"info shape {info.shape} != unbias shape {unbias_values.shape}"
        )
    return info * (1.0 - (1.0 + weight) * unbias_values)


def optimal_sample_index(
    info: np.ndarray, unbias_values: np.ndarray, weight: float
) -> int:
    """Eq. 32: index of the risk-minimizing candidate (first on ties)."""
    risk = conditional_sampling_risk(info, unbias_values, weight)
    if risk.size == 0:
        raise ValueError("cannot select from an empty candidate set")
    return int(np.argmin(risk))


def empirical_sampling_risk(per_positive_risks: np.ndarray) -> float:
    """Eq. 24: mean conditional risk over the positive-instance distribution.

    With positives drawn from the training set, ``P(i)`` is uniform over the
    observed positives, so the empirical risk is the sample mean of the
    per-positive risks realized by a sampler.
    """
    per_positive_risks = np.asarray(per_positive_risks, dtype=np.float64)
    if per_positive_risks.size == 0:
        raise ValueError("empirical risk over an empty set is undefined")
    return float(per_positive_risks.mean())
