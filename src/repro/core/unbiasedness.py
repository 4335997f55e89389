"""The unbiasedness measure ``unbias(l)`` (Eq. 14–15, Lemma 0.1).

``unbias(l)`` is the normalized posterior probability that an un-interacted
item ``l`` is a *true* negative, given its score's empirical CDF value
``F = F(x̂_l)`` and a prior false-negative probability ``P = P_fn(l)``:

    unbias(l) = (1 − F)(1 − P) / [(1 − F)(1 − P) + F · P].

The numerator is the (density-cancelled) true-negative posterior mass and
the denominator adds the false-negative mass — Eq. 15's denominator
``1 − F − P + 2FP`` expands to exactly this sum.

Reproduction note on Lemma 0.1: the paper's unbiasedness proof evaluates
Eq. 15 at the expectations ``E[F(X)] = 1/2`` and ``E[P_fn] = θ`` (Eq.
20–22).  At the median score the expression is *linear* in the prior
(``unbias(1/2, p) = 1 − p``), so the binomial prior noise averages out
exactly there; over the full score distribution a Jensen gap exists
because Eq. 15 is nonlinear.  The test suite verifies both the exact
median-score unbiasedness and documents the gap.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unbias", "unbias_from_components"]


def unbias(cdf_values: np.ndarray, prior_fn: np.ndarray) -> np.ndarray:
    """Eq. 15: posterior probability of being a true negative.

    Parameters
    ----------
    cdf_values:
        ``F(x̂_l)`` for each instance — empirical CDF of the instance's
        score among the user's un-interacted items (Eq. 16).  Values are
        clipped into ``[0, 1]`` defensively.
    prior_fn:
        Prior false-negative probability ``P_fn(l)`` per instance
        (Eq. 17 or one of the enhanced priors), clipped into ``[0, 1]``.

    Returns
    -------
    ``unbias(l) ∈ [0, 1]``, elementwise.  The degenerate 0/0 corner
    (``F = 1`` and ``P_fn = 0``, or ``F = 0`` and ``P_fn = 1``) carries no
    evidence either way and is defined as 0.5.
    """
    cdf_values = np.clip(np.asarray(cdf_values, dtype=np.float64), 0.0, 1.0)
    prior_fn = np.clip(np.asarray(prior_fn, dtype=np.float64), 0.0, 1.0)
    tn_mass = (1.0 - cdf_values) * (1.0 - prior_fn)
    fn_mass = cdf_values * prior_fn
    denominator = tn_mass + fn_mass
    # Non-positive denominators divide by 1.0, so no 0/0 is ever computed.
    positive = denominator > 0.0
    return np.where(positive, tn_mass / np.where(positive, denominator, 1.0), 0.5)


def unbias_from_components(
    scores: np.ndarray,
    reference_scores: np.ndarray,
    prior_fn: np.ndarray,
) -> np.ndarray:
    """Compute ``unbias`` end-to-end from raw scores.

    Convenience composition of Eq. 16 and Eq. 15: builds the empirical CDF
    from ``reference_scores`` (the user's un-interacted score vector),
    evaluates it at ``scores`` (the candidates), and applies the posterior.
    """
    from repro.core.empirical import empirical_cdf_at

    cdf_values = empirical_cdf_at(reference_scores, scores)
    return unbias(cdf_values, prior_fn)
