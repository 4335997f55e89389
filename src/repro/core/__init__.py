"""The paper's primary contribution: Bayesian negative classification.

Pipeline (paper §III):

1.  **Order relation** (Eq. 6): a trained pairwise model scores false
    negatives above true negatives.  Treating the two scores as the order
    statistics of two IID draws yields the class conditionals
    ``g(x) = 2 f(x)(1 − F(x))`` for true negatives and
    ``h(x) = 2 f(x) F(x)`` for false negatives
    (:mod:`repro.core.order_statistics`, closed forms in
    :mod:`repro.core.theory`).
2.  **Posterior** (Eq. 11–15): combining the conditionals with a prior
    ``P_fn(l)`` gives the normalized posterior ``unbias(l)`` — the
    probability that instance ``l`` is a true negative.  The unknown score
    density ``f`` cancels; the CDF ``F`` is estimated by the empirical CDF
    (Eq. 16, :mod:`repro.core.empirical`), justified by Glivenko–Cantelli.
3.  **Risk** (Eq. 23–32): the conditional sampling risk of picking ``l``
    is ``info(l)·[1 − (1+λ)·unbias(l)]``; minimizing it per positive is the
    Bayesian-optimal sampling rule (Theorem 0.1,
    :mod:`repro.core.risk`).
"""

from repro.core.classifier import BayesianNegativeClassifier, posterior_fn, posterior_tn
from repro.core.empirical import empirical_cdf_at, ks_distance
from repro.core.order_statistics import (
    false_negative_density,
    true_negative_density,
    verify_density_normalization,
)
from repro.core.risk import (
    conditional_sampling_risk,
    empirical_sampling_risk,
    optimal_sample_index,
)
from repro.core.theory import TheoreticalDistribution, named_distribution
from repro.core.unbiasedness import unbias, unbias_from_components
from repro.train.loss import informativeness

__all__ = [
    "BayesianNegativeClassifier",
    "TheoreticalDistribution",
    "conditional_sampling_risk",
    "empirical_cdf_at",
    "empirical_sampling_risk",
    "false_negative_density",
    "informativeness",
    "ks_distance",
    "named_distribution",
    "optimal_sample_index",
    "posterior_fn",
    "posterior_tn",
    "true_negative_density",
    "unbias",
    "unbias_from_components",
    "verify_density_normalization",
]
