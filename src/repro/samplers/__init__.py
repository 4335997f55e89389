"""Negative samplers: the paper's BNS and every baseline it compares with.

All samplers implement :class:`repro.samplers.base.NegativeSampler`.  The
hot path is batch-first: :meth:`~repro.samplers.base.NegativeSampler.
sample_batch` takes a whole mini-batch of ``(user, positive)`` rows plus
whatever score data the sampler's :class:`~repro.samplers.base.
ScoreRequest` declares — one score block for the batch's sorted unique
users (``FULL_BLOCK``), or nothing at all (``NONE``, and ``SPARSE``
samplers gather-score only the item ids they touch) — and returns one
negative per row in a handful of vectorized passes.  The per-user
:meth:`~repro.samplers.base.NegativeSampler.sample_for_user` remains as
the scalar path; both consume randomness identically (the RNG-parity
contract in ``samplers.base``), so they produce bit-identical negatives
for a bound seed.  BNS's Eq. 16 empirical CDF is pluggable
(:mod:`repro.samplers.cdf`): exact, DKW-bounded subsampled, or
stale-cached — the latter two make training cost sub-linear in
``n_items``.

Baselines (§IV-A2):

=========  =========================================================
RNS        uniform over un-interacted items
PNS        popularity-biased, ``p(j) ∝ pop_j^0.75``
AOBPR      rank-based oversampling, ``p ∝ exp(−rank/λ_rank)``
DNS        max-score among ``M`` uniform candidates
SRNS       score-variance memory (favors high score + high variance)
=========  =========================================================

The proposed method (§III-D):

=========  =========================================================
BNS        Bayesian risk-minimizing rule, Eq. 32 / Algorithm 1
PosteriorOnly  pure posterior criterion, Eq. 35 (used by Fig. 4)
BNS-1..4   schedule/prior ablations (§IV-C2), see ``variants``
=========  =========================================================
"""

from repro.samplers.aobpr import AOBPRSampler
from repro.samplers.base import (
    BatchGroups,
    NegativeSampler,
    ScoreRequest,
    group_batch_by_user,
)
from repro.samplers.bns import BayesianNegativeSampler, PosteriorOnlySampler
from repro.samplers.cdf import (
    CachedCDF,
    CDFEstimator,
    ExactCDF,
    SubsampledCDF,
    make_cdf,
)
from repro.samplers.dns import DynamicNegativeSampler
from repro.samplers.pns import PopularityNegativeSampler
from repro.samplers.priors import (
    OccupationPrior,
    OraclePrior,
    PopularityPrior,
    Prior,
    UniformPrior,
)
from repro.samplers.rns import RandomNegativeSampler
from repro.samplers.srns import SRNSSampler
from repro.samplers.variants import (
    make_bns,
    make_bns_warm_lambda,
    make_bns_warm_start,
    make_bns_uninformative_prior,
    make_bns_occupation_prior,
    make_sampler,
)

__all__ = [
    "AOBPRSampler",
    "BatchGroups",
    "BayesianNegativeSampler",
    "CDFEstimator",
    "CachedCDF",
    "DynamicNegativeSampler",
    "ExactCDF",
    "NegativeSampler",
    "OccupationPrior",
    "OraclePrior",
    "PopularityNegativeSampler",
    "PopularityPrior",
    "PosteriorOnlySampler",
    "Prior",
    "RandomNegativeSampler",
    "SRNSSampler",
    "ScoreRequest",
    "SubsampledCDF",
    "UniformPrior",
    "group_batch_by_user",
    "make_bns",
    "make_bns_occupation_prior",
    "make_bns_uninformative_prior",
    "make_bns_warm_lambda",
    "make_bns_warm_start",
    "make_cdf",
    "make_sampler",
]
