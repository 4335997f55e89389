"""Factory functions for BNS and its studied variants (§IV-C2).

The variants are *configurations* of :class:`BayesianNegativeSampler`, not
separate algorithms — exactly how the paper describes them:

* **BNS-1** — warm start of λ: ``λ(epoch) = max(10 − 0.1·epoch, 2)``;
* **BNS-2** — warm start of the sample information: train with RNS for the
  first ``warmup`` epochs, then switch to BNS (implemented by
  :class:`WarmStartSampler`, which delegates per epoch);
* **BNS-3** — non-informative prior ``P_fn(l) = 1/n_items`` (degenerates
  towards DNS);
* **BNS-4** — occupation-enhanced prior.

:func:`make_sampler` is the string-keyed registry used by the experiment
harness and the benchmarks.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.samplers.aobpr import AOBPRSampler
from repro.samplers.base import BatchGroups, NegativeSampler, ScoreRequest
from repro.samplers.bns import BayesianNegativeSampler, PosteriorOnlySampler
from repro.samplers.cdf import CDFLike
from repro.samplers.dns import DynamicNegativeSampler
from repro.samplers.pns import PopularityNegativeSampler
from repro.samplers.priors import OccupationPrior, OraclePrior, Prior, UniformPrior
from repro.samplers.rns import RandomNegativeSampler
from repro.samplers.srns import SRNSSampler
from repro.train.schedule import WarmStartLambda
from repro.utils.rng import SeedLike

__all__ = [
    "WarmStartSampler",
    "make_bns",
    "make_bns_warm_lambda",
    "make_bns_warm_start",
    "make_bns_uninformative_prior",
    "make_bns_occupation_prior",
    "make_bns_oracle",
    "make_sampler",
]


class WarmStartSampler(NegativeSampler):
    """BNS-2: delegate to a warm-up sampler early, the main sampler later.

    The paper warm-starts the *sample information* ``x̂``: RNS trains the
    model for some epochs so the empirical CDF is meaningful before BNS
    starts consuming it.
    """

    name = "BNS-2"

    @property
    def score_request(self) -> ScoreRequest:
        """Delegated per epoch: warm-up epochs ask only for what the
        warm-up sampler needs (RNS → ``NONE``, skipping the score block
        entirely), later epochs follow the main sampler."""
        return self._active.score_request

    def __init__(
        self,
        warmup_sampler: NegativeSampler,
        main_sampler: NegativeSampler,
        warmup_epochs: int = 10,
    ) -> None:
        super().__init__()
        if warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {warmup_epochs}")
        self.warmup_sampler = warmup_sampler
        self.main_sampler = main_sampler
        self.warmup_epochs = int(warmup_epochs)
        self._active = warmup_sampler if warmup_epochs > 0 else main_sampler

    def bind(self, dataset, model, seed: SeedLike = None) -> None:
        super().bind(dataset, model, seed)
        self.warmup_sampler.bind(dataset, model, self.rng)
        self.main_sampler.bind(dataset, model, self.rng)

    def on_epoch_start(self, epoch: int) -> None:
        self._active = (
            self.warmup_sampler if epoch < self.warmup_epochs else self.main_sampler
        )
        self._active.on_epoch_start(epoch)

    @property
    def active_sampler(self) -> NegativeSampler:
        """The sampler delegated to in the current epoch."""
        return self._active

    def sample_for_user(
        self,
        user: int,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        return self._active.sample_for_user(user, pos_items, scores)

    def sample_batch(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray] = None,
        *,
        groups: Optional[BatchGroups] = None,
    ) -> np.ndarray:
        return self._active.sample_batch(users, pos_items, scores, groups=groups)

    def sample_in_order(self, users: np.ndarray, pos_items: np.ndarray) -> np.ndarray:
        return self._active.sample_in_order(users, pos_items)


# ---------------------------------------------------------------------- #
# Variant factories
# ---------------------------------------------------------------------- #


def make_bns(
    n_candidates: int = 5,
    weight: float = 5.0,
    prior: Optional[Prior] = None,
    cdf: CDFLike = None,
) -> BayesianNegativeSampler:
    """Standard BNS: popularity prior, fixed λ (paper defaults)."""
    return BayesianNegativeSampler(
        n_candidates=n_candidates, weight=weight, prior=prior, cdf=cdf
    )


def make_bns_warm_lambda(
    n_candidates: int = 5,
    start: float = 10.0,
    alpha: float = 0.1,
    floor: float = 2.0,
    cdf: CDFLike = None,
) -> BayesianNegativeSampler:
    """BNS-1: λ warm start ``max(start − alpha·epoch, floor)``."""
    sampler = BayesianNegativeSampler(
        n_candidates=n_candidates,
        weight=WarmStartLambda(start=start, alpha=alpha, floor=floor),
        cdf=cdf,
    )
    sampler.name = "BNS-1"
    return sampler


def make_bns_warm_start(
    n_candidates: int = 5,
    weight: float = 5.0,
    warmup_epochs: int = 10,
    cdf: CDFLike = None,
) -> WarmStartSampler:
    """BNS-2: RNS for ``warmup_epochs``, then standard BNS."""
    return WarmStartSampler(
        warmup_sampler=RandomNegativeSampler(),
        main_sampler=make_bns(n_candidates=n_candidates, weight=weight, cdf=cdf),
        warmup_epochs=warmup_epochs,
    )


def make_bns_uninformative_prior(
    n_candidates: int = 5, weight: float = 5.0, cdf: CDFLike = None
) -> BayesianNegativeSampler:
    """BNS-3: non-informative prior ``P_fn(l) = 1/n_items``."""
    sampler = BayesianNegativeSampler(
        n_candidates=n_candidates, weight=weight, prior=UniformPrior(), cdf=cdf
    )
    sampler.name = "BNS-3"
    return sampler


def make_bns_occupation_prior(
    n_candidates: int = 5, weight: float = 5.0, cdf: CDFLike = None
) -> BayesianNegativeSampler:
    """BNS-4: occupation-enhanced prior (requires occupation metadata)."""
    sampler = BayesianNegativeSampler(
        n_candidates=n_candidates, weight=weight, prior=OccupationPrior(), cdf=cdf
    )
    sampler.name = "BNS-4"
    return sampler


def make_bns_oracle(
    n_candidates: int = 5, weight: float = 5.0, cdf: CDFLike = None
) -> BayesianNegativeSampler:
    """Table IV's sampler: BNS with the ideal (label-leaking) prior."""
    sampler = BayesianNegativeSampler(
        n_candidates=n_candidates, weight=weight, prior=OraclePrior(), cdf=cdf
    )
    sampler.name = "BNS-oracle"
    return sampler


_FACTORIES: Dict[str, Callable[[], NegativeSampler]] = {
    "rns": RandomNegativeSampler,
    "pns": PopularityNegativeSampler,
    "aobpr": AOBPRSampler,
    "dns": DynamicNegativeSampler,
    "srns": SRNSSampler,
    "bns": make_bns,
    "bns-posterior": PosteriorOnlySampler,
    "bns-1": make_bns_warm_lambda,
    "bns-2": make_bns_warm_start,
    "bns-3": make_bns_uninformative_prior,
    "bns-4": make_bns_occupation_prior,
    "bns-oracle": make_bns_oracle,
}


def make_sampler(name: str, **kwargs) -> NegativeSampler:
    """Instantiate a sampler by its registry name (case-insensitive)."""
    key = name.lower()
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown sampler {name!r}; available: {', '.join(sorted(_FACTORIES))}"
        )
    try:
        return _FACTORIES[key](**kwargs)
    except TypeError as error:
        if "cdf" in kwargs and "unexpected keyword argument 'cdf'" in str(error):
            raise ValueError(
                f"sampler {name!r} does not take a CDF estimator (cdf=); "
                "only the BNS family (bns, bns-posterior, bns-1..4, "
                "bns-oracle) estimates the Eq. 16 empirical CDF"
            ) from error
        raise
