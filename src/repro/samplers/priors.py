"""Prior models for the false-negative probability ``P_fn(l)``.

The Bayesian posterior (Eq. 15) combines the model's sample information
``F(x̂_l)`` with a prior.  The paper studies a ladder of priors:

* :class:`PopularityPrior` — Eq. 17, ``P_fn(l) = pop_l / N`` (standard BNS);
* :class:`UniformPrior` — non-informative, ``P_fn(l) = 1/n_items`` (BNS-3;
  the paper notes BNS then degenerates to DNS-like behaviour);
* :class:`OccupationPrior` — Eq. in §IV-C2, popularity adjusted by how much
  the user's occupation group over/under-consumes the item (BNS-4);
* :class:`OraclePrior` — §IV-C3's ideal prior ``P_fn = (label − 0.2)²``
  (0.64 for actual false negatives, 0.04 otherwise), used to exhibit the
  asymptotically optimal sampler (Table IV).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.data.popularity import interaction_ratio
from repro.utils.validation import check_probability

__all__ = [
    "Prior",
    "PopularityPrior",
    "UniformPrior",
    "OccupationPrior",
    "OraclePrior",
]


class Prior(ABC):
    """Interface: after :meth:`bind`, yields ``P_fn`` for (users, items).

    Each prior has one :meth:`fn_prob`, serving the scalar sampler path
    (one user) and the batched path (one user per row) alike.
    """

    name: str = "prior"

    def __init__(self) -> None:
        self._dataset: Optional[ImplicitDataset] = None

    def bind(self, dataset: ImplicitDataset) -> None:
        """Fit the prior to a dataset's *training* interactions."""
        self._dataset = dataset
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook run after the dataset reference is stored."""

    @property
    def dataset(self) -> ImplicitDataset:
        if self._dataset is None:
            raise RuntimeError(f"{type(self).__name__} is not bound; call bind() first")
        return self._dataset

    @abstractmethod
    def fn_prob(self, users, items: np.ndarray) -> np.ndarray:
        """``P_fn(l)`` for each item id in ``items`` (same shape).

        ``users`` is one user id for all of ``items``, or one user per
        row: shape ``(B,)`` against ``items`` of shape ``(B, ...)``.  A
        one-user call equals the matching row of a per-row call bit for
        bit — the sampler parity contract (``repro.samplers.base``)
        depends on it.
        """


def _per_row(users, items: np.ndarray) -> np.ndarray:
    """``users`` shaped to broadcast against ``items``: one id, or one
    id per row of ``items``."""
    users = np.asarray(users, dtype=np.int64)
    return users.reshape(users.shape + (1,) * (items.ndim - users.ndim))


class PopularityPrior(Prior):
    """Eq. 17: ``P_fn(l) = pop_l / N`` — interaction ratio as FN prior.

    Motivation (Lemma 0.1): if the times item ``l`` is interacted follows
    ``Binomial(N, P_fn(l))``, then ``pop_l / N`` is the unbiased estimator
    of ``P_fn(l)``, and plugging it into Eq. 15 keeps ``unbias`` unbiased.
    """

    name = "popularity"

    def _on_bind(self) -> None:
        self._prob = interaction_ratio(self.dataset.train)

    def fn_prob(self, users, items: np.ndarray) -> np.ndarray:
        # User-independent: one table gather.
        return self._prob[np.asarray(items, dtype=np.int64)]


class UniformPrior(Prior):
    """Non-informative prior: the same ``P_fn`` for every item (BNS-3).

    The paper's choice is the single-trial interaction probability
    ``1 / n_items``; an explicit ``value`` overrides it.
    """

    name = "uniform"

    def __init__(self, value: Optional[float] = None) -> None:
        super().__init__()
        self._value = None if value is None else check_probability(value, "value")

    def _on_bind(self) -> None:
        if self._value is None:
            self._resolved = 1.0 / self.dataset.n_items
        else:
            self._resolved = self._value

    def fn_prob(self, users, items: np.ndarray) -> np.ndarray:
        return np.full(np.shape(items), self._resolved)


class OccupationPrior(Prior):
    """BNS-4: popularity prior modulated by occupation-group affinity.

    ``P_fn(l | u) = (pop_l / N) · (1 + Δo_ul)`` with

        Δo_ul = (o_{occ(u), l} − ō_l) / max_o o_{o, l},

    where ``o_{o,l}`` counts training interactions of occupation group ``o``
    with item ``l`` and ``ō_l`` is the across-group mean.  Items favoured by
    the user's own occupation get a raised FN prior.  Results are clipped to
    [0, 1] (the adjustment can otherwise push slightly outside).
    """

    name = "occupation"

    def _on_bind(self) -> None:
        dataset = self.dataset
        occupations = dataset.user_occupations
        if occupations is None:
            raise ValueError(
                "OccupationPrior requires a dataset with user occupations "
                "(dataset.has_occupations is False)"
            )
        train = dataset.train
        self._base = interaction_ratio(train)

        n_occupations = int(occupations.max()) + 1
        counts = np.zeros((n_occupations, dataset.n_items), dtype=np.float64)
        users, items = train.pairs()
        np.add.at(counts, (occupations[users], items), 1.0)
        mean_per_item = counts.mean(axis=0)
        max_per_item = counts.max(axis=0)
        # Items nobody interacted with carry no group signal: Δ = 0.
        safe_max = np.where(max_per_item > 0, max_per_item, 1.0)
        self._delta = (counts - mean_per_item) / safe_max
        self._occupations = occupations

    def fn_prob(self, users, items: np.ndarray) -> np.ndarray:
        items = np.asarray(items, dtype=np.int64)
        occupations = self._occupations[_per_row(users, items)]
        adjusted = self._base[items] * (1.0 + self._delta[occupations, items])
        return np.clip(adjusted, 0.0, 1.0)


class OraclePrior(Prior):
    """§IV-C3's ideal prior built from ground-truth labels.

    ``P_fn(l) = (label(l) − 0.2)²`` where ``label(l) = 1`` iff ``l`` is one
    of the user's held-out test positives: 0.64 for actual false negatives,
    0.04 for true negatives.  Only used to study the asymptotic optimal
    sampler (Table IV) — it leaks test labels by design and must never be
    part of a fair comparison.
    """

    name = "oracle"

    def __init__(self, fn_value: float = 0.64, tn_value: float = 0.04) -> None:
        super().__init__()
        self._fn_value = check_probability(fn_value, "fn_value")
        self._tn_value = check_probability(tn_value, "tn_value")

    def fn_prob(self, users, items: np.ndarray) -> np.ndarray:
        items = np.asarray(items, dtype=np.int64)
        fn_mask = self.dataset.test.contains_pairs(_per_row(users, items), items)
        return np.where(fn_mask, self._fn_value, self._tn_value)
