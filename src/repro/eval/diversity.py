"""Beyond-accuracy metrics: catalogue coverage and popularity bias.

Negative sampling shapes more than accuracy: a sampler that treats popular
un-interacted items as negatives (PNS) teaches the model to *demote* them,
while uniform sampling leaves the popularity prior intact.  These metrics
quantify that footprint on the final recommendations:

* :func:`catalog_coverage` — fraction of the catalogue that appears in at
  least one user's top-K list;
* :func:`average_recommendation_popularity` — mean training popularity of
  recommended items (higher = more popularity-biased recommendations);
* :func:`popularity_lift` — ARP normalized by the catalogue's mean item
  popularity (1.0 = popularity-neutral).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.eval.protocol import DEFAULT_EVAL_CHUNK, _cap_users, _iter_ranked_chunks

__all__ = [
    "catalog_coverage",
    "average_recommendation_popularity",
    "popularity_lift",
    "recommendation_footprint",
]


def _top_k_lists(
    model, dataset: ImplicitDataset, k: int, max_users: Optional[int]
) -> np.ndarray:
    """Every trainable user's top-``k`` list, concatenated."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    users = _cap_users(dataset.trainable_users(), max_users)
    lists = [
        ranked[ranked >= 0]
        for *_, ranked, _ in _iter_ranked_chunks(
            model, dataset, users, k, DEFAULT_EVAL_CHUNK
        )
    ]
    return np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)


def _coverage(recommended: np.ndarray, dataset: ImplicitDataset) -> float:
    return float(np.unique(recommended).size / dataset.n_items)


def _arp(recommended: np.ndarray, dataset: ImplicitDataset) -> float:
    if recommended.size == 0:
        raise ValueError("no recommendations produced")
    popularity = dataset.train.item_popularity
    return float(popularity[recommended].mean())


def _lift(arp: float, dataset: ImplicitDataset) -> float:
    mean_popularity = float(dataset.train.item_popularity.mean())
    if mean_popularity == 0.0:
        raise ValueError("dataset has no training interactions")
    return arp / mean_popularity


def catalog_coverage(
    model, dataset: ImplicitDataset, k: int = 20, *, max_users: Optional[int] = None
) -> float:
    """Fraction of items recommended to at least one user (in [0, 1])."""
    return _coverage(_top_k_lists(model, dataset, k, max_users), dataset)


def average_recommendation_popularity(
    model, dataset: ImplicitDataset, k: int = 20, *, max_users: Optional[int] = None
) -> float:
    """Mean training popularity of recommended items."""
    return _arp(_top_k_lists(model, dataset, k, max_users), dataset)


def popularity_lift(
    model, dataset: ImplicitDataset, k: int = 20, *, max_users: Optional[int] = None
) -> float:
    """ARP divided by the catalogue's mean popularity (1.0 = neutral)."""
    arp = average_recommendation_popularity(model, dataset, k, max_users=max_users)
    return _lift(arp, dataset)


def recommendation_footprint(
    model, dataset: ImplicitDataset, k: int = 20, *, max_users: Optional[int] = None
) -> Dict[str, float]:
    """All three metrics from one ranking pass over the users."""
    recommended = _top_k_lists(model, dataset, k, max_users)
    arp = _arp(recommended, dataset)
    return {
        f"coverage@{k}": _coverage(recommended, dataset),
        f"arp@{k}": arp,
        f"popularity_lift@{k}": _lift(arp, dataset),
    }
