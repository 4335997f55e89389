"""Beyond-accuracy metrics: catalogue coverage and popularity bias.

Negative sampling shapes more than accuracy: a sampler that treats popular
un-interacted items as negatives (PNS) teaches the model to *demote* them,
while uniform sampling leaves the popularity prior intact.
:func:`recommendation_footprint` quantifies that footprint on the final
top-K lists in one ranking pass:

* ``coverage@K`` — fraction of the catalogue that appears in at least one
  user's top-K list;
* ``arp@K`` — average recommendation popularity: mean training popularity
  of recommended items (higher = more popularity-biased recommendations);
* ``popularity_lift@K`` — ARP normalized by the catalogue's mean item
  popularity (1.0 = popularity-neutral).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.eval.protocol import DEFAULT_EVAL_CHUNK, _cap_users, _iter_ranked_chunks

__all__ = ["recommendation_footprint"]


def recommendation_footprint(
    model, dataset: ImplicitDataset, k: int = 20, *, max_users: Optional[int] = None
) -> Dict[str, float]:
    """Coverage, ARP and popularity lift of every trainable user's top-``k``
    list (the first ``max_users`` users when capped)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    users = _cap_users(dataset.trainable_users(), max_users)
    lists = [
        ranked[ranked >= 0]
        for *_, ranked, _ in _iter_ranked_chunks(
            model, dataset, users, k, DEFAULT_EVAL_CHUNK
        )
    ]
    recommended = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
    if recommended.size == 0:
        raise ValueError("no recommendations produced")
    popularity = dataset.train.item_popularity
    arp = float(popularity[recommended].mean())
    mean_popularity = float(popularity.mean())
    if mean_popularity == 0.0:
        raise ValueError("dataset has no training interactions")
    return {
        f"coverage@{k}": float(np.unique(recommended).size / dataset.n_items),
        f"arp@{k}": arp,
        f"popularity_lift@{k}": arp / mean_popularity,
    }
