"""Seeded request inputs: Zipf-skewed users and new-interaction writes.

Everything is drawn up front from a seeded generator, so a seed fixes
the traffic.  The workloads send it in a closed loop, one request after
another.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["new_pairs", "zipf_users"]


def zipf_users(rng, n_users: int, size: int, exponent: float = 1.1) -> np.ndarray:
    """``size`` user ids, Zipf-skewed over a seeded random ranking of users."""
    ranking = rng.permutation(n_users)
    weights = 1.0 / np.arange(1, n_users + 1, dtype=np.float64) ** exponent
    return ranking[rng.choice(n_users, size=size, p=weights / weights.sum())]


def new_pairs(rng, train, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``size`` distinct ``(user, item)`` pairs absent from ``train``, with
    Zipf-skewed users, so every write is a real append."""
    users = zipf_users(rng, train.n_users, size)
    items = np.empty(size, dtype=np.int64)
    taken = set()
    for index, user in enumerate(users.tolist()):
        seen = train.items_of(user)
        while True:
            item = int(rng.integers(train.n_items))
            if (user, item) not in taken and not np.any(seen == item):
                break
        taken.add((user, item))
        items[index] = item
    return users, items
