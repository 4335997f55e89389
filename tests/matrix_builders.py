"""Test helper: build an :class:`InteractionMatrix` from pair tuples."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.data.interactions import InteractionMatrix


def interactions_from_pairs(
    pairs: Iterable[Tuple[int, int]], n_users: int, n_items: int
) -> InteractionMatrix:
    """An ``n_users × n_items`` matrix holding the ``(user, item)`` tuples."""
    pair_array = np.asarray(list(pairs), dtype=np.int64)
    if pair_array.size == 0:
        pair_array = pair_array.reshape(0, 2)
    if pair_array.ndim != 2 or pair_array.shape[1] != 2:
        raise ValueError("pairs must be (user, item) 2-tuples")
    return InteractionMatrix(n_users, n_items, pair_array[:, 0], pair_array[:, 1])
