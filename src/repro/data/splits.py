"""The train/test split for implicit feedback.

The paper's protocol (§IV-A1) is "for each dataset, we randomly select 20%
as test data, and the rest 80% as training data":
:func:`random_holdout_split`.  The split keeps train and test disjoint and
preserves the matrix shape, which the evaluation protocol relies on (test
positives are the *false negatives* of the training phase — the ground
truth behind Fig. 1 and the TNR metric).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.utils.rng import SeedLike, as_rng

__all__ = ["random_holdout_split"]


def random_holdout_split(
    interactions: InteractionMatrix,
    test_fraction: float = 0.2,
    seed: SeedLike = None,
    *,
    min_train_per_user: int = 1,
) -> Tuple[InteractionMatrix, InteractionMatrix]:
    """Global random split: each interaction lands in test w.p. ``test_fraction``.

    ``min_train_per_user`` interactions of every user are pinned to the
    training side so no user's row goes completely cold (a user with an
    empty :math:`I^+_u` could never form a training triple).

    Returns ``(train, test)``.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if min_train_per_user < 0:
        raise ValueError("min_train_per_user must be >= 0")
    rng = as_rng(seed)
    users, items = interactions.pairs()
    n = users.size
    if n == 0:
        raise ValueError("cannot split an empty interaction matrix")

    in_test = rng.random(n) < test_fraction
    if min_train_per_user > 0:
        _pin_train_minimum(users, in_test, min_train_per_user, rng)

    train = InteractionMatrix(
        interactions.n_users, interactions.n_items, users[~in_test], items[~in_test]
    )
    test = InteractionMatrix(
        interactions.n_users, interactions.n_items, users[in_test], items[in_test]
    )
    return train, test


def _pin_train_minimum(
    users: np.ndarray,
    in_test: np.ndarray,
    min_train: int,
    rng: np.random.Generator,
) -> None:
    """Flip test assignments back to train for users left too cold (in place)."""
    n_users = int(users.max()) + 1 if users.size else 0
    train_counts = np.bincount(users[~in_test], minlength=n_users)
    for user in np.nonzero(train_counts < min_train)[0]:
        owned = np.nonzero((users == user) & in_test)[0]
        total = int(np.count_nonzero(users == user))
        needed = min(min_train, total) - int(train_counts[user])
        if needed <= 0 or owned.size == 0:
            continue
        flip = rng.choice(owned, size=min(needed, owned.size), replace=False)
        in_test[flip] = False
