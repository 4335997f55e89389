"""Shared fixtures for the test suite.

Two dataset fixtures cover most needs:

* ``micro_dataset`` — a hand-built 4-user × 8-item dataset with known
  train/test contents, for exact assertions;
* ``tiny_dataset`` — the synthetic ``tiny`` preset (32 users × 64 items),
  session-scoped, for statistical and integration assertions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ImplicitDataset
from repro.data.interactions import InteractionMatrix
from repro.data.registry import load_dataset
from repro.models.mf import MatrixFactorization
from matrix_builders import interactions_from_pairs


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def micro_train() -> InteractionMatrix:
    """4 users × 8 items with hand-picked training interactions.

    User 0: items 0,1,2 | user 1: items 2,3 | user 2: items 4,5,6
    user 3: item 7.
    """
    pairs = [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (3, 7)]
    return interactions_from_pairs(pairs, 4, 8)


@pytest.fixture
def micro_test() -> InteractionMatrix:
    """Held-out positives: user 0 → 5; user 1 → 0; user 2 → 7; user 3 → 0."""
    pairs = [(0, 5), (1, 0), (2, 7), (3, 0)]
    return interactions_from_pairs(pairs, 4, 8)


@pytest.fixture
def micro_dataset(micro_train, micro_test) -> ImplicitDataset:
    """The micro train/test pair with occupations [0, 1, 0, 1]."""
    return ImplicitDataset(
        micro_train,
        micro_test,
        name="micro",
        user_occupations=np.asarray([0, 1, 0, 1]),
        occupation_names=("engineer", "artist"),
    )


@pytest.fixture(scope="session")
def tiny_dataset() -> ImplicitDataset:
    """The synthetic 'tiny' preset (32 users × 64 items), fixed seed."""
    return load_dataset("tiny", seed=7)


@pytest.fixture
def micro_model(micro_dataset) -> MatrixFactorization:
    """A small MF model over the micro dataset's universe."""
    return MatrixFactorization(
        micro_dataset.n_users, micro_dataset.n_items, n_factors=4, seed=3
    )


@pytest.fixture
def tiny_model(tiny_dataset) -> MatrixFactorization:
    """A small MF model over the tiny dataset's universe."""
    return MatrixFactorization(
        tiny_dataset.n_users, tiny_dataset.n_items, n_factors=8, seed=3
    )
