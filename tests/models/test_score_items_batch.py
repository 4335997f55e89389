"""Gather-based sparse scoring: ``score_items_batch`` across all models.

The contract: ``out[b, j] == score_pairs(users[b], items[b, j])`` for every
cell, on every model — the correctness anchor for the ``ScoreRequest.SPARSE``
training mode.
"""

import numpy as np
import pytest

from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization


def reference_cells(model, users, items):
    out = np.empty(items.shape, dtype=np.float64)
    for b in range(users.size):
        for j in range(items.shape[1]):
            out[b, j] = model.score_pairs(
                np.array([users[b]]), np.array([items[b, j]])
            )[0]
    return out


def make_models(train):
    return [
        MatrixFactorization(train.n_users, train.n_items, n_factors=6, seed=0),
        BiasedMatrixFactorization(train.n_users, train.n_items, n_factors=6, seed=0),
        LightGCN(train, n_factors=6, n_layers=1, seed=0),
    ]


def test_matches_score_pairs_cellwise(micro_train):
    rng = np.random.default_rng(5)
    users = rng.integers(micro_train.n_users, size=7).astype(np.int64)
    items = rng.integers(micro_train.n_items, size=(7, 4)).astype(np.int64)
    for model in make_models(micro_train):
        out = model.score_items_batch(users, items)
        assert out.shape == items.shape
        np.testing.assert_allclose(
            out, reference_cells(model, users, items), rtol=0, atol=1e-12
        )


def test_matches_full_row_gather(micro_train):
    """Cross-check against the dense path: scores(u)[items]."""
    rng = np.random.default_rng(9)
    users = rng.integers(micro_train.n_users, size=5).astype(np.int64)
    items = rng.integers(micro_train.n_items, size=(5, 6)).astype(np.int64)
    for model in make_models(micro_train):
        out = model.score_items_batch(users, items)
        expected = np.stack(
            [model.scores(int(u))[row] for u, row in zip(users, items)]
        )
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_empty_items(micro_train):
    for model in make_models(micro_train):
        out = model.score_items_batch(
            np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)
        )
        assert out.shape == (0, 3)


def test_shape_validation(micro_train):
    model = make_models(micro_train)[0]
    with pytest.raises(ValueError, match="2-D"):
        model.score_items_batch(np.array([0, 1]), np.array([1, 2]))
    with pytest.raises(ValueError, match="one row per user"):
        model.score_items_batch(np.array([0]), np.zeros((2, 3), dtype=np.int64))


def test_id_range_validation(micro_train):
    """Negative ids (e.g. -1 ranked-list padding) must raise, not gather
    a wrong embedding — matching scores_batch's guard."""
    for model in make_models(micro_train):
        with pytest.raises(IndexError, match="item ids"):
            model.score_items_batch(
                np.array([0]), np.array([[0, -1]], dtype=np.int64)
            )
        with pytest.raises(IndexError, match="item ids"):
            model.score_items_batch(
                np.array([0]), np.array([[micro_train.n_items]], dtype=np.int64)
            )
        with pytest.raises(IndexError, match="user ids"):
            model.score_items_batch(
                np.array([micro_train.n_users]), np.array([[0]], dtype=np.int64)
            )


def test_batch_composition_invariance(micro_train):
    """Per-row results do not depend on what else is in the batch — the
    property the sparse scalar/batched RNG-parity contract leans on."""
    rng = np.random.default_rng(3)
    users = rng.integers(micro_train.n_users, size=6).astype(np.int64)
    items = rng.integers(micro_train.n_items, size=(6, 5)).astype(np.int64)
    for model in make_models(micro_train):
        whole = model.score_items_batch(users, items)
        for b in range(users.size):
            row = model.score_items_batch(users[b : b + 1], items[b : b + 1])
            assert np.array_equal(whole[b], row[0])
