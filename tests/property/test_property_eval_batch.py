"""Evaluator parity with a per-user oracle: the eval pipeline's invariant.

:class:`~repro.eval.protocol.Evaluator` (chunked score blocks, batched
top-K, CSR hit matrix, cumulative-sum metric kernels) must return
**bitwise identical per-user metrics** to :func:`per_user_oracle` — a
plain loop over users built from the public per-user pieces (``scores``,
:func:`~repro.eval.topk.top_k_items` and the scalar metric functions of
:mod:`repro.eval.ranking`) — whenever both consume the same score
*values*.

The score source here is a fixed table whose ``scores_batch`` is an exact
row gather, so the evaluator and the oracle see identical floats (real
models' gemm-vs-gemv last-ulp divergence is documented in
``repro.eval.protocol`` and is a property of BLAS, not of the evaluator).
A seeded grid is used instead of hypothesis, matching the sampler-parity
suite: the contract is exact equality, so a deterministic sweep over
adversarial compositions — heavy score ties, users with empty test or
train rows, a user with many test positives hit at the top (stressing
summation order), cutoffs past the item-universe size, ragged chunk
boundaries — exercises it just as hard and keeps failures trivially
reproducible.
"""

import numpy as np
import pytest

from repro.data.dataset import ImplicitDataset
from repro.data.interactions import InteractionMatrix
from repro.eval.protocol import Evaluator
from repro.eval.ranking import (
    auc,
    average_precision_at_k,
    hit_rate_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)
from repro.eval.topk import top_k_items


class TableModel:
    """Score model backed by a fixed table; evaluator and oracle see
    identical values."""

    def __init__(self, table):
        self._table = np.asarray(table, dtype=np.float64)
        self.n_users, self.n_items = self._table.shape

    def scores(self, user):
        return self._table[int(user)].copy()

    def scores_batch(self, users):
        return self._table[np.asarray(users, dtype=np.int64)].copy()


def make_dataset(rng, n_users=28, n_items=60):
    """Random disjoint train/test with adversarial row shapes.

    Includes users with empty test rows (must be excluded from evaluation),
    a user with an empty train row, and a "heavy" user 0 with many test
    positives (so many top-ranked hits exercise the sum order).
    """
    dense = rng.random((n_users, n_items))
    train = dense < 0.3
    test = (dense >= 0.3) & (dense < 0.42)
    empty_test = rng.choice(n_users, size=max(1, n_users // 5), replace=False)
    test[empty_test] = False
    train[1] = False  # empty train row, non-empty test row
    test[1, :3] = True
    test[0] = False  # heavy user: 12 test positives, no overlap with train
    heavy = np.flatnonzero(~train[0])[:12]
    test[0, heavy] = True
    if not test.any(axis=1).any():
        test[0, np.flatnonzero(~train[0])[:2]] = True
    return ImplicitDataset(
        InteractionMatrix.from_dense(train),
        InteractionMatrix.from_dense(test),
        name="parity",
    )


def make_table(rng, dataset, ties):
    table = rng.normal(size=(dataset.n_users, dataset.n_items))
    if ties:
        # Quantize hard: a handful of distinct values produces ties
        # everywhere, including across the top-K boundary.
        table = np.round(table)
    # Push the heavy user's test positives to the top so its hits cluster
    # in the head of the list (>= 8 hits inside k for the cumsum-order
    # stress) — canonical tie-breaking decides among the boosted items.
    table[0, dataset.test.items_of(0)] += 10.0
    return table


def per_user_oracle(dataset, model, ks, extra_metrics=False, max_users=None):
    """Per-user metric arrays from one plain loop over the evaluated users.

    Each user's ``scores`` row is ranked by :func:`top_k_items` (train
    positives excluded) and scored by the scalar metric functions; keys
    follow the evaluator's canonical order.
    """
    users = dataset.evaluable_users()
    if max_users is not None:
        users = users[:max_users]
    max_k = max(ks)
    results = {}

    def add(key, value):
        results.setdefault(key, []).append(value)

    for user in users.tolist():
        train_pos = dataset.train.items_of(user)
        test_pos = dataset.test.items_of(user)
        relevant = set(test_pos.tolist())
        scores = np.asarray(model.scores(user), dtype=np.float64)
        ranked = top_k_items(scores, train_pos, max_k)
        for k in ks:
            add(f"precision@{k}", precision_at_k(ranked, relevant, k))
            add(f"recall@{k}", recall_at_k(ranked, relevant, k))
            add(f"ndcg@{k}", ndcg_at_k(ranked, relevant, k))
            if extra_metrics:
                add(f"hitrate@{k}", hit_rate_at_k(ranked, relevant, k))
                add(f"map@{k}", average_precision_at_k(ranked, relevant, k))
        if extra_metrics:
            add("mrr", reciprocal_rank(ranked, relevant))
            relevant_mask = np.zeros(dataset.n_items, dtype=bool)
            relevant_mask[test_pos] = True
            candidate_mask = np.ones(dataset.n_items, dtype=bool)
            candidate_mask[train_pos] = False
            add("auc", auc(scores, relevant_mask, candidate_mask))
    return {key: np.asarray(values) for key, values in results.items()}


def assert_matches_oracle(dataset, model, **options):
    evaluator = Evaluator(dataset, **options)
    per_user = evaluator.evaluate_per_user(model)
    oracle = per_user_oracle(
        dataset,
        model,
        evaluator.ks,
        extra_metrics=evaluator.extra_metrics,
        max_users=evaluator.max_users,
    )
    assert list(per_user) == list(oracle)
    n_users = evaluator.evaluated_users().size
    for key, values in per_user.items():
        assert values.shape == (n_users,), key
        assert np.array_equal(values, oracle[key]), (
            f"{key} diverged: max abs diff "
            f"{np.max(np.abs(values - oracle[key]))}"
        )


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("extra_metrics", [False, True])
def test_batched_equals_scalar(seed, ties, extra_metrics):
    rng = np.random.default_rng(seed)
    dataset = make_dataset(rng)
    model = TableModel(make_table(rng, dataset, ties))
    assert_matches_oracle(
        dataset,
        model,
        ks=(5, 10, 20),
        extra_metrics=extra_metrics,
        chunk_users=5,  # ragged: the last chunk is partial
    )


@pytest.mark.parametrize("ks", [(1,), (3, 7), (200,), (20, 5, 1)])
def test_cutoff_shapes(ks):
    """Supersets of the item universe and unsorted cutoff lists."""
    rng = np.random.default_rng(11)
    dataset = make_dataset(rng, n_users=20, n_items=40)
    model = TableModel(make_table(rng, dataset, ties=True))
    assert_matches_oracle(dataset, model, ks=ks, extra_metrics=True, chunk_users=3)


@pytest.mark.parametrize("max_users", [1, 2, 9])
def test_max_users_cap(max_users):
    rng = np.random.default_rng(5)
    dataset = make_dataset(rng)
    model = TableModel(make_table(rng, dataset, ties=False))
    assert_matches_oracle(
        dataset, model, ks=(5, 10), max_users=max_users, chunk_users=4
    )


@pytest.mark.parametrize("chunk_users", [1, 3, 1024])
def test_chunk_boundaries_do_not_matter(chunk_users):
    """Per-user results are independent of how users are chunked."""
    rng = np.random.default_rng(21)
    dataset = make_dataset(rng)
    model = TableModel(make_table(rng, dataset, ties=True))
    reference = Evaluator(
        dataset, ks=(5, 20), extra_metrics=True, chunk_users=7
    ).evaluate_per_user(model)
    other = Evaluator(
        dataset, ks=(5, 20), extra_metrics=True, chunk_users=chunk_users
    ).evaluate_per_user(model)
    for key, values in reference.items():
        assert np.array_equal(values, other[key]), key


def test_empty_test_users_excluded():
    rng = np.random.default_rng(9)
    dataset = make_dataset(rng)
    evaluator = Evaluator(dataset, ks=(5,))
    users = evaluator.evaluated_users()
    assert np.array_equal(users, dataset.evaluable_users())
    assert np.all(dataset.test.degrees_of(users) > 0)


def test_mean_matches_per_user():
    rng = np.random.default_rng(17)
    dataset = make_dataset(rng)
    model = TableModel(make_table(rng, dataset, ties=False))
    evaluator = Evaluator(dataset, ks=(5, 10), extra_metrics=True)
    per_user = evaluator.evaluate_per_user(model)
    averaged = evaluator.evaluate(model)
    assert set(averaged) == set(per_user)
    for key, values in per_user.items():
        assert averaged[key] == pytest.approx(float(values.mean()))
