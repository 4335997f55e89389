"""Batch/scalar parity: the pipeline refactor's central invariant.

For every registered sampler, ``sample_batch`` on a mixed-user batch must
return **bit-identical** negatives to the scalar reference — grouping the
batch by sorted unique user and calling ``sample_for_user`` per group —
when both start from the same bound seed and see the same score block
(the RNG-parity contract documented in ``repro.samplers.base``).

A seeded grid (datasets × seeds × epochs) is used instead of hypothesis:
the contract is exact equality of RNG consumption, so a deterministic
sweep over mixed compositions exercises it just as hard and keeps failures
trivially reproducible.
"""

import numpy as np
import pytest

from repro.models.mf import MatrixFactorization
from repro.samplers.base import ScoreRequest, group_batch_by_user
from repro.samplers.variants import make_sampler

#: Every name the registry accepts (keep in sync with
#: ``repro.samplers.variants._FACTORIES``; the registry test below fails
#: if a new sampler is registered without being covered here).
REGISTRY = [
    "rns",
    "pns",
    "aobpr",
    "dns",
    "srns",
    "bns",
    "bns-posterior",
    "bns-1",
    "bns-2",
    "bns-3",
    "bns-4",
    "bns-oracle",
]


def test_registry_fully_covered():
    from repro.samplers.variants import _FACTORIES

    assert sorted(REGISTRY) == sorted(_FACTORIES)


def make_mixed_batch(dataset, rng, size):
    """A shuffled multi-user batch of (user, positive) rows."""
    users = rng.choice(dataset.trainable_users(), size=size, replace=True)
    pos = np.array(
        [rng.choice(dataset.train.items_of(int(u))) for u in users], dtype=np.int64
    )
    return users.astype(np.int64), pos


def scalar_reference(sampler, users, pos_items, scores):
    """The scalar trainer path: sorted unique users, sample_for_user each."""
    negatives = np.empty(users.size, dtype=np.int64)
    groups = group_batch_by_user(users)
    for group, user, row_idx in groups.iter_groups():
        user_scores = scores[group] if scores is not None else None
        negatives[row_idx] = sampler.sample_for_user(
            user, pos_items[row_idx], user_scores
        )
    return negatives


def tie_block(block, dataset, unique_users):
    """Coarsen a score block until most scores tie, and give each row's
    first negative item a ``+inf`` score (it ties with the positives the
    exact CDF pads with ``+inf``)."""
    block[...] = np.round(block / 0.02) * 0.02
    for row, user in enumerate(unique_users.tolist()):
        block[row, dataset.train.negative_items(user)[0]] = np.inf


def run_both_paths(
    name, dataset, seed, epoch, batch_size, dtype="float64", ties=False
):
    model = MatrixFactorization(
        dataset.n_users, dataset.n_items, n_factors=6, seed=3, dtype=dtype
    )
    batch_rng = np.random.default_rng(1000 + seed)
    users, pos_items = make_mixed_batch(dataset, batch_rng, batch_size)
    scalar_sampler = make_sampler(name)
    batch_sampler = make_sampler(name)
    scalar_sampler.bind(dataset, model, seed=seed)
    batch_sampler.bind(dataset, model, seed=seed)
    scalar_sampler.on_epoch_start(epoch)
    batch_sampler.on_epoch_start(epoch)
    # Query score_request after on_epoch_start: delegating samplers (BNS-2)
    # only settle their score request once the epoch's active sampler is
    # known.
    scores = None
    if scalar_sampler.score_request is not ScoreRequest.NONE:
        scores = model.scores_batch(np.unique(users))
        if ties:
            tie_block(scores, dataset, np.unique(users))
    # The scalar path only reads the block; sample_batch owns it and may
    # overwrite it, so it runs last.
    expected = scalar_reference(scalar_sampler, users, pos_items, scores)
    actual = batch_sampler.sample_batch(users, pos_items, scores)
    return users, expected, actual


@pytest.mark.parametrize("name", REGISTRY)
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_batch_equals_scalar_micro(name, seed, micro_dataset):
    _, expected, actual = run_both_paths(
        name, micro_dataset, seed, epoch=0, batch_size=16
    )
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize("name", REGISTRY)
def test_batch_equals_scalar_tiny(name, tiny_dataset):
    users, expected, actual = run_both_paths(
        name, tiny_dataset, seed=42, epoch=0, batch_size=96
    )
    # The batch must actually be mixed for the test to mean anything.
    assert np.unique(users).size > 4
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize("name", ["bns", "bns-posterior", "aobpr"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties-inf"])
def test_batch_equals_scalar_by_dtype(name, dtype, ties, tiny_dataset):
    """The batched path sorts or negates the block in its own dtype, where
    the scalar path ranks a gathered row; float32 blocks, tied scores and
    ``+inf`` scores must still give the scalar negatives bit for bit."""
    _, expected, actual = run_both_paths(
        name, tiny_dataset, seed=42, epoch=0, batch_size=96, dtype=dtype, ties=ties
    )
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize("name", ["bns-1", "bns-2"])
@pytest.mark.parametrize("epoch", [3, 10, 25])
def test_schedule_variants_parity_across_epochs(name, epoch, tiny_dataset):
    """BNS-1's λ schedule and BNS-2's warm-start delegation both honour the
    parity contract whichever sampler/weight is active for the epoch."""
    _, expected, actual = run_both_paths(
        name, tiny_dataset, seed=5, epoch=epoch, batch_size=48
    )
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize("name", ["bns", "bns-posterior"])
def test_full_candidate_set_parity(name, tiny_dataset):
    """n_candidates=None (the optimal sampler h*) goes through the grouped
    fallback; it must still match the scalar path bit for bit."""
    model = MatrixFactorization(
        tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=3
    )
    batch_rng = np.random.default_rng(9)
    users, pos_items = make_mixed_batch(tiny_dataset, batch_rng, 32)
    scores = model.scores_batch(np.unique(users))
    scalar_sampler = make_sampler(name, n_candidates=None)
    batch_sampler = make_sampler(name, n_candidates=None)
    scalar_sampler.bind(tiny_dataset, model, seed=11)
    batch_sampler.bind(tiny_dataset, model, seed=11)
    expected = scalar_reference(scalar_sampler, users, pos_items, scores)
    actual = batch_sampler.sample_batch(users, pos_items, scores)
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize("name", REGISTRY)
def test_precomputed_groups_change_nothing(name, tiny_dataset):
    """The trainer precomputes BatchGroups once per mini-batch and threads
    it through sample_batch; passing it must be a pure hoist — identical
    negatives, identical RNG consumption.  Each call gets its own copy of
    the block, which sample_batch may overwrite."""
    model = MatrixFactorization(
        tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=3
    )
    batch_rng = np.random.default_rng(31)
    users, pos_items = make_mixed_batch(tiny_dataset, batch_rng, 64)
    scores = None
    plain = make_sampler(name)
    grouped = make_sampler(name)
    if plain.score_request is not ScoreRequest.NONE:
        scores = model.scores_batch(np.unique(users))
    plain.bind(tiny_dataset, model, seed=13)
    grouped.bind(tiny_dataset, model, seed=13)
    plain.on_epoch_start(0)
    grouped.on_epoch_start(0)
    expected = plain.sample_batch(
        users, pos_items, None if scores is None else scores.copy()
    )
    actual = grouped.sample_batch(
        users, pos_items, scores, groups=group_batch_by_user(users)
    )
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize("name", REGISTRY)
def test_batch_never_samples_train_positive(name, tiny_dataset):
    model = MatrixFactorization(
        tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=3
    )
    batch_rng = np.random.default_rng(2)
    users, pos_items = make_mixed_batch(tiny_dataset, batch_rng, 64)
    sampler = make_sampler(name)
    sampler.bind(tiny_dataset, model, seed=4)
    sampler.on_epoch_start(0)
    scores = None
    if sampler.score_request is not ScoreRequest.NONE:
        scores = model.scores_batch(np.unique(users))
    negatives = sampler.sample_batch(users, pos_items, scores)
    assert negatives.shape == users.shape
    for user, item in zip(users.tolist(), negatives.tolist()):
        assert not tiny_dataset.train.contains(user, item)


@pytest.mark.parametrize("name", REGISTRY)
def test_empty_batch(name, tiny_dataset):
    model = MatrixFactorization(
        tiny_dataset.n_users, tiny_dataset.n_items, n_factors=4, seed=0
    )
    sampler = make_sampler(name)
    sampler.bind(tiny_dataset, model, seed=0)
    empty = np.empty(0, dtype=np.int64)
    scores = None
    if sampler.score_request is not ScoreRequest.NONE:
        scores = np.empty((0, tiny_dataset.n_items))
    out = sampler.sample_batch(empty, empty, scores)
    assert out.size == 0
