"""Property-based tests for the sampler invariants.

The one invariant every sampler must uphold on *any* dataset: a sampled
negative is never one of the user's training positives.  Hypothesis
generates random interaction structures; each registered sampler is
exercised against them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import ImplicitDataset
from repro.models.mf import MatrixFactorization
from repro.samplers.base import ScoreRequest
from repro.samplers.variants import make_sampler
from matrix_builders import interactions_from_pairs


@st.composite
def sampleable_datasets(draw):
    """Datasets where every user keeps at least one un-interacted item."""
    n_users = draw(st.integers(min_value=2, max_value=10))
    n_items = draw(st.integers(min_value=4, max_value=20))
    train_pairs = set()
    test_pairs = set()
    for user in range(n_users):
        # Leave >= 2 items un-interacted per user.
        max_degree = n_items - 2
        degree = draw(st.integers(min_value=1, max_value=max(1, max_degree)))
        items = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_items - 1),
                min_size=degree,
                max_size=degree,
                unique=True,
            )
        )
        items = items[:max_degree]
        for item in items:
            train_pairs.add((user, item))
    # One test positive per user, outside the train set where possible.
    for user in range(n_users):
        train_items = {i for (u, i) in train_pairs if u == user}
        free = [i for i in range(n_items) if i not in train_items]
        if len(free) > 1:
            test_pairs.add((user, free[0]))
    train = interactions_from_pairs(train_pairs, n_users, n_items)
    test = interactions_from_pairs(test_pairs, n_users, n_items)
    occupations = np.arange(n_users) % 3
    return ImplicitDataset(train, test, user_occupations=occupations)


#: SRNS is excluded here: its per-user memory rebuild makes it an order of
#: magnitude slower per hypothesis example, and its never-samples-positive
#: invariant is covered directly in tests/samplers/test_hard_samplers.py.
SAMPLERS = ["rns", "pns", "aobpr", "dns", "bns", "bns-posterior", "bns-3"]


@pytest.mark.parametrize("name", SAMPLERS)
@given(dataset=sampleable_datasets(), seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=8, deadline=None)
def test_never_samples_train_positive(name, dataset, seed):
    model = MatrixFactorization(dataset.n_users, dataset.n_items, n_factors=4, seed=0)
    sampler = make_sampler(name)
    sampler.bind(dataset, model, seed=seed)
    sampler.on_epoch_start(0)
    for user in dataset.trainable_users()[:4].tolist():
        positives = dataset.train.items_of(user)
        scores = (
            model.scores(user)
            if sampler.score_request is not ScoreRequest.NONE
            else None
        )
        out = sampler.sample_for_user(user, np.repeat(positives, 3), scores)
        assert out.shape == (positives.size * 3,)
        assert not set(positives.tolist()).intersection(out.tolist())
        assert np.all(out >= 0) and np.all(out < dataset.n_items)


@given(dataset=sampleable_datasets(), seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=8, deadline=None)
def test_bns_full_candidate_set_property(dataset, seed):
    """n_candidates=None must behave on arbitrary datasets too."""
    model = MatrixFactorization(dataset.n_users, dataset.n_items, n_factors=4, seed=0)
    sampler = make_sampler("bns", n_candidates=None)
    sampler.bind(dataset, model, seed=seed)
    user = int(dataset.trainable_users()[0])
    positives = dataset.train.items_of(user)
    out = sampler.sample_for_user(user, positives, model.scores(user))
    assert not set(positives.tolist()).intersection(out.tolist())
