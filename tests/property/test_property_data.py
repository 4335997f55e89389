"""Property-based tests for the data layer invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.interactions import InteractionMatrix
from repro.data.splits import random_holdout_split


@st.composite
def interaction_matrices(draw):
    """Random non-empty interaction matrices up to 20x30."""
    n_users = draw(st.integers(min_value=1, max_value=20))
    n_items = draw(st.integers(min_value=2, max_value=30))
    n_pairs = draw(st.integers(min_value=1, max_value=80))
    users = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_users - 1),
            min_size=n_pairs,
            max_size=n_pairs,
        )
    )
    items = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_items - 1),
            min_size=n_pairs,
            max_size=n_pairs,
        )
    )
    return InteractionMatrix(n_users, n_items, users, items)


class TestInteractionMatrixInvariants:
    @given(interaction_matrices())
    def test_popularity_sums_to_nnz(self, matrix):
        assert matrix.item_popularity.sum() == matrix.n_interactions
        assert matrix.user_activity.sum() == matrix.n_interactions

    @given(interaction_matrices())
    def test_items_of_consistent_with_contains(self, matrix):
        for user in range(matrix.n_users):
            items = matrix.items_of(user)
            assert np.all(np.diff(items) > 0)  # sorted, unique
            for item in items.tolist():
                assert matrix.contains(user, item)

    @given(interaction_matrices())
    def test_negative_mask_complement(self, matrix):
        for user in range(matrix.n_users):
            mask = matrix.negative_mask(user)
            assert mask.sum() + matrix.degree_of(user) == matrix.n_items

    @given(interaction_matrices())
    def test_pairs_round_trip(self, matrix):
        users, items = matrix.pairs()
        rebuilt = InteractionMatrix(matrix.n_users, matrix.n_items, users, items)
        assert rebuilt == matrix

    @given(interaction_matrices())
    def test_appending_own_pairs_returns_it_unchanged(self, matrix):
        assert matrix.with_appended(*matrix.pairs()) is matrix

    @given(
        interaction_matrices(),
        st.lists(
            st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=6),
            max_size=8,
        ),
    )
    def test_chain_of_appends_equals_one_rebuild(self, matrix, calls):
        users, items = (list(ids) for ids in matrix.pairs())
        chained = matrix
        for call in calls:
            new_users = [user % matrix.n_users for user, _ in call]
            new_items = [item % matrix.n_items for _, item in call]
            chained = chained.with_appended(new_users, new_items)
            users += new_users
            items += new_items
        rebuilt = InteractionMatrix(matrix.n_users, matrix.n_items, users, items)
        assert chained == rebuilt
        for name in ("indptr", "indices", "item_popularity", "user_activity"):
            got, want = getattr(chained, name), getattr(rebuilt, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(chained._pair_key_index(), rebuilt._pair_key_index())


class TestSplitInvariants:
    @given(
        interaction_matrices(),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40)
    def test_random_split_partition(self, matrix, fraction, seed):
        train, test = random_holdout_split(matrix, fraction, seed=seed)
        assert not train.intersects(test)
        assert train.with_appended(*test.pairs()) == matrix
        assert train.n_interactions + test.n_interactions == matrix.n_interactions

    @given(
        interaction_matrices(),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40)
    def test_random_split_active_users_stay_trainable(self, matrix, fraction, seed):
        train, _ = random_holdout_split(
            matrix, fraction, seed=seed, min_train_per_user=1
        )
        active = matrix.user_activity > 0
        assert np.all(train.user_activity[active] >= 1)
