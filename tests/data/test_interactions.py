"""Tests for repro.data.interactions.InteractionMatrix."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.interactions import InteractionMatrix
from matrix_builders import interactions_from_pairs


class TestConstruction:
    def test_basic_shape(self, micro_train):
        assert micro_train.shape == (4, 8)
        assert micro_train.n_users == 4
        assert micro_train.n_items == 8

    def test_interaction_count(self, micro_train):
        assert micro_train.n_interactions == 9

    def test_duplicates_collapse(self):
        matrix = InteractionMatrix(2, 3, [0, 0, 0], [1, 1, 2])
        assert matrix.n_interactions == 2

    def test_empty_matrix(self):
        matrix = InteractionMatrix(3, 3, [], [])
        assert matrix.n_interactions == 0
        assert matrix.items_of(0).size == 0

    def test_rejects_non_positive_shape(self):
        with pytest.raises(ValueError, match="positive"):
            InteractionMatrix(0, 3, [], [])

    def test_rejects_out_of_range_user(self):
        with pytest.raises(ValueError, match="user ids"):
            InteractionMatrix(2, 3, [2], [0])

    def test_rejects_negative_item(self):
        with pytest.raises(ValueError, match="item ids"):
            InteractionMatrix(2, 3, [0], [-1])

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError, match="parallel"):
            InteractionMatrix(2, 3, [0, 1], [0])

    def test_from_pairs(self):
        matrix = interactions_from_pairs([(0, 1), (1, 2)], 2, 3)
        assert matrix.contains(0, 1)
        assert matrix.contains(1, 2)

    def test_from_pairs_empty(self):
        matrix = interactions_from_pairs([], 2, 3)
        assert matrix.n_interactions == 0

    def test_from_pairs_rejects_triples(self):
        with pytest.raises(ValueError, match="2-tuples"):
            interactions_from_pairs([(0, 1, 2)], 2, 3)

    def test_from_dense_round_trip(self):
        dense = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)
        matrix = InteractionMatrix.from_dense(dense)
        assert np.array_equal(matrix.to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            InteractionMatrix.from_dense(np.ones(3))


class TestLookups:
    def test_items_of_sorted(self, micro_train):
        assert np.array_equal(micro_train.items_of(0), [0, 1, 2])
        assert np.array_equal(micro_train.items_of(2), [4, 5, 6])

    def test_items_of_out_of_range(self, micro_train):
        with pytest.raises(IndexError):
            micro_train.items_of(4)
        with pytest.raises(IndexError):
            micro_train.items_of(-1)

    def test_contains(self, micro_train):
        assert micro_train.contains(0, 2)
        assert not micro_train.contains(0, 3)
        assert not micro_train.contains(3, 0)

    def test_negative_mask(self, micro_train):
        mask = micro_train.negative_mask(1)
        assert not mask[2] and not mask[3]
        assert mask.sum() == 6

    def test_degree_of(self, micro_train):
        assert micro_train.degree_of(0) == 3
        assert micro_train.degree_of(3) == 1


class TestAggregates:
    def test_item_popularity(self, micro_train):
        pop = micro_train.item_popularity
        assert pop[2] == 2  # users 0 and 1
        assert pop[7] == 1
        assert pop.sum() == micro_train.n_interactions

    def test_item_popularity_is_copy(self, micro_train):
        pop = micro_train.item_popularity
        pop[0] = 99
        assert micro_train.item_popularity[0] != 99

    def test_user_activity(self, micro_train):
        assert np.array_equal(micro_train.user_activity, [3, 2, 3, 1])

    def test_density(self, micro_train):
        assert micro_train.density == pytest.approx(9 / 32)

    def test_pairs_round_trip(self, micro_train):
        users, items = micro_train.pairs()
        rebuilt = InteractionMatrix(4, 8, users, items)
        assert rebuilt == micro_train

    def test_tocsr_is_copy(self, micro_train):
        csr = micro_train.tocsr()
        csr.data[:] = 0
        assert micro_train.n_interactions == 9


class TestSetAlgebra:
    def test_intersects_true(self, micro_train):
        overlap = interactions_from_pairs([(0, 0)], 4, 8)
        assert micro_train.intersects(overlap)

    def test_intersects_false(self, micro_train, micro_test):
        assert not micro_train.intersects(micro_test)

    def test_equality(self, micro_train):
        users, items = micro_train.pairs()
        clone = InteractionMatrix(4, 8, users, items)
        assert clone == micro_train

    def test_inequality_different_content(self, micro_train, micro_test):
        assert micro_train != micro_test

    def test_equality_not_implemented_for_other_types(self, micro_train):
        assert micro_train.__eq__(42) is NotImplemented

    def test_repr(self, micro_train):
        assert "n_users=4" in repr(micro_train)


def assert_same_arrays(got, want):
    """``got`` equals ``want`` array for array, dtypes included."""
    got_csr, want_csr = got.tocsr(), want.tocsr()
    compared = [
        (got.indptr, want.indptr),
        (got.indices, want.indices),
        (got_csr.data, want_csr.data),
        (got.item_popularity, want.item_popularity),
        (got.user_activity, want.user_activity),
        *zip(got.pairs(), want.pairs()),
        (got._pair_key_index(), want._pair_key_index()),
    ]
    for got_array, want_array in compared:
        assert got_array.dtype == want_array.dtype
        assert np.array_equal(got_array, want_array)
    assert got == want


class TestWithAppended:
    """The successor of an append equals the constructor's rebuild of the
    old and new pairs, array for array."""

    @staticmethod
    def rebuild(matrix, users, items):
        old_users, old_items = matrix.pairs()
        return InteractionMatrix(
            matrix.n_users,
            matrix.n_items,
            np.concatenate([old_users, users]),
            np.concatenate([old_items, items]),
        )

    @pytest.mark.parametrize(
        "start, users, items",
        [
            ("micro", [1], [6]),
            ("micro", [0, 0, 1, 2, 1, 0], [3, 3, 2, 4, 7, 0]),
            ("empty", [2, 0, 2], [4, 1, 0]),
            ("user without interactions", [1, 1], [5, 0]),
            ("micro test", [3, 0], [7, 7]),
        ],
        ids=["one-pair", "repeats-and-present", "empty", "idle-user", "last-user-item"],
    )
    def test_equals_rebuild(self, micro_train, micro_test, start, users, items):
        matrix = {
            "micro": micro_train,
            "empty": InteractionMatrix(3, 5, [], []),
            "user without interactions": InteractionMatrix(4, 8, [0, 2, 2], [1, 0, 7]),
            "micro test": micro_test,
        }[start]
        before = [array.copy() for array in (matrix.indptr, matrix.indices)]
        successor = matrix.with_appended(users, items)
        assert_same_arrays(successor, self.rebuild(matrix, users, items))
        assert successor.indptr.dtype == successor.indices.dtype == np.int32
        # The successor carries the grown pair-key index, and the
        # original is untouched.
        assert successor._pair_keys is not None
        assert np.array_equal(matrix.indptr, before[0])
        assert np.array_equal(matrix.indices, before[1])

    def test_only_present_pairs_return_self(self, micro_train):
        assert micro_train.with_appended([0, 2, 0], [1, 6, 1]) is micro_train
        assert micro_train.with_appended([], []) is micro_train

    @pytest.mark.parametrize(
        "users, items, name",
        [([2.9], [5], "user_ids"), ([2], [5.5], "item_ids"), (["1"], [5], "user_ids")],
    )
    def test_non_integer_ids_rejected(self, micro_train, users, items, name):
        with pytest.raises(ValueError, match=f"{name} must be integers"):
            micro_train.with_appended(users, items)

    def test_invalid_pairs_rejected(self, micro_train):
        with pytest.raises(ValueError, match="parallel"):
            micro_train.with_appended([0, 1], [2])
        with pytest.raises(ValueError, match="item ids"):
            micro_train.with_appended([0], [8])
        with pytest.raises(ValueError, match="user ids"):
            micro_train.with_appended([-1], [0])


class TestBatchedLookups:
    def test_indptr_indices_expose_csr(self, micro_train):
        assert micro_train.indptr.size == micro_train.n_users + 1
        assert micro_train.indices.size == micro_train.n_interactions
        start, stop = micro_train.indptr[1], micro_train.indptr[2]
        assert np.array_equal(
            micro_train.indices[start:stop], micro_train.items_of(1)
        )

    def test_degrees_of_matches_degree_of(self, micro_train):
        users = np.array([3, 0, 0, 2])
        expected = [micro_train.degree_of(int(u)) for u in users]
        assert np.array_equal(micro_train.degrees_of(users), expected)

    def test_degrees_of_out_of_range(self, micro_train):
        with pytest.raises(IndexError):
            micro_train.degrees_of(np.array([0, 99]))

    def test_contains_pairs_matches_contains(self, micro_train):
        users = np.repeat(np.arange(4), 8)
        items = np.tile(np.arange(8), 4)
        expected = [
            micro_train.contains(int(u), int(i)) for u, i in zip(users, items)
        ]
        assert np.array_equal(micro_train.contains_pairs(users, items), expected)

    def test_contains_pairs_broadcasts(self, micro_train):
        # One user row against a 2-D item matrix.
        items = np.array([[0, 1], [3, 7]])
        result = micro_train.contains_pairs(np.int64(0), items)
        assert result.shape == items.shape
        assert np.array_equal(result, [[True, True], [False, False]])

    def test_contains_pairs_empty_matrix(self):
        empty = InteractionMatrix(3, 3, [], [])
        assert not empty.contains_pairs(np.array([0, 1]), np.array([0, 2])).any()

    def test_hits_in_rows_matches_contains(self, micro_train):
        users = np.array([2, 0, 3])
        items = np.array([[4, 7, 0], [0, 2, 5], [7, 7, 1]])
        expected = [
            [micro_train.contains(int(u), int(i)) for i in row]
            for u, row in zip(users, items)
        ]
        assert np.array_equal(micro_train.hits_in_rows(users, items), expected)

    def test_hits_in_rows_padding_is_false(self, micro_train):
        users = np.array([0, 2])
        items = np.array([[0, -1, 1], [-1, -1, 4]])
        result = micro_train.hits_in_rows(users, items)
        assert np.array_equal(result, [[True, False, True], [False, False, True]])

    def test_hits_in_rows_shape_validated(self, micro_train):
        with pytest.raises(ValueError, match="one row per user"):
            micro_train.hits_in_rows(np.array([0, 1]), np.array([[0, 1]]))
        with pytest.raises(ValueError, match="one row per user"):
            micro_train.hits_in_rows(np.array([0]), np.array([0, 1]))

    def test_positives_in_rows_scatter(self, micro_train):
        users = np.array([2, 0])
        rows, cols = micro_train.positives_in_rows(users)
        block = np.zeros((2, micro_train.n_items), dtype=bool)
        block[rows, cols] = True
        assert np.array_equal(~block[0], micro_train.negative_mask(2))
        assert np.array_equal(~block[1], micro_train.negative_mask(0))

    def test_positives_in_rows_empty_users(self, micro_train):
        rows, cols = micro_train.positives_in_rows(np.empty(0, dtype=np.int64))
        assert rows.size == 0 and cols.size == 0

    def test_negative_items_is_mask_complement(self, micro_train):
        for user in range(micro_train.n_users):
            expected = np.nonzero(micro_train.negative_mask(user))[0]
            assert np.array_equal(micro_train.negative_items(user), expected)
        # Second call hits the cache and returns the same contents.
        again = micro_train.negative_items(0)
        assert np.array_equal(again, np.nonzero(micro_train.negative_mask(0))[0])


class TestNegativeSampling:
    def test_uniform_negatives_never_positive(self, micro_train):
        rng = np.random.default_rng(0)
        draws = micro_train.uniform_negatives(0, 500, rng)
        assert draws.size == 500
        assert not set(micro_train.items_of(0).tolist()).intersection(draws.tolist())

    def test_uniform_negatives_saturated_user(self):
        full = InteractionMatrix(1, 3, [0, 0, 0], [0, 1, 2])
        with pytest.raises(ValueError, match="no un-interacted"):
            full.uniform_negatives(0, 1, np.random.default_rng(0))


class TestUniformNegativesRows:
    """The many-user draw core: each row, and the generator state after,
    equal per-row ``uniform_negatives`` calls, gathered from the negative
    table."""

    @pytest.mark.parametrize("path", ["table"])
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        users=st.lists(st.integers(0, 3), max_size=12),
        m=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_row_draws(self, micro_train, path, users, m, seed):
        train = InteractionMatrix(*micro_train.shape, *micro_train.pairs())
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = train.uniform_negatives_rows(np.array(users, dtype=np.int64), m, rng)
        assert got.shape == (len(users), m) and got.dtype == np.int64
        for row, user in enumerate(users):
            want = train.uniform_negatives(user, m, reference_rng)
            assert got[row].tolist() == want.tolist()
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("path", ["table"])
    def test_user_without_negatives_raises(self, path):
        train = interactions_from_pairs(
            [(0, i) for i in range(4)] + [(1, 0)], 2, 4
        )
        with pytest.raises(ValueError, match="user 0 has no un-interacted"):
            train.uniform_negatives_rows(
                np.array([1, 0, 1]), 2, np.random.default_rng(0)
            )

    def test_rejects_out_of_range_users(self, micro_train):
        with pytest.raises(IndexError, match="out of range"):
            micro_train.uniform_negatives_rows(
                np.array([0, 4]), 1, np.random.default_rng(0)
            )


class TestCacheBudget:
    def test_negative_items_views_the_table_within_budget(self, micro_train):
        negatives = micro_train.negative_items(1)
        table, _ = micro_train.negative_table()
        assert np.shares_memory(negatives, table)
        assert not negatives.flags.writeable
        assert np.array_equal(negatives, np.nonzero(micro_train.negative_mask(1))[0])

    def test_indptr_indices_read_only(self, micro_train):
        with pytest.raises(ValueError):
            micro_train.indptr[0] = 99
        with pytest.raises(ValueError):
            micro_train.indices[0] = 99
