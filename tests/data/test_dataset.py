"""Tests for repro.data.dataset.ImplicitDataset."""

import numpy as np
import pytest

from repro.data.dataset import DatasetStatistics, ImplicitDataset
from repro.data.interactions import InteractionMatrix
from matrix_builders import interactions_from_pairs


class TestConstruction:
    def test_basic(self, micro_dataset):
        assert micro_dataset.n_users == 4
        assert micro_dataset.n_items == 8
        assert micro_dataset.name == "micro"

    def test_shape_mismatch_rejected(self, micro_train):
        other = InteractionMatrix(4, 9, [0], [8])
        with pytest.raises(ValueError, match="shape"):
            ImplicitDataset(micro_train, other)

    def test_overlap_rejected(self, micro_train):
        overlapping = interactions_from_pairs([(0, 0)], 4, 8)
        with pytest.raises(ValueError, match="disjoint"):
            ImplicitDataset(micro_train, overlapping)

    def test_occupation_length_checked(self, micro_train, micro_test):
        with pytest.raises(ValueError, match="user_occupations"):
            ImplicitDataset(
                micro_train, micro_test, user_occupations=np.asarray([0, 1])
            )

    def test_occupations_optional(self, micro_train, micro_test):
        dataset = ImplicitDataset(micro_train, micro_test)
        assert not dataset.has_occupations
        assert dataset.user_occupations is None


class TestAccessors:
    def test_false_negative_mask(self, micro_dataset):
        mask = micro_dataset.false_negative_mask(0)
        assert mask[5]
        assert mask.sum() == 1

    def test_trainable_users(self, micro_dataset):
        assert np.array_equal(micro_dataset.trainable_users(), [0, 1, 2, 3])

    def test_evaluable_users(self, micro_dataset):
        assert np.array_equal(micro_dataset.evaluable_users(), [0, 1, 2, 3])

    def test_evaluable_excludes_userless_test(self, micro_train):
        test = interactions_from_pairs([(0, 5)], 4, 8)
        dataset = ImplicitDataset(micro_train, test)
        assert np.array_equal(dataset.evaluable_users(), [0])

    def test_occupations_returned_as_copy(self, micro_dataset):
        occ = micro_dataset.user_occupations
        occ[0] = 99
        assert micro_dataset.user_occupations[0] == 0

    def test_occupation_names(self, micro_dataset):
        assert micro_dataset.occupation_names == ("engineer", "artist")

    def test_repr(self, micro_dataset):
        assert "micro" in repr(micro_dataset)


class TestStatistics:
    def test_statistics_row(self, micro_dataset):
        stats = micro_dataset.statistics()
        assert stats == DatasetStatistics(
            name="micro", n_users=4, n_items=8, n_train=9, n_test=4
        )

    def test_totals(self, micro_dataset):
        stats = micro_dataset.statistics()
        assert stats.n_interactions == 13
        assert stats.density == pytest.approx(13 / 32)
