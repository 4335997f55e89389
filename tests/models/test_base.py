"""Tests for the ScoreModel base class: scoring and its helpers."""

import numpy as np
import pytest

from repro.models.base import ScoreModel
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization

SCORING_METHODS = ("scores", "score_pairs", "scores_batch", "score_items_batch")


def build_model(name, train):
    if name == "lightgcn":
        return LightGCN(train, n_factors=4, seed=2)
    model_class = {"mf": MatrixFactorization, "biased_mf": BiasedMatrixFactorization}
    return model_class[name](train.n_users, train.n_items, n_factors=4, seed=2)


class TestTripleValidation:
    def test_check_triple_arrays(self):
        model = MatrixFactorization(3, 3, n_factors=2, seed=0)
        users, pos, neg = model._check_triple_arrays([0], [1], [2])
        assert users.dtype == np.int64
        assert users.shape == pos.shape == neg.shape

    def test_mismatch_raises(self):
        model = MatrixFactorization(3, 3, n_factors=2, seed=0)
        with pytest.raises(ValueError, match="parallel"):
            model._check_triple_arrays([0, 1], [1], [2])


class TestAbstractContract:
    def test_cannot_instantiate_base(self):
        with pytest.raises(TypeError):
            ScoreModel()


class TestScoresBatch:
    def test_matmul_matches_per_user(self):
        from repro.models.biased_mf import BiasedMatrixFactorization

        for model in (
            MatrixFactorization(5, 7, n_factors=3, seed=1),
            BiasedMatrixFactorization(5, 7, n_factors=3, seed=1),
        ):
            users = np.array([4, 0, 2])
            block = model.scores_batch(users)
            assert block.shape == (3, 7)
            for row, user in enumerate(users):
                assert np.allclose(block[row], model.scores(int(user)))

    def test_lightgcn_matches_per_user(self, micro_dataset):
        from repro.models.lightgcn import LightGCN

        model = LightGCN(micro_dataset.train, n_factors=4, seed=2)
        users = np.array([1, 3])
        block = model.scores_batch(users)
        for row, user in enumerate(users):
            assert np.allclose(block[row], model.scores(int(user)))

    def test_empty_users(self):
        model = MatrixFactorization(4, 6, n_factors=3, seed=0)
        assert model.scores_batch(np.empty(0, dtype=np.int64)).shape == (0, 6)

    def test_out_of_range_rejected(self):
        model = MatrixFactorization(4, 6, n_factors=3, seed=0)
        with pytest.raises(IndexError):
            model.scores_batch(np.array([0, 4]))


class TestScoringWrittenOnce:
    def test_no_model_overrides_a_scoring_method(self):
        for name in SCORING_METHODS:
            assert name in vars(ScoreModel)
            for model_class in (
                MatrixFactorization,
                BiasedMatrixFactorization,
                LightGCN,
            ):
                assert name not in vars(model_class), (model_class, name)

    def test_biased_mf_is_mf_plus_a_bias(self):
        assert issubclass(BiasedMatrixFactorization, MatrixFactorization)
        assert MatrixFactorization(2, 3, n_factors=2, seed=0).item_bias is None


@pytest.mark.parametrize("name", ["mf", "biased_mf", "lightgcn"])
class TestIdRange:
    """An id outside the universe raises instead of gathering another
    row: ``-1`` reads the last one, and LightGCN's user ``n_users`` is
    its first item row."""

    def test_score_pairs_rejects_user_ids(self, micro_train, name):
        model = build_model(name, micro_train)
        for user in (-1, model.n_users):
            with pytest.raises(IndexError, match="user ids"):
                model.score_pairs(np.array([user]), np.array([0]))

    def test_score_pairs_rejects_item_ids(self, micro_train, name):
        model = build_model(name, micro_train)
        for item in (-1, model.n_items):
            with pytest.raises(IndexError, match="item ids"):
                model.score_pairs(np.array([0]), np.array([item]))
