"""Tests for repro.eval.protocol.Evaluator."""

import numpy as np
import pytest

from repro.eval import NonFiniteScoresError
from repro.eval.diversity import recommendation_footprint
from repro.eval.protocol import Evaluator
from repro.models.mf import MatrixFactorization
from score_stubs import RowScored


class OracleModel(RowScored):
    """Scores items by whether they are the user's test positives."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.n_items = dataset.n_items

    def scores(self, user):
        scores = np.zeros(self.n_items)
        scores[self.dataset.test.items_of(user)] = 1.0
        # deterministic tiny tie-break so rankings are stable
        scores += np.arange(self.n_items) * 1e-9
        return scores


class AntiOracleModel(OracleModel):
    def scores(self, user):
        return -super().scores(user)


class TestEvaluator:
    def test_oracle_has_perfect_recall_at_large_k(self, micro_dataset):
        evaluator = Evaluator(micro_dataset, ks=(5,))
        metrics = evaluator.evaluate(OracleModel(micro_dataset))
        assert metrics["recall@5"] == pytest.approx(1.0)
        assert metrics["ndcg@5"] == pytest.approx(1.0)

    def test_anti_oracle_scores_zero_at_small_k(self, micro_dataset):
        evaluator = Evaluator(micro_dataset, ks=(1,))
        metrics = evaluator.evaluate(AntiOracleModel(micro_dataset))
        assert metrics["recall@1"] == 0.0

    def test_metric_keys(self, micro_dataset, micro_model):
        evaluator = Evaluator(micro_dataset, ks=(2, 4))
        metrics = evaluator.evaluate(micro_model)
        assert set(metrics) == {
            "precision@2", "recall@2", "ndcg@2",
            "precision@4", "recall@4", "ndcg@4",
        }

    def test_extra_metrics(self, micro_dataset, micro_model):
        evaluator = Evaluator(micro_dataset, ks=(3,), extra_metrics=True)
        metrics = evaluator.evaluate(micro_model)
        for key in ("hitrate@3", "map@3", "mrr", "auc"):
            assert key in metrics

    def test_oracle_auc_is_one(self, micro_dataset):
        evaluator = Evaluator(micro_dataset, ks=(3,), extra_metrics=True)
        metrics = evaluator.evaluate(OracleModel(micro_dataset))
        assert metrics["auc"] == pytest.approx(1.0)

    def test_values_in_unit_interval(self, micro_dataset, micro_model):
        evaluator = Evaluator(micro_dataset, ks=(1, 3, 5), extra_metrics=True)
        metrics = evaluator.evaluate(micro_model)
        for key, value in metrics.items():
            assert 0.0 <= value <= 1.0, key

    def test_max_users_caps_evaluation(self, micro_dataset):
        calls = []

        class Probe(OracleModel):
            def scores(self, user):
                calls.append(user)
                return super().scores(user)

        Evaluator(micro_dataset, ks=(2,), max_users=2).evaluate(Probe(micro_dataset))
        assert len(set(calls)) == 2

    @pytest.mark.parametrize("max_users", [-1, 0])
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda model, data, cap: Evaluator(data, max_users=cap).evaluate(model),
            lambda model, data, cap: recommendation_footprint(
                model, data, max_users=cap
            ),
        ],
        ids=["evaluator", "diversity"],
    )
    def test_max_users_below_one_rejected(
        self, micro_dataset, micro_model, evaluate, max_users
    ):
        # As a slice, -1 would drop the last user and 0 evaluate nobody.
        with pytest.raises(ValueError, match="max_users must be >= 1"):
            evaluate(micro_model, micro_dataset, max_users)

    def test_ks_validated(self, micro_dataset):
        with pytest.raises(ValueError):
            Evaluator(micro_dataset, ks=())
        with pytest.raises(ValueError):
            Evaluator(micro_dataset, ks=(0,))

    def test_chunk_users_validated(self, micro_dataset):
        with pytest.raises(ValueError, match="chunk_users"):
            Evaluator(micro_dataset, ks=(2,), chunk_users=0)

    def test_batched_and_scalar_paths_agree(self, micro_dataset, micro_model):
        """A real model's batched ``scores_batch`` block and its per-user
        ``scores`` rows (a scores-only view, stacked by ``RowScored``)
        produce the same averages.

        (Tolerance instead of exact equality only because MF's
        ``scores_batch`` gemm may differ from per-user gemv in the last
        ulp; exact per-user parity with the scalar metric functions on a
        shared score source is pinned by the oracle in
        tests/property/test_property_eval_batch.py.)
        """

        class PerUserScores(RowScored):
            def scores(self, user):
                return micro_model.scores(user)

        options = dict(ks=(1, 3, 5), extra_metrics=True)
        batched = Evaluator(micro_dataset, **options).evaluate(micro_model)
        scalar = Evaluator(micro_dataset, **options).evaluate(PerUserScores())
        assert set(batched) == set(scalar)
        for key, value in batched.items():
            assert value == pytest.approx(scalar[key], abs=1e-12), key

    def test_small_chunks_match_one_chunk(self, micro_dataset, micro_model):
        reference = Evaluator(micro_dataset, ks=(3,)).evaluate_per_user(micro_model)
        chunked = Evaluator(micro_dataset, ks=(3,), chunk_users=1).evaluate_per_user(
            micro_model
        )
        for key, values in reference.items():
            assert np.array_equal(values, chunked[key])

    def test_no_evaluable_users_rejected(self, micro_train):
        from repro.data.dataset import ImplicitDataset
        from repro.data.interactions import InteractionMatrix

        empty_test = InteractionMatrix(4, 8, [], [])
        dataset = ImplicitDataset(micro_train, empty_test)
        with pytest.raises(ValueError, match="no users"):
            Evaluator(dataset, ks=(2,)).evaluate(None)

    def test_train_positives_never_recommended(self, micro_dataset):
        """Even a model scoring train positives highest can't surface them."""

        class TrainLover(RowScored):
            def __init__(self, dataset):
                self.dataset = dataset

            def scores(self, user):
                scores = np.zeros(self.dataset.n_items)
                scores[self.dataset.train.items_of(user)] = 10.0
                return scores

        evaluator = Evaluator(micro_dataset, ks=(3,))
        metrics = evaluator.evaluate(TrainLover(micro_dataset))
        # Train positives are masked → none of them counted as hits.
        assert metrics["precision@3"] <= 1 / 3


class PoisonedModel(OracleModel):
    """The oracle, except that one (user, item) score is replaced."""

    def __init__(self, dataset, user, item, value):
        super().__init__(dataset)
        self.user, self.item, self.value = user, item, value

    def scores(self, user):
        scores = super().scores(user)
        if user == self.user:
            scores[self.item] = self.value
        return scores


class TestNonFiniteScores:
    def test_nan_item_factors_raise(self, tiny_dataset):
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=8, seed=0
        )
        model.item_factors[:] = np.nan
        evaluator = Evaluator(tiny_dataset, ks=(20,))
        first = evaluator.evaluated_users()[0]
        with pytest.raises(NonFiniteScoresError, match=f"user {first}$"):
            evaluator.evaluate(model)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_bad_score_names_its_user(self, micro_dataset, value):
        # Item 0 is not among user 2's train positives, so it is ranked.
        # NaN and +inf rank first; -inf sinks to the bottom, so only a
        # cutoff that reaches all of user 2's unseen items sees it.
        model = PoisonedModel(micro_dataset, user=2, item=0, value=value)
        k = micro_dataset.n_items if value == -np.inf else 1
        for chunk_users in (1, 256):
            evaluator = Evaluator(micro_dataset, ks=(k,), chunk_users=chunk_users)
            with pytest.raises(NonFiniteScoresError, match="user 2$"):
                evaluator.evaluate(model)

    def test_masked_items_may_be_non_finite(self, micro_dataset):
        # Item 4 is a train positive of user 2: masked, never ranked.
        model = PoisonedModel(micro_dataset, user=2, item=4, value=np.nan)
        evaluator = Evaluator(micro_dataset, ks=(3,))
        assert evaluator.evaluate(model) == evaluator.evaluate(
            OracleModel(micro_dataset)
        )
