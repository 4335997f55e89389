"""Tests for repro.eval.diversity."""

import numpy as np
import pytest

from repro.eval import NonFiniteScoresError
from repro.eval.diversity import recommendation_footprint
from repro.eval.topk import top_k_items
from score_stubs import RowScored


def footprint_metric(metric, model, dataset, k, **kwargs):
    """One of the footprint's three values, e.g. ``"coverage"`` at ``k``."""
    return recommendation_footprint(model, dataset, k, **kwargs)[f"{metric}@{k}"]


class ConstantModel(RowScored):
    """Recommends the same fixed ranking to every user."""

    def __init__(self, n_items):
        self.n_items = n_items

    def scores(self, user):
        return -np.arange(self.n_items, dtype=np.float64)  # item 0 best


class PersonalModel(RowScored):
    """User u most prefers item u (distinct heads per user)."""

    def __init__(self, n_items):
        self.n_items = n_items

    def scores(self, user):
        scores = np.zeros(self.n_items)
        scores[user % self.n_items] = 1.0
        return scores


class TestCatalogCoverage:
    def test_constant_model_low_coverage(self, micro_dataset):
        model = ConstantModel(micro_dataset.n_items)
        coverage = footprint_metric("coverage", model, micro_dataset, k=2)
        # Everyone gets roughly the same head (positives masked per user),
        # so coverage stays far below 1.
        assert coverage <= 0.75

    def test_personal_model_higher_coverage(self, micro_dataset):
        constant = footprint_metric(
            "coverage", ConstantModel(micro_dataset.n_items), micro_dataset, k=1
        )
        personal = footprint_metric(
            "coverage", PersonalModel(micro_dataset.n_items), micro_dataset, k=1
        )
        assert personal >= constant

    def test_k_validated(self, micro_dataset):
        with pytest.raises(ValueError):
            recommendation_footprint(ConstantModel(8), micro_dataset, k=0)

    def test_full_coverage_upper_bound(self, micro_dataset):
        model = PersonalModel(micro_dataset.n_items)
        coverage = footprint_metric(
            "coverage", model, micro_dataset, k=micro_dataset.n_items
        )
        assert coverage == 1.0


class TestPopularityMetrics:
    def test_arp_matches_hand_computation(self, micro_dataset):
        model = ConstantModel(micro_dataset.n_items)
        arp = footprint_metric("arp", model, micro_dataset, k=1)
        # Each user gets the lowest-indexed non-train item.
        popularity = micro_dataset.train.item_popularity
        expected = []
        for user in micro_dataset.trainable_users().tolist():
            mask = micro_dataset.train.negative_mask(user)
            expected.append(popularity[np.nonzero(mask)[0][0]])
        assert arp == pytest.approx(np.mean(expected))

    def test_popularity_lift_neutral_point(self, micro_dataset):
        """A model recommending every item equally often has lift ≈ weighted
        mean over recommended slots; the sanity check is positivity and
        finiteness."""
        lift = footprint_metric(
            "popularity_lift", PersonalModel(micro_dataset.n_items), micro_dataset, k=3
        )
        assert lift > 0
        assert np.isfinite(lift)

    def test_popular_head_model_has_higher_lift(self, micro_dataset):
        """A model that ranks by popularity must have higher lift than one
        that ranks against it."""
        popularity = micro_dataset.train.item_popularity.astype(float)

        class PopularityModel(RowScored):
            def scores(self, user):
                return popularity

        class AntiPopularityModel(RowScored):
            def scores(self, user):
                return -popularity

        high = footprint_metric(
            "popularity_lift", PopularityModel(), micro_dataset, k=2
        )
        low = footprint_metric(
            "popularity_lift", AntiPopularityModel(), micro_dataset, k=2
        )
        assert high > low

    def test_max_users_restricts(self, micro_dataset):
        model = ConstantModel(micro_dataset.n_items)
        calls = []

        class CountingModel(RowScored):
            def scores(self, user):
                calls.append(user)
                return model.scores(user)

        value = footprint_metric(
            "arp", CountingModel(), micro_dataset, k=2, max_users=1
        )
        assert calls == micro_dataset.trainable_users()[:1].tolist()
        assert np.isfinite(value)


class TestFootprint:
    def test_keys(self, micro_dataset):
        footprint = recommendation_footprint(
            ConstantModel(micro_dataset.n_items), micro_dataset, k=3
        )
        assert set(footprint) == {"coverage@3", "arp@3", "popularity_lift@3"}

    def test_ranks_each_user_once(self, micro_dataset):
        """One ranking pass serves all three metrics, with the values
        computed from each user's :func:`top_k_items` list."""
        model = PersonalModel(micro_dataset.n_items)
        calls = []

        class CountingModel(RowScored):
            def scores(self, user):
                calls.append(user)
                return model.scores(user)

        footprint = recommendation_footprint(CountingModel(), micro_dataset, k=3)
        assert sorted(calls) == micro_dataset.trainable_users().tolist()
        train = micro_dataset.train
        recommended = np.concatenate([
            top_k_items(model.scores(user), train.items_of(user), 3)
            for user in micro_dataset.trainable_users().tolist()
        ])
        popularity = train.item_popularity
        arp = popularity[recommended].mean()
        assert footprint == {
            "coverage@3": np.unique(recommended).size / micro_dataset.n_items,
            "arp@3": arp,
            "popularity_lift@3": arp / popularity.mean(),
        }

    def test_non_finite_scores_raise(self, micro_dataset):
        model = PersonalModel(micro_dataset.n_items)

        class NanForUserOne(RowScored):
            def scores(self, user):
                scores = model.scores(user)
                if user == 1:
                    scores[5] = np.nan
                return scores

        with pytest.raises(NonFiniteScoresError, match="user 1$"):
            recommendation_footprint(NanForUserOne(), micro_dataset, k=3)
