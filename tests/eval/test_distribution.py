"""Tests for repro.eval.distribution (Fig. 1 machinery)."""

import numpy as np
import pytest

from repro.eval.distribution import (
    ScoreDistributionRecorder,
    ScoreSnapshot,
    score_snapshot,
)
from repro.train.callbacks import EpochStats


class PlantedModel:
    """FN items score +1, everything else scores 0 (plus user jitter)."""

    def __init__(self, dataset):
        self.dataset = dataset

    def scores(self, user):
        scores = np.zeros(self.dataset.n_items)
        scores[self.dataset.test.items_of(user)] = 1.0
        return scores


class TestScoreSnapshot:
    def test_counts(self, micro_dataset):
        snapshot = score_snapshot(PlantedModel(micro_dataset), micro_dataset)
        # Each user: items − train degree − test degree true negatives.
        expected_tn = sum(
            micro_dataset.n_items
            - micro_dataset.train.degree_of(u)
            - micro_dataset.test.degree_of(u)
            for u in micro_dataset.evaluable_users()
        )
        assert snapshot.tn_scores.size == expected_tn
        assert snapshot.fn_scores.size == micro_dataset.test.n_interactions

    def test_separation_detected(self, micro_dataset):
        snapshot = score_snapshot(PlantedModel(micro_dataset), micro_dataset)
        assert snapshot.separation == pytest.approx(1.0)

    def test_empty_classes_zero_separation(self):
        snapshot = ScoreSnapshot(0, np.asarray([]), np.asarray([]))
        assert snapshot.separation == 0.0

    def test_max_users_subsamples(self, micro_dataset):
        snapshot = score_snapshot(
            PlantedModel(micro_dataset), micro_dataset, max_users=1, seed=0
        )
        assert snapshot.fn_scores.size <= 2

    @pytest.mark.parametrize("max_users", [0, -1])
    def test_max_users_below_one_rejected(self, micro_dataset, max_users):
        with pytest.raises(ValueError, match="max_users must be >= 1"):
            score_snapshot(
                PlantedModel(micro_dataset), micro_dataset, max_users=max_users
            )

    def test_score_cap(self, micro_dataset):
        snapshot = score_snapshot(
            PlantedModel(micro_dataset),
            micro_dataset,
            max_scores_per_class=3,
            seed=0,
        )
        assert snapshot.tn_scores.size == 3


class TestRecorder:
    def make_stats(self, epoch):
        return EpochStats(
            epoch=epoch,
            users=np.asarray([0]),
            pos_items=np.asarray([0]),
            neg_items=np.asarray([3]),
            info=np.asarray([0.5]),
            mean_loss=0.0,
            lr=0.01,
            duration_seconds=0.0,
        )

    def test_snapshots_only_selected_epochs(self, micro_dataset):
        recorder = ScoreDistributionRecorder(micro_dataset, epochs=[1, 3])
        model = PlantedModel(micro_dataset)
        for epoch in range(5):
            recorder.on_epoch_end(self.make_stats(epoch), model)
        assert sorted(recorder.snapshots) == [1, 3]

    def test_separation_series_sorted(self, micro_dataset):
        recorder = ScoreDistributionRecorder(micro_dataset, epochs=[2, 0])
        model = PlantedModel(micro_dataset)
        for epoch in range(3):
            recorder.on_epoch_end(self.make_stats(epoch), model)
        series = recorder.separation_series()
        assert [epoch for epoch, _ in series] == [0, 2]
        assert all(value == pytest.approx(1.0) for _, value in series)

    @pytest.mark.parametrize("max_users", [0, -1])
    def test_max_users_below_one_rejected(self, micro_dataset, max_users):
        with pytest.raises(ValueError, match="max_users must be >= 1"):
            ScoreDistributionRecorder(
                micro_dataset, epochs=[0], max_users=max_users
            )
