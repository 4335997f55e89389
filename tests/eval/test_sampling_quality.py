"""Tests for repro.eval.sampling_quality (Eq. 33–34)."""

import numpy as np
import pytest

from repro.eval.sampling_quality import SamplingQualityRecorder, false_negative_flags
from repro.train.callbacks import EpochStats


class TestFalseNegativeFlags:
    def test_flags_test_positives(self, micro_dataset):
        users = np.asarray([0, 0, 1, 3])
        items = np.asarray([5, 4, 0, 2])
        flags = false_negative_flags(micro_dataset, users, items)
        # (0,5) and (1,0) are test positives; (0,4) and (3,2) are not.
        assert np.array_equal(flags, [True, False, True, False])

    def test_parallel_validation(self, micro_dataset):
        with pytest.raises(ValueError, match="parallel"):
            false_negative_flags(micro_dataset, np.asarray([0, 1]), np.asarray([0]))

    def test_out_of_range_ids_raise(self, micro_dataset):
        n_users, n_items = micro_dataset.n_users, micro_dataset.n_items
        with pytest.raises(IndexError):
            false_negative_flags(micro_dataset, np.asarray([n_users]), np.asarray([0]))
        with pytest.raises(IndexError):
            false_negative_flags(micro_dataset, np.asarray([0]), np.asarray([n_items]))


class TestRecorder:
    def make_stats(self, epoch, users, items, info):
        n = len(users)
        return EpochStats(
            epoch=epoch,
            users=np.asarray(users),
            pos_items=np.zeros(n, dtype=np.int64),
            neg_items=np.asarray(items),
            info=np.asarray(info, dtype=np.float64),
            mean_loss=0.0,
            lr=0.01,
            duration_seconds=0.0,
        )

    def record(self, dataset, users, items, info):
        recorder = SamplingQualityRecorder(dataset)
        recorder.on_epoch_end(self.make_stats(0, users, items, info), model=None)
        return recorder.records[0]

    def test_eq33(self, micro_dataset):
        # (0,5) and (1,0) are test positives: 2 TN out of 4 sampled.
        record = self.record(micro_dataset, [0, 0, 1, 3], [5, 4, 0, 2], [0.5] * 4)
        assert record.tnr == 0.5
        assert (record.n_sampled, record.n_false_negatives) == (4, 2)

    def test_all_true_negatives(self, micro_dataset):
        record = self.record(micro_dataset, [0, 2], [3, 1], [0.5, 0.5])
        assert record.tnr == 1.0

    def test_eq34_signs(self, micro_dataset):
        # An FN (0,5) with info 0.8 and a TN (0,4) with info 0.6:
        # INF = (0.6·1 + 0.8·(−1)) / 2
        record = self.record(micro_dataset, [0, 0], [5, 4], [0.8, 0.6])
        assert record.inf == pytest.approx((0.6 - 0.8) / 2)

    def test_pure_tn_positive(self, micro_dataset):
        # A lone TN (0,4) contributes +info.
        record = self.record(micro_dataset, [0], [4], [0.5])
        assert record.inf == pytest.approx(0.5)

    def test_empty_epoch(self, micro_dataset):
        record = self.record(micro_dataset, [], [], [])
        assert (record.tnr, record.inf, record.n_sampled) == (1.0, 0.0, 0)

    def test_records_per_epoch(self, micro_dataset):
        recorder = SamplingQualityRecorder(micro_dataset)
        recorder.on_epoch_end(
            self.make_stats(0, [0, 0], [5, 4], [0.8, 0.6]), model=None
        )
        recorder.on_epoch_end(
            self.make_stats(1, [2, 3], [1, 2], [0.5, 0.5]), model=None
        )
        assert len(recorder.records) == 2
        assert recorder.records[0].tnr == 0.5
        assert recorder.records[1].tnr == 1.0
        assert recorder.records[0].n_false_negatives == 1

    def test_series_properties(self, micro_dataset):
        recorder = SamplingQualityRecorder(micro_dataset)
        recorder.on_epoch_end(self.make_stats(0, [0], [4], [0.4]), model=None)
        recorder.on_epoch_end(self.make_stats(1, [0], [5], [0.4]), model=None)
        assert np.array_equal(recorder.tnr_series, [1.0, 0.0])
        assert np.allclose(recorder.inf_series, [0.4, -0.4])
