"""Tests for repro.train.callbacks."""

import numpy as np

from repro.train.callbacks import EpochStats


def make_stats(epoch=0, n=4, info_value=0.5):
    return EpochStats(
        epoch=epoch,
        users=np.zeros(n, dtype=np.int64),
        pos_items=np.arange(n, dtype=np.int64),
        neg_items=np.arange(n, dtype=np.int64),
        info=np.full(n, info_value),
        mean_loss=0.7,
        lr=0.01,
        duration_seconds=0.1,
    )


class TestEpochStats:
    def test_mean_info(self):
        assert make_stats(info_value=0.25).mean_info == 0.25

    def test_mean_info_empty(self):
        assert make_stats(n=0).mean_info == 0.0
