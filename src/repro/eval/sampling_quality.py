"""Sampling-quality metrics: TNR (Eq. 33) and INF (Eq. 34).

The paper evaluates a *sampler* (as opposed to the downstream model) by
flipping the labels of held-out test interactions: a sampled negative that
is actually a test positive is a **false negative** (FN); anything else is
a **true negative** (TN).  Per epoch:

    TNR = #TN / (#TN + #FN)                                   (Eq. 33)
    INF = Σ_j info(j) · sgn(j) / (#TN + #FN)                  (Eq. 34)

with ``sgn(j) = +1`` for TN and ``−1`` as the penalty for sampling an FN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.train.callbacks import Callback, EpochStats

__all__ = [
    "false_negative_flags",
    "SamplingQualityRecord",
    "SamplingQualityRecorder",
]


def false_negative_flags(
    dataset: ImplicitDataset, users: np.ndarray, items: np.ndarray
) -> np.ndarray:
    """Boolean array: which sampled ``(user, item)`` pairs are test positives.

    These are the ground-truth false negatives of the training phase.
    Out-of-range ids raise ``IndexError``.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    items = np.asarray(items, dtype=np.int64).ravel()
    if users.shape != items.shape:
        raise ValueError("users and items must be parallel arrays")
    return dataset.test.contains_pairs(users, items)


@dataclass(frozen=True)
class SamplingQualityRecord:
    """TNR/INF snapshot of one epoch."""

    epoch: int
    tnr: float
    inf: float
    n_sampled: int
    n_false_negatives: int


class SamplingQualityRecorder(Callback):
    """Per-epoch TNR/INF recorder — regenerates the paper's Fig. 4 series.

    An epoch that sampled nothing records TNR 1.0 and INF 0.0.
    """

    def __init__(self, dataset: ImplicitDataset) -> None:
        self.dataset = dataset
        self.records: List[SamplingQualityRecord] = []

    def on_epoch_end(self, stats: EpochStats, model) -> None:
        flags = false_negative_flags(self.dataset, stats.users, stats.neg_items)
        n = flags.size
        sgn = np.where(flags, -1.0, 1.0)
        self.records.append(
            SamplingQualityRecord(
                epoch=stats.epoch,
                tnr=float(1.0 - flags.mean()) if n else 1.0,
                inf=float((stats.info * sgn).mean()) if n else 0.0,
                n_sampled=int(n),
                n_false_negatives=int(flags.sum()),
            )
        )

    @property
    def tnr_series(self) -> np.ndarray:
        """TNR per epoch (ordered)."""
        return np.asarray([record.tnr for record in self.records])

    @property
    def inf_series(self) -> np.ndarray:
        """INF per epoch (ordered)."""
        return np.asarray([record.inf for record in self.records])
