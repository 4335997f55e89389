"""Observer-style training callbacks.

The trainer emits an :class:`EpochStats` record at the end of every epoch —
including the full arrays of sampled triples and their ``info`` values,
which is exactly what the paper's sampling-quality metrics (Eq. 33–34)
consume.  Callbacks receive it via :meth:`Callback.on_epoch_end`; the
trainer also keeps every record in :attr:`Trainer.history
<repro.train.trainer.Trainer.history>`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EpochStats", "Callback"]


@dataclass(frozen=True)
class EpochStats:
    """Everything observable about one finished training epoch.

    The triple arrays are parallel and cover every training step of the
    epoch in execution order.
    """

    epoch: int
    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray
    info: np.ndarray
    mean_loss: float
    lr: float
    duration_seconds: float

    @property
    def mean_info(self) -> float:
        """Average gradient magnitude of the epoch's sampled negatives."""
        return float(self.info.mean()) if self.info.size else 0.0


class Callback:
    """Base callback: an epoch observer whose hook defaults to a no-op."""

    def on_epoch_end(self, stats: EpochStats, model) -> None:
        """Called after every epoch with that epoch's statistics."""
