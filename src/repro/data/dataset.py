"""Dataset container pairing train/test matrices with side information."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.interactions import InteractionMatrix

__all__ = ["ImplicitDataset", "DatasetStatistics"]


@dataclass(frozen=True)
class DatasetStatistics:
    """Summary row matching the paper's Table I."""

    name: str
    n_users: int
    n_items: int
    n_train: int
    n_test: int

    @property
    def n_interactions(self) -> int:
        """Total interactions across train and test."""
        return self.n_train + self.n_test

    @property
    def density(self) -> float:
        """Observed fraction of the full matrix."""
        return self.n_interactions / (self.n_users * self.n_items)


class ImplicitDataset:
    """A train/test pair of interaction matrices plus side information.

    The invariants enforced here are exactly what the paper's evaluation
    depends on:

    * train and test share one ``(n_users, n_items)`` universe;
    * train and test are disjoint — a test positive is, by construction, a
      *false negative* during training (ground truth for Fig. 1 / TNR);
    * optional per-user occupations align with the user universe (consumed
      by the occupation-enhanced prior of BNS-4).
    """

    def __init__(
        self,
        train: InteractionMatrix,
        test: InteractionMatrix,
        *,
        name: str = "dataset",
        user_occupations: Optional[np.ndarray] = None,
        occupation_names: Optional[tuple] = None,
    ) -> None:
        if train.shape != test.shape:
            raise ValueError(
                f"train shape {train.shape} != test shape {test.shape}"
            )
        if train.intersects(test):
            raise ValueError("train and test interactions must be disjoint")
        self._train = train
        self._test = test
        self._name = str(name)
        if user_occupations is not None:
            occ = np.asarray(user_occupations, dtype=np.int64).ravel()
            if occ.size != train.n_users:
                raise ValueError(
                    f"user_occupations must have {train.n_users} entries, got {occ.size}"
                )
            self._occupations: Optional[np.ndarray] = occ
        else:
            self._occupations = None
        self._occupation_names = occupation_names

    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """Dataset tag (e.g. ``"ml-100k"`` or ``"synthetic:ml-100k"``)."""
        return self._name

    @property
    def train(self) -> InteractionMatrix:
        """Training interactions (the PU-dataset's labeled positives)."""
        return self._train

    @property
    def test(self) -> InteractionMatrix:
        """Held-out interactions (the training phase's false negatives)."""
        return self._test

    @property
    def n_users(self) -> int:
        """Number of users in the shared universe."""
        return self._train.n_users

    @property
    def n_items(self) -> int:
        """Number of items in the shared universe."""
        return self._train.n_items

    @property
    def user_occupations(self) -> Optional[np.ndarray]:
        """Per-user occupation ids, or ``None`` when unavailable (a copy)."""
        if self._occupations is None:
            return None
        return self._occupations.copy()

    @property
    def occupation_names(self) -> Optional[tuple]:
        """Readable occupation names indexed by id, if known."""
        return self._occupation_names

    @property
    def has_occupations(self) -> bool:
        """Whether occupation side information is present."""
        return self._occupations is not None

    # ------------------------------------------------------------------ #

    def statistics(self) -> DatasetStatistics:
        """Table I summary for this dataset."""
        return DatasetStatistics(
            name=self._name,
            n_users=self.n_users,
            n_items=self.n_items,
            n_train=self._train.n_interactions,
            n_test=self._test.n_interactions,
        )

    def false_negative_mask(self, user: int) -> np.ndarray:
        """Boolean mask over items: ``True`` for the user's test positives.

        During training these are unlabeled, so a sampler that picks one has
        sampled a *false negative* — the ground-truth signal behind the
        paper's TNR metric (Eq. 33) and Fig. 1.
        """
        mask = np.zeros(self.n_items, dtype=bool)
        mask[self._test.items_of(user)] = True
        return mask

    def trainable_users(self) -> np.ndarray:
        """Users with at least one training positive (can form triples)."""
        return np.nonzero(self._train.user_activity > 0)[0]

    def evaluable_users(self) -> np.ndarray:
        """Users with at least one test positive (can be scored by metrics)."""
        return np.nonzero(self._test.user_activity > 0)[0]

    def __repr__(self) -> str:
        return (
            f"ImplicitDataset(name={self._name!r}, users={self.n_users}, "
            f"items={self.n_items}, train={self._train.n_interactions}, "
            f"test={self._test.n_interactions})"
        )
