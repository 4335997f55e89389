"""The score-model interface every component programs against.

A :class:`ScoreModel` predicts a preference score ``x̂_ui = w_u · h_i
(+ b_i)`` for any user-item pair.  Negative samplers read per-user score
vectors from it, the trainer drives its :meth:`train_step`, and the
evaluator ranks items by its scores.

A subclass supplies :attr:`~ScoreModel.user_factors` and
:attr:`~ScoreModel.item_factors`, an optional :attr:`~ScoreModel.item_bias`,
:meth:`~ScoreModel.train_step` and :attr:`~ScoreModel.row_local_step`.
The four scoring methods (:meth:`~ScoreModel.scores`,
:meth:`~ScoreModel.score_pairs`, :meth:`~ScoreModel.scores_batch` and
:meth:`~ScoreModel.score_items_batch`) are written once, here, from those
tables: each runs one :data:`repro.backend.kernels` product and then adds
the bias, if any.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.backend import kernels
from repro.train.optimizer import Optimizer

__all__ = ["ScoreModel"]


def _ids(values, bound: int, kind: str) -> np.ndarray:
    """``values`` as int64 ids, each in ``[0, bound)``.

    A negative id (e.g. the ``-1`` padding other APIs use) or one past
    the end would otherwise gather a wrong embedding row silently.
    """
    ids = np.asarray(values, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        raise IndexError(f"{kind} ids out of range [0, {bound})")
    return ids


class ScoreModel(ABC):
    """Abstract pairwise-trainable scoring model.

    Scoring runs its dense products through :data:`repro.backend.kernels`
    at a policy :attr:`dtype`.
    """

    #: Matrix shape; set by concrete constructors.
    n_users: int
    n_items: int
    #: Embedding dimensionality.
    n_factors: int
    #: Parameter/score dtype policy (``float64`` exact / ``float32`` fast,
    #: see :func:`repro.backend.resolve_dtype`); concrete constructors set
    #: it before allocating their parameter tables.
    dtype: np.dtype = np.dtype(np.float64)
    #: Whether :meth:`train_step` reads and writes only its triples' user
    #: and item rows, row by row.  Then triples that share no row commute,
    #: and one step over a run of them equals the one-triple steps bit for
    #: bit, which the trainer exploits at ``batch_size=1`` (see
    #: :mod:`repro.train.trainer`).  A subclass whose step reads other
    #: rows (graph propagation, shared state) must leave it ``False``.
    row_local_step: bool = False
    #: Per-item score offset ``b_i``, shape ``(n_items,)``, added after
    #: the dot product; ``None`` for a model without one.
    item_bias: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def scores(self, user: int) -> np.ndarray:
        """Predicted score vector ``x̂_u`` over all items, shape ``(n_items,)``.

        Algorithm 1's "get rating vector" step; samplers call this once per
        user per batch.
        """
        if not 0 <= user < self.n_users:
            raise IndexError(f"user {user} out of range [0, {self.n_users})")
        row = kernels.matvec(self.item_factors, self.user_factors[user])
        return row if self.item_bias is None else row + self.item_bias

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Scores of parallel ``(user, item)`` id arrays, shape ``(B,)``."""
        users = _ids(users, self.n_users, "user").ravel()
        items = _ids(items, self.n_items, "item").ravel()
        dots = kernels.pair_dot(self.user_factors[users], self.item_factors[items])
        return dots if self.item_bias is None else dots + self.item_bias[items]

    def scores_batch(self, users: np.ndarray) -> np.ndarray:
        """Score block for an array of users, shape ``(B, n_items)``.

        Row ``b`` is ``scores(users[b])``, computed by one embedding matmul.

        Ownership contract: the returned block is **freshly allocated on
        every call** and belongs to the caller, who may mutate it in place
        (the evaluator masks train positives directly into it).

        Note on determinism: the gemm may differ from per-user
        :meth:`scores` in the last ulp (BLAS gemm vs gemv accumulate in
        different orders) — callers that need bitwise reproducibility
        must stay on one path, as the trainer does.
        """
        users = _ids(users, self.n_users, "user").ravel()
        block = kernels.gemm_nt(self.user_factors[users], self.item_factors)
        return block if self.item_bias is None else block + self.item_bias

    def score_items_batch(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Gather-based scoring of per-user item lists, shape ``(B, m)``.

        ``items`` has one row of ``m`` item ids per entry of ``users``;
        ``out[b, j]`` is the score of ``(users[b], items[b, j])``.  This is
        the sparse counterpart of :meth:`scores_batch` — one embedding
        gather and ``einsum``, so the cost is ``O(B · m · d)`` regardless
        of ``n_items``, which is what lets
        :class:`~repro.samplers.base.ScoreRequest.SPARSE` samplers train
        without ever materializing a full score row.
        """
        users = np.asarray(users, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64)
        if items.ndim != 2 or items.shape[0] != users.size:
            raise ValueError(
                f"items must be 2-D with one row per user, got shape "
                f"{items.shape} for {users.size} users"
            )
        users = _ids(users, self.n_users, "user")
        items = _ids(items, self.n_items, "item")
        dots = kernels.gather_dot(self.user_factors[users], self.item_factors[items])
        return dots if self.item_bias is None else dots + self.item_bias[items]

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    @abstractmethod
    def train_step(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        neg_items: np.ndarray,
        optimizer: Optimizer,
        reg: float,
    ) -> np.ndarray:
        """One BPR step on a batch of triples ``(u, i, j)``.

        Maximizes ``ln σ(x̂_ui − x̂_uj)`` (Eq. 1) with L2 regularization
        ``reg`` and applies the gradients through ``optimizer``.

        Returns the per-triple value ``1 − σ(x̂_ui − x̂_uj)`` *before* the
        update — exactly the paper's ``info(j)`` (Eq. 4), which the trainer
        hands to the sampling-quality recorders (Eq. 34).
        """

    # ------------------------------------------------------------------ #
    # The tables scoring reads
    # ------------------------------------------------------------------ #

    @property
    @abstractmethod
    def user_factors(self) -> np.ndarray:
        """Effective user representations, shape ``(n_users, n_factors)``."""

    @property
    @abstractmethod
    def item_factors(self) -> np.ndarray:
        """Effective item representations, shape ``(n_items, n_factors)``."""

    def _check_triple_arrays(
        self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> tuple:
        users = np.asarray(users, dtype=np.int64).ravel()
        pos_items = np.asarray(pos_items, dtype=np.int64).ravel()
        neg_items = np.asarray(neg_items, dtype=np.int64).ravel()
        if not users.size == pos_items.size == neg_items.size:
            raise ValueError(
                "users, pos_items and neg_items must be parallel arrays, got "
                f"sizes {users.size}, {pos_items.size}, {neg_items.size}"
            )
        return users, pos_items, neg_items
