"""The score-model interface every component programs against.

A :class:`ScoreModel` predicts a preference score ``x̂_ui`` for any
user-item pair.  Negative samplers read per-user score vectors from it, the
trainer drives its :meth:`train_step`, and the evaluator ranks items by its
scores.  The interface is intentionally small so alternative models (or a
wrapper around a learned model from elsewhere) can be dropped in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.train.optimizer import Optimizer

__all__ = ["ScoreModel"]

#: Default number of users per ``scores_batch`` call inside
#: :meth:`ScoreModel.score_matrix`: large enough that a full matrix costs a
#: handful of matmuls, small enough that one float64 chunk stays modest at
#: this reproduction's universe sizes (1024 users × 20k items ≈ 160 MB).
#: Callers with bigger item universes should pass a smaller ``chunk_size``.
DEFAULT_SCORE_CHUNK = 1024


class ScoreModel(ABC):
    """Abstract pairwise-trainable scoring model.

    Concrete models run their dense products through
    :data:`repro.backend.kernels` at a policy :attr:`dtype`.
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

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    @abstractmethod
    def scores(self, user: int) -> np.ndarray:
        """Predicted score vector ``x̂_u`` over all items, shape ``(n_items,)``.

        Algorithm 1's "get rating vector" step; samplers call this once per
        user per batch.
        """

    @abstractmethod
    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Scores of parallel ``(user, item)`` id arrays, shape ``(B,)``."""

    def scores_batch(self, users: np.ndarray) -> np.ndarray:
        """Score block for an array of users, shape ``(B, n_items)``.

        Row ``b`` is ``scores(users[b])``.  Concrete models override this
        with one embedding matmul; this fallback stacks per-user calls so
        any third-party :class:`ScoreModel` keeps working unchanged.

        Ownership contract: the returned block is **freshly allocated on
        every call** and belongs to the caller, who may mutate it in place
        (the evaluator masks train positives directly into it).  Overrides
        must not hand out views of internal state.

        Note on determinism: matmul-based overrides may differ from
        per-user :meth:`scores` in the last ulp (BLAS gemm vs gemv
        accumulate in different orders) — callers that need bitwise
        reproducibility must stay on one path, as the trainer does.
        """
        users = np.asarray(users, dtype=np.int64).ravel()
        if users.size == 0:
            return np.empty((0, self.n_items), dtype=self.dtype)
        return np.stack([self.scores(int(u)) for u in users])

    def score_items_batch(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Gather-based scoring of per-user item lists, shape ``(B, m)``.

        ``items`` has one row of ``m`` item ids per entry of ``users``;
        ``out[b, j]`` is the score of ``(users[b], items[b, j])``.  This is
        the sparse counterpart of :meth:`scores_batch` — cost is
        ``O(B · m · d)`` regardless of ``n_items``, which is what lets
        :class:`~repro.samplers.base.ScoreRequest.SPARSE` samplers train
        without ever materializing a full score row.  Concrete models
        override it with one embedding-gather ``einsum``; this fallback
        routes through :meth:`score_pairs` so any third-party model keeps
        working unchanged.
        """
        users, items = self._check_user_item_rows(users, items)
        if items.size == 0:
            return np.empty(items.shape, dtype=self.dtype)
        flat_users = np.repeat(users, items.shape[1])
        return self.score_pairs(flat_users, items.ravel()).reshape(items.shape)

    def _check_user_item_rows(self, users: np.ndarray, items: np.ndarray) -> tuple:
        """Coerce/validate the ``score_items_batch`` argument contract:
        ``users`` flat, ``items`` 2-D with one row per user, both id
        ranges in bounds (negative ids — e.g. the ``-1`` padding other
        APIs use — would silently gather wrong embeddings otherwise)."""
        users = np.asarray(users, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64)
        if items.ndim != 2 or items.shape[0] != users.size:
            raise ValueError(
                f"items must be 2-D with one row per user, got shape "
                f"{items.shape} for {users.size} users"
            )
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise IndexError(f"user ids out of range [0, {self.n_users})")
        if items.size and (items.min() < 0 or items.max() >= self.n_items):
            raise IndexError(f"item ids out of range [0, {self.n_items})")
        return users, items

    def iter_score_blocks(
        self,
        users: Optional[np.ndarray] = None,
        *,
        chunk_size: int = DEFAULT_SCORE_CHUNK,
    ):
        """Stream ``(user_chunk, score_block)`` pairs over the given users.

        The memory-bounded access pattern behind large-scale evaluation:
        each yielded block is one :meth:`scores_batch` call for
        ``chunk_size`` users, so peak footprint stays at one
        ``chunk_size × n_items`` matrix however many users are scored.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if users is None:
            users = np.arange(self.n_users)
        users = np.asarray(users, dtype=np.int64).ravel()
        for start in range(0, users.size, chunk_size):
            chunk = users[start : start + chunk_size]
            yield chunk, self.scores_batch(chunk)

    def score_matrix(
        self,
        users: Optional[np.ndarray] = None,
        *,
        chunk_size: int = DEFAULT_SCORE_CHUNK,
    ) -> np.ndarray:
        """Dense score block for the given users (default: all users).

        Chunks through :meth:`iter_score_blocks` — ``chunk_size`` users per
        :meth:`scores_batch` call (default :data:`DEFAULT_SCORE_CHUNK`) —
        so large universes cost a handful of matmuls instead of one
        Python-level ``scores`` call per user.  Still materializes the full
        ``(U, n_items)`` result; callers that only stream over it (the
        evaluator) should iterate :meth:`iter_score_blocks` instead.
        """
        blocks = [block for _, block in self.iter_score_blocks(users, chunk_size=chunk_size)]
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return np.empty((0, self.n_items), dtype=self.dtype)
        return np.concatenate(blocks, axis=0)

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
    # Introspection (used by evaluation and tests)
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
