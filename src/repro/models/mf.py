"""Matrix factorization with BPR training (the paper's primary model).

Scores are plain dot products, ``x̂_ui = w_u · h_i`` (Koren et al., 2009).
The BPR gradient for a triple ``(u, i, j)`` with ``s = 1 − σ(x̂_ui − x̂_uj)``
is, for the minimized loss ``−ln σ(x̂_ui − x̂_uj) + reg·(‖w_u‖² + ‖h_i‖² +
‖h_j‖²)/2``:

    ∂/∂w_u = −s (h_i − h_j) + reg·w_u
    ∂/∂h_i = −s w_u         + reg·h_i
    ∂/∂h_j = +s w_u         + reg·h_j

which reproduces Eq. 2's score gradient exactly.
"""

from __future__ import annotations

import numpy as np

from repro.backend import kernels, resolve_dtype
from repro.models.base import ScoreModel
from repro.models.init import normal_init
from repro.train.loss import informativeness
from repro.train.optimizer import Optimizer, aggregate_rows
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["MatrixFactorization"]


class MatrixFactorization(ScoreModel):
    """BPR matrix factorization over NumPy embedding tables.

    Parameters
    ----------
    n_users, n_items:
        Universe sizes.
    n_factors:
        Embedding dimensionality (paper: 32).
    init_scale:
        Standard deviation of the Gaussian initialization.
    seed:
        Initialization randomness.
    dtype:
        Parameter dtype policy (see :func:`repro.backend.resolve_dtype`).
        Init draws stay at float64 and are cast to ``dtype``, so a
        float32 model starts from the float64 init rounded down.
    """

    row_local_step = True

    def __init__(
        self,
        n_users: int,
        n_items: int,
        n_factors: int = 32,
        *,
        init_scale: float = 0.1,
        seed: SeedLike = None,
        dtype="float64",
    ) -> None:
        self.n_users = int(check_positive(n_users, "n_users"))
        self.n_items = int(check_positive(n_items, "n_items"))
        self.n_factors = int(check_positive(n_factors, "n_factors"))
        self.dtype = resolve_dtype(dtype)
        rng = as_rng(seed)
        self._user_factors = normal_init(
            self.n_users, self.n_factors, init_scale, rng
        ).astype(self.dtype, copy=False)
        self._item_factors = normal_init(
            self.n_items, self.n_factors, init_scale, rng
        ).astype(self.dtype, copy=False)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def scores(self, user: int) -> np.ndarray:
        if not 0 <= user < self.n_users:
            raise IndexError(f"user {user} out of range [0, {self.n_users})")
        return kernels.matvec(self._item_factors, self._user_factors[user])

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64).ravel()
        return kernels.pair_dot(self._user_factors[users], self._item_factors[items])

    def scores_batch(self, users: np.ndarray) -> np.ndarray:
        """Score block via one embedding matmul, shape ``(B, n_items)``."""
        users = np.asarray(users, dtype=np.int64).ravel()
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise IndexError(f"user ids out of range [0, {self.n_users})")
        return kernels.gemm_nt(self._user_factors[users], self._item_factors)

    def score_items_batch(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Sparse scoring by one embedding gather + einsum, ``O(B·m·d)``."""
        users, items = self._check_user_item_rows(users, items)
        return kernels.gather_dot(
            self._user_factors[users], self._item_factors[items]
        )

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def train_step(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        neg_items: np.ndarray,
        optimizer: Optimizer,
        reg: float,
    ) -> np.ndarray:
        users, pos_items, neg_items = self._check_triple_arrays(
            users, pos_items, neg_items
        )
        check_non_negative(reg, "reg")
        w_u = self._user_factors[users]
        h_i = self._item_factors[pos_items]
        h_j = self._item_factors[neg_items]

        info = informativeness(kernels.pair_dot(w_u, h_i), kernels.pair_dot(w_u, h_j))
        s = info[:, None]

        grad_u = -s * (h_i - h_j) + reg * w_u
        grad_i = -s * w_u + reg * h_i
        grad_j = s * w_u + reg * h_j

        rows_u, agg_u = aggregate_rows(users, grad_u)
        rows_hi, agg_hi = aggregate_rows(
            np.concatenate([pos_items, neg_items]),
            np.concatenate([grad_i, grad_j]),
        )
        optimizer.update_rows("user_factors", self._user_factors, rows_u, agg_u)
        optimizer.update_rows("item_factors", self._item_factors, rows_hi, agg_hi)
        return info

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def user_factors(self) -> np.ndarray:
        """The live user embedding table (mutated by training)."""
        return self._user_factors

    @property
    def item_factors(self) -> np.ndarray:
        """The live item embedding table (mutated by training)."""
        return self._item_factors

    def __repr__(self) -> str:
        return (
            f"MatrixFactorization(n_users={self.n_users}, n_items={self.n_items}, "
            f"n_factors={self.n_factors})"
        )
