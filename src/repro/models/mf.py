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
    seed:
        Initialization randomness (Gaussian, standard deviation 0.1).
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
        seed: SeedLike = None,
        dtype="float64",
    ) -> None:
        self.n_users = int(check_positive(n_users, "n_users"))
        self.n_items = int(check_positive(n_items, "n_items"))
        self.n_factors = int(check_positive(n_factors, "n_factors"))
        self.dtype = resolve_dtype(dtype)
        rng = as_rng(seed)
        self._user_factors = normal_init(
            self.n_users, self.n_factors, seed=rng
        ).astype(self.dtype, copy=False)
        self._item_factors = normal_init(
            self.n_items, self.n_factors, seed=rng
        ).astype(self.dtype, copy=False)

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
        return self._factor_step(users, pos_items, neg_items, optimizer, reg)

    def _factor_step(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        neg_items: np.ndarray,
        optimizer: Optimizer,
        reg: float,
    ) -> np.ndarray:
        """Eq. 2's step on the factor tables; returns ``info`` (Eq. 4).

        The scores ``info`` reads include :attr:`item_bias` when the model
        has one; the bias itself is left to the caller.
        """
        n = users.size
        items = np.concatenate([pos_items, neg_items])
        # take gathers the same rows as fancy indexing, at a third of its
        # per-call cost on a 2-D table.
        w_u = self._user_factors.take(users, axis=0)
        h = self._item_factors.take(items, axis=0)
        h_i, h_j = h[:n], h[n:]
        x_ui = kernels.pair_dot(w_u, h_i)
        x_uj = kernels.pair_dot(w_u, h_j)
        if self.item_bias is not None:
            x_ui = x_ui + self.item_bias[pos_items]
            x_uj = x_uj + self.item_bias[neg_items]

        info = informativeness(x_ui, x_uj)
        s = info[:, None]
        sw = s * w_u

        # Both item gradients at once: (−s·w_u + reg·h_i; s·w_u + reg·h_j)
        # term for term, as negation is exact and addition commutes.
        grad_u = -s * (h_i - h_j) + reg * w_u
        grad_h = reg * h + np.concatenate([-sw, sw])

        rows_u, agg_u = aggregate_rows(users, grad_u)
        rows_h, agg_h = aggregate_rows(items, grad_h)
        optimizer.update_rows("user_factors", self._user_factors, rows_u, agg_u)
        optimizer.update_rows("item_factors", self._item_factors, rows_h, agg_h)
        return info

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
            f"{type(self).__name__}(n_users={self.n_users}, "
            f"n_items={self.n_items}, n_factors={self.n_factors})"
        )
