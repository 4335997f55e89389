"""Matrix factorization with item biases.

The classic BPR-MF extension: ``x̂_ui = w_u · h_i + b_i``.  Only *item*
biases are modelled — a user bias (or global offset) cancels inside the
pairwise difference ``x̂_ui − x̂_uj`` and would receive no gradient, so
carrying it would be dead weight.

The item bias absorbs global popularity, which interacts with negative
sampling in an instructive way: with biases the embedding dot product is
free to encode *personal* preference, so popularity-driven samplers (PNS)
and the popularity prior of BNS act on a signal the bias has partially
explained away.
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

__all__ = ["BiasedMatrixFactorization"]


class BiasedMatrixFactorization(ScoreModel):
    """BPR-MF with item bias terms, trained with plain SGD."""

    row_local_step = True

    def __init__(
        self,
        n_users: int,
        n_items: int,
        n_factors: int = 32,
        *,
        init_scale: float = 0.1,
        bias_reg_scale: float = 1.0,
        seed: SeedLike = None,
        dtype="float64",
    ) -> None:
        self.n_users = int(check_positive(n_users, "n_users"))
        self.n_items = int(check_positive(n_items, "n_items"))
        self.n_factors = int(check_positive(n_factors, "n_factors"))
        #: Multiplier on the L2 strength applied to biases (biases are
        #: often regularized more lightly than embeddings).
        self.bias_reg_scale = check_non_negative(bias_reg_scale, "bias_reg_scale")
        self.dtype = resolve_dtype(dtype)
        rng = as_rng(seed)
        self._user_factors = normal_init(
            self.n_users, self.n_factors, init_scale, rng
        ).astype(self.dtype, copy=False)
        self._item_factors = normal_init(
            self.n_items, self.n_factors, init_scale, rng
        ).astype(self.dtype, copy=False)
        self._item_bias = np.zeros(self.n_items, dtype=self.dtype)

    # ------------------------------------------------------------------ #

    def scores(self, user: int) -> np.ndarray:
        if not 0 <= user < self.n_users:
            raise IndexError(f"user {user} out of range [0, {self.n_users})")
        return (
            kernels.matvec(self._item_factors, self._user_factors[user])
            + self._item_bias
        )

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64).ravel()
        dots = kernels.pair_dot(self._user_factors[users], self._item_factors[items])
        return dots + self._item_bias[items]

    def scores_batch(self, users: np.ndarray) -> np.ndarray:
        """Score block via one embedding matmul plus the bias row."""
        users = np.asarray(users, dtype=np.int64).ravel()
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise IndexError(f"user ids out of range [0, {self.n_users})")
        return (
            kernels.gemm_nt(self._user_factors[users], self._item_factors)
            + self._item_bias
        )

    def score_items_batch(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Sparse scoring: embedding gather + einsum plus the gathered bias."""
        users, items = self._check_user_item_rows(users, items)
        dots = kernels.gather_dot(
            self._user_factors[users], self._item_factors[items]
        )
        return dots + self._item_bias[items]

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

        info = informativeness(
            self.score_pairs(users, pos_items), self.score_pairs(users, neg_items)
        )
        s = info[:, None]

        grad_u = -s * (h_i - h_j) + reg * w_u
        grad_i = -s * w_u + reg * h_i
        grad_j = s * w_u + reg * h_j
        bias_reg = reg * self.bias_reg_scale
        grad_bias_i = -info + bias_reg * self._item_bias[pos_items]
        grad_bias_j = info + bias_reg * self._item_bias[neg_items]

        rows_u, agg_u = aggregate_rows(users, grad_u)
        rows_h, agg_h = aggregate_rows(
            np.concatenate([pos_items, neg_items]), np.concatenate([grad_i, grad_j])
        )
        rows_b, agg_b = aggregate_rows(
            np.concatenate([pos_items, neg_items]),
            np.concatenate([grad_bias_i, grad_bias_j])[:, None],
        )
        optimizer.update_rows("user_factors", self._user_factors, rows_u, agg_u)
        optimizer.update_rows("item_factors", self._item_factors, rows_h, agg_h)
        # Biases live in a 1-D array; the reshape is a writable view, so
        # row updates through it land in the underlying vector.
        bias_view = self._item_bias.reshape(-1, 1)
        optimizer.update_rows("item_bias", bias_view, rows_b, agg_b)
        return info

    # ------------------------------------------------------------------ #

    @property
    def user_factors(self) -> np.ndarray:
        """The live user embedding table."""
        return self._user_factors

    @property
    def item_factors(self) -> np.ndarray:
        """The live item embedding table."""
        return self._item_factors

    @property
    def item_bias(self) -> np.ndarray:
        """The live item bias vector."""
        return self._item_bias

    def __repr__(self) -> str:
        return (
            f"BiasedMatrixFactorization(n_users={self.n_users}, "
            f"n_items={self.n_items}, n_factors={self.n_factors})"
        )
