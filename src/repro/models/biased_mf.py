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

Everything but the bias is :class:`~repro.models.mf.MatrixFactorization`:
the factor tables, their init and Eq. 2's factor step; scoring adds the
bias through :attr:`~repro.models.base.ScoreModel.item_bias`.
"""

from __future__ import annotations

import numpy as np

from repro.models.mf import MatrixFactorization
from repro.train.optimizer import Optimizer, aggregate_rows
from repro.utils.rng import SeedLike
from repro.utils.validation import check_non_negative

__all__ = ["BiasedMatrixFactorization"]


class BiasedMatrixFactorization(MatrixFactorization):
    """BPR-MF with item bias terms, trained with plain SGD."""

    def __init__(
        self,
        n_users: int,
        n_items: int,
        n_factors: int = 32,
        *,
        bias_reg_scale: float = 1.0,
        seed: SeedLike = None,
        dtype="float64",
    ) -> None:
        #: Multiplier on the L2 strength applied to biases (biases are
        #: often regularized more lightly than embeddings).
        self.bias_reg_scale = check_non_negative(bias_reg_scale, "bias_reg_scale")
        super().__init__(n_users, n_items, n_factors, seed=seed, dtype=dtype)
        #: The live item bias vector (mutated by training).
        self.item_bias = np.zeros(self.n_items, dtype=self.dtype)

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
        info = self._factor_step(users, pos_items, neg_items, optimizer, reg)

        bias_reg = reg * self.bias_reg_scale
        grad_bias_i = -info + bias_reg * self.item_bias[pos_items]
        grad_bias_j = info + bias_reg * self.item_bias[neg_items]
        rows_b, agg_b = aggregate_rows(
            np.concatenate([pos_items, neg_items]),
            np.concatenate([grad_bias_i, grad_bias_j])[:, None],
        )
        # Biases live in a 1-D array; the reshape is a writable view, so
        # row updates through it land in the underlying vector.
        bias_view = self.item_bias.reshape(-1, 1)
        optimizer.update_rows("item_bias", bias_view, rows_b, agg_b)
        return info
