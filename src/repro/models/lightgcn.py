"""LightGCN with an exact manual backward pass.

LightGCN (He et al., SIGIR 2020) stacks linear propagations of base
embeddings ``E⁰ = [W; H]`` over the normalized bipartite adjacency ``Â``:

    Eᵏ = Â Eᵏ⁻¹,     Ê = (1 / (L+1)) Σ_{k=0..L} Eᵏ = P E⁰,

with ``P = (1/(L+1)) Σ Âᵏ``.  Scores are dot products of propagated rows:
:attr:`LightGCN.user_factors` and :attr:`LightGCN.item_factors` are the two
blocks of ``Ê``, which the scoring methods inherited from
:class:`~repro.models.base.ScoreModel` read.

Because the propagation is *linear* and ``Â`` is symmetric, the exact
gradient w.r.t. the base embeddings of any loss with known gradient ``G``
w.r.t. ``Ê`` is simply ``P G`` — no autodiff framework required.  That is
what :meth:`LightGCN.train_step` computes: it scatters the BPR score
gradients into a ``(M+N) × d`` buffer and pushes it back through ``P``.

Following the reference implementation, L2 regularization is applied to the
*base* embeddings of the triple's users/items (not the propagated ones).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.backend import kernels, resolve_dtype
from repro.data.interactions import InteractionMatrix
from repro.models.base import ScoreModel
from repro.models.graph import normalized_adjacency_cached
from repro.models.init import xavier_init
from repro.train.loss import informativeness
from repro.train.optimizer import Optimizer
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["LightGCN"]


class LightGCN(ScoreModel):
    """Linear graph-convolutional CF model.

    Parameters
    ----------
    interactions:
        Training interactions; defines the propagation graph (test edges
        must never enter it).
    n_factors:
        Embedding dimensionality (paper: 32).
    n_layers:
        Number of propagation layers ``L`` (paper: 1).
    seed:
        Initialization randomness.
    dtype:
        Parameter dtype policy (see :func:`repro.backend.resolve_dtype`).
        The normalized adjacency is cast once to ``dtype`` so the whole
        propagation runs at the policy precision.
    """

    def __init__(
        self,
        interactions: InteractionMatrix,
        n_factors: int = 32,
        n_layers: int = 1,
        *,
        seed: SeedLike = None,
        dtype="float64",
    ) -> None:
        self.n_users = interactions.n_users
        self.n_items = interactions.n_items
        self.n_factors = int(check_positive(n_factors, "n_factors"))
        self.n_layers = int(check_positive(n_layers, "n_layers"))
        self.dtype = resolve_dtype(dtype)
        adjacency = normalized_adjacency_cached(interactions)
        if adjacency.dtype != self.dtype:
            adjacency = adjacency.astype(self.dtype)
        self._adjacency: sp.csr_matrix = adjacency
        rng = as_rng(seed)
        self._base = xavier_init(
            self.n_users + self.n_items, self.n_factors, rng
        ).astype(self.dtype, copy=False)
        self._propagated = None

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #

    def propagate(self) -> np.ndarray:
        """Layer-averaged embeddings ``Ê = P E⁰`` (cached until a step)."""
        if self._propagated is None:
            self._propagated = self._apply_propagation(self._base)
        return self._propagated

    def _apply_propagation(self, matrix: np.ndarray) -> np.ndarray:
        """Apply ``P = (1/(L+1)) Σ_k Âᵏ``: the forward propagation and,
        since ``P`` is symmetric, the exact backward of :meth:`train_step`."""
        accumulated = matrix.copy()
        current = matrix
        for _ in range(self.n_layers):
            current = kernels.spmm(self._adjacency, current)
            accumulated += current
        return accumulated / (self.n_layers + 1)

    def invalidate_cache(self) -> None:
        """Force re-propagation (call after mutating base embeddings)."""
        self._propagated = None

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
        propagated = self.propagate()
        user_rows = users
        pos_rows = self.n_users + pos_items
        neg_rows = self.n_users + neg_items
        e_u = propagated[user_rows]
        e_i = propagated[pos_rows]
        e_j = propagated[neg_rows]

        info = informativeness(kernels.pair_dot(e_u, e_i), kernels.pair_dot(e_u, e_j))
        s = info[:, None]

        # Gradient of the minimized loss w.r.t. propagated embeddings.
        grad_propagated = np.zeros_like(self._base)
        np.add.at(grad_propagated, user_rows, -s * (e_i - e_j))
        np.add.at(grad_propagated, pos_rows, -s * e_u)
        np.add.at(grad_propagated, neg_rows, s * e_u)

        # Exact backward through the symmetric linear operator: Pᵀ = P.
        grad_base = self._apply_propagation(grad_propagated)

        # L2 on the base embeddings of the touched rows (reference impl).
        if reg > 0.0:
            touched = np.concatenate([user_rows, pos_rows, neg_rows])
            np.add.at(grad_base, touched, reg * self._base[touched])

        optimizer.update_dense("lightgcn_base", self._base, grad_base)
        self.invalidate_cache()
        return info

    # ------------------------------------------------------------------ #
    # The tables the inherited scoring methods read
    # ------------------------------------------------------------------ #

    @property
    def user_factors(self) -> np.ndarray:
        """Propagated user representations (what scoring actually uses)."""
        return self.propagate()[: self.n_users]

    @property
    def item_factors(self) -> np.ndarray:
        """Propagated item representations."""
        return self.propagate()[self.n_users :]

    @property
    def base_embeddings(self) -> np.ndarray:
        """The trainable ``E⁰`` table (users stacked above items)."""
        return self._base

    def __repr__(self) -> str:
        return (
            f"LightGCN(n_users={self.n_users}, n_items={self.n_items}, "
            f"n_factors={self.n_factors}, n_layers={self.n_layers})"
        )
