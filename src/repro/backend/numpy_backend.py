"""The dense numpy kernels every model, the evaluator and serving call.

Each method body is the exact expression the scoring code has always
used (``a @ b.T``, ``np.einsum("bf,bf->b", ...)``, ...), so routing a
product through :data:`repro.backend.kernels` changes no bits — float64
outputs stay pinned to ``tests/backend/golden_numpy_f64.json`` — and a
float32 policy runs the same expressions at the narrower dtype.
Keeping every dense contraction behind these named methods (R007) is
what lets a profiler attribute kernel time with one wrapper per method.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """Named numpy kernels for scoring, propagation and ranking."""

    def matvec(self, matrix, vector):
        """``matrix @ vector`` — one user's score row (gemv)."""
        return matrix @ vector

    def gemm_nt(self, a, b):
        """``a @ b.T`` — the ``(B, n_items)`` score-block gemm."""
        return a @ b.T

    def pair_dot(self, a, b):
        """Row-parallel dots ``einsum("bf,bf->b", a, b)``."""
        return np.einsum("bf,bf->b", a, b)

    def gather_dot(self, a, b):
        """Per-row gathered dots ``einsum("bf,bmf->bm", a, b)``."""
        return np.einsum("bf,bmf->bm", a, b)

    def spmm(self, sparse, dense):
        """``sparse @ dense`` — the LightGCN ``Â`` propagation step."""
        return sparse @ dense

    def topk(self, masked, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical row-wise top-``k`` ``(ids, lengths)``.

        Exactly :func:`repro.eval.topk.top_k_items_batch` (descending
        score, ascending id breaking ties, including across the cut-off),
        so served and evaluated rankings share one tie rule.
        """
        # Imported here: repro.eval imports this package at module load.
        from repro.eval.topk import top_k_items_batch

        return top_k_items_batch(masked, k)
