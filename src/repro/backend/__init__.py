"""The dense numpy kernels and the float64/float32 dtype policy.

Public surface::

    from repro.backend import kernels, resolve_dtype
    dtype = resolve_dtype("float32")        # policy: float64 exact / float32 fast
    model = MatrixFactorization(..., dtype=dtype)
    block = kernels.gemm_nt(user_rows, item_table)

:data:`kernels` is the one :class:`NumpyBackend` instance that the
models, the evaluator and :class:`~repro.serve.service.RankingService`
call.  Models create their parameter tables at the policy dtype and
every kernel preserves it; float32 runs are statistically — not
bitwise — equivalent to float64 (see README "Precision & pool
datasets").
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.backend.numpy_backend import NumpyBackend

__all__ = [
    "DTYPE_NAMES",
    "NumpyBackend",
    "dtype_name",
    "kernels",
    "resolve_dtype",
]

#: Accepted dtype-policy names, canonical order (default first).
DTYPE_NAMES: Tuple[str, ...] = ("float64", "float32")

DTypeLike = Union[str, np.dtype, type]

#: The kernel instance every caller shares.
kernels = NumpyBackend()


def resolve_dtype(dtype: DTypeLike) -> np.dtype:
    """Canonicalize a dtype-policy value to ``np.float64``/``np.float32``.

    Accepts the policy names (:data:`DTYPE_NAMES`) or equivalent NumPy
    dtypes; anything else is rejected — the policy is deliberately a
    two-point switch (exact vs. fast), not a general dtype plumbing.
    """
    resolved = np.dtype("float64" if dtype is None else dtype)
    if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(
            f"unsupported dtype policy {dtype!r}; use one of {DTYPE_NAMES}"
        )
    return resolved


def dtype_name(dtype: DTypeLike) -> str:
    """The policy name ("float64"/"float32") of a resolved dtype."""
    return resolve_dtype(dtype).name
