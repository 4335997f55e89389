"""Save and load trained models.

Models are persisted as ``.npz`` archives holding the parameter arrays
plus a small metadata header.  LightGCN additionally stores the training
interaction pairs so the propagation graph can be rebuilt exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.backend import dtype_name, resolve_dtype
from repro.data.interactions import InteractionMatrix
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization

__all__ = ["save_model", "load_model"]

PathLike = Union[str, Path]

#: v2 adds ``dtype`` metadata so precision mismatches fail at load time
#: instead of silently changing serving numerics.  v1 archives (no
#: metadata) load as float64 — what v1 always was.  Archives written
#: before the compute-backend option was removed also carry a
#: ``backend`` provenance entry; loading ignores it.
_FORMAT_VERSION = 2


def _model_meta(model) -> dict:
    """The dtype provenance header written with every model."""
    return {"dtype": dtype_name(model.dtype)}


def save_model(model, path: PathLike) -> None:
    """Persist a supported model to ``path`` (``.npz``)."""
    path = Path(path)
    if isinstance(model, MatrixFactorization):
        np.savez(
            path,
            kind="mf",
            version=_FORMAT_VERSION,
            user_factors=model.user_factors,
            item_factors=model.item_factors,
            **_model_meta(model),
        )
    elif isinstance(model, BiasedMatrixFactorization):
        np.savez(
            path,
            kind="biased_mf",
            version=_FORMAT_VERSION,
            user_factors=model.user_factors,
            item_factors=model.item_factors,
            item_bias=model.item_bias,
            **_model_meta(model),
        )
    elif isinstance(model, LightGCN):
        users, items = _graph_pairs(model)
        np.savez(
            path,
            kind="lightgcn",
            version=_FORMAT_VERSION,
            base_embeddings=model.base_embeddings,
            n_users=model.n_users,
            n_items=model.n_items,
            n_layers=model.n_layers,
            graph_users=users,
            graph_items=items,
            **_model_meta(model),
        )
    else:
        raise TypeError(f"cannot persist model of type {type(model).__name__}")


def _required(archive, path: Path, key: str) -> np.ndarray:
    """The archive entry for ``key``, or a clear error naming the file."""
    if key not in archive:
        raise ValueError(
            f"{path}: malformed checkpoint — missing array {key!r}"
        )
    return archive[key]


def _check_array(
    path: Path, name: str, array: np.ndarray, *, ndim: int, dtype=np.float64
) -> np.ndarray:
    """Validate a parameter array's rank and dtype with a clear error.

    Checkpoints written by :func:`save_model` always satisfy these; a
    failure means the archive was corrupted or hand-built, and the load
    must stop *here* rather than seed a model with garbage (a wrong
    dtype would also silently change scoring numerics downstream).
    """
    if array.ndim != ndim:
        raise ValueError(
            f"{path}: {name} must be {ndim}-D, got shape {array.shape}"
        )
    if array.dtype != np.dtype(dtype):
        raise ValueError(
            f"{path}: {name} must have dtype {np.dtype(dtype).name}, "
            f"got {array.dtype.name}"
        )
    return array


def _checkpoint_dtype(archive, path: Path) -> np.dtype:
    """The archive's recorded dtype policy (v1 archives default float64)."""
    if "dtype" not in archive:
        return np.dtype(np.float64)
    recorded = str(archive["dtype"])
    try:
        return resolve_dtype(recorded)
    except ValueError:
        raise ValueError(
            f"{path}: checkpoint records unsupported dtype {recorded!r}"
        ) from None


def load_model(path: PathLike, *, dtype=None):
    """Load a model previously written by :func:`save_model`.

    Parameter arrays are validated (rank, dtype, cross-array shape
    consistency) before any model is constructed; a corrupted or
    hand-edited archive fails with an error naming the file and the
    offending array instead of surfacing later as a numerics bug.

    ``dtype`` asserts the caller's precision expectation: loading a
    float32 checkpoint into a pipeline that demands float64 (or vice
    versa) raises instead of silently warm-starting at the wrong
    precision.  ``None`` accepts whatever the checkpoint records (v1
    archives: float64).
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        kind = str(_required(archive, path, "kind"))
        version = int(_required(archive, path, "version"))
        if version > _FORMAT_VERSION:
            raise ValueError(
                f"{path}: format version {version} is newer than supported "
                f"({_FORMAT_VERSION})"
            )
        stored = _checkpoint_dtype(archive, path)
        if dtype is not None and resolve_dtype(dtype) != stored:
            raise ValueError(
                f"{path}: checkpoint holds {stored.name} parameters but "
                f"{resolve_dtype(dtype).name} was requested; retrain or "
                "load with the matching dtype policy"
            )
        if kind == "mf":
            return _load_mf(archive, path, stored)
        if kind == "biased_mf":
            return _load_biased_mf(archive, path, stored)
        if kind == "lightgcn":
            return _load_lightgcn(archive, path, stored)
    raise ValueError(f"{path}: unknown model kind {kind!r}")


def _load_factors(archive, path: Path, dtype):
    """The validated, mutually consistent MF-family factor matrices."""
    user_factors = _check_array(
        path,
        "user_factors",
        _required(archive, path, "user_factors"),
        ndim=2,
        dtype=dtype,
    )
    item_factors = _check_array(
        path,
        "item_factors",
        _required(archive, path, "item_factors"),
        ndim=2,
        dtype=dtype,
    )
    if user_factors.shape[1] != item_factors.shape[1]:
        raise ValueError(
            f"{path}: factor ranks disagree — user_factors "
            f"{user_factors.shape} vs item_factors {item_factors.shape}"
        )
    return user_factors, item_factors


def _load_mf(archive, path: Path, dtype) -> MatrixFactorization:
    user_factors, item_factors = _load_factors(archive, path, dtype)
    model = MatrixFactorization(
        user_factors.shape[0],
        item_factors.shape[0],
        user_factors.shape[1],
        seed=0,
        dtype=dtype,
    )
    model.user_factors[:] = user_factors
    model.item_factors[:] = item_factors
    return model


def _load_biased_mf(archive, path: Path, dtype) -> BiasedMatrixFactorization:
    user_factors, item_factors = _load_factors(archive, path, dtype)
    item_bias = _check_array(
        path,
        "item_bias",
        _required(archive, path, "item_bias"),
        ndim=1,
        dtype=dtype,
    )
    if item_bias.shape[0] != item_factors.shape[0]:
        raise ValueError(
            f"{path}: item_bias has {item_bias.shape[0]} entries for "
            f"{item_factors.shape[0]} items"
        )
    model = BiasedMatrixFactorization(
        user_factors.shape[0],
        item_factors.shape[0],
        user_factors.shape[1],
        seed=0,
        dtype=dtype,
    )
    model.user_factors[:] = user_factors
    model.item_factors[:] = item_factors
    model.item_bias[:] = item_bias
    return model


def _load_lightgcn(archive, path: Path, dtype) -> LightGCN:
    base_embeddings = _check_array(
        path,
        "base_embeddings",
        _required(archive, path, "base_embeddings"),
        ndim=2,
        dtype=dtype,
    )
    n_users = int(_required(archive, path, "n_users"))
    n_items = int(_required(archive, path, "n_items"))
    if base_embeddings.shape[0] != n_users + n_items:
        raise ValueError(
            f"{path}: base_embeddings has {base_embeddings.shape[0]} rows "
            f"for {n_users} users + {n_items} items"
        )
    graph_users = _check_array(
        path,
        "graph_users",
        _required(archive, path, "graph_users"),
        ndim=1,
        dtype=np.int64,
    )
    graph_items = _check_array(
        path,
        "graph_items",
        _required(archive, path, "graph_items"),
        ndim=1,
        dtype=np.int64,
    )
    interactions = InteractionMatrix(n_users, n_items, graph_users, graph_items)
    model = LightGCN(
        interactions,
        n_factors=int(base_embeddings.shape[1]),
        n_layers=int(_required(archive, path, "n_layers")),
        seed=0,
        dtype=dtype,
    )
    model.base_embeddings[:] = base_embeddings
    return model


def _graph_pairs(model: LightGCN):
    """Recover the train interaction pairs from the adjacency upper block."""
    import scipy.sparse as sp

    upper = model._adjacency[: model.n_users, model.n_users :].tocoo()
    return upper.row.astype(np.int64), upper.col.astype(np.int64)
