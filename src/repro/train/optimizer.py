"""Gradient-descent optimizers over embedding tables.

Both optimizers support *sparse row updates*: a BPR step on a batch of
triples only touches the embedding rows of the users and items in the
batch, so updating the full table would waste ``O(n_users + n_items)`` work
per step.  Adam keeps full-size first/second moment arrays but, like
PyTorch's sparse Adam, only advances the state of the touched rows.

Convention: gradients passed in are *descent* gradients — the optimizer
always applies ``param -= lr * <step>``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Tuple

import numpy as np

from repro.utils.validation import check_in_range, check_non_negative, check_positive

__all__ = ["Optimizer", "SGD", "Adam", "aggregate_rows"]


def aggregate_rows(rows: np.ndarray, grads: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum gradient rows that address the same parameter row.

    A batch may contain the same user (or item) several times; applying the
    per-occurrence gradients independently would make the result depend on
    application order.  This collapses ``(rows, grads)`` into
    ``(unique_rows, summed_grads)``.

    Distinct rows — one triple's user row and item pair (the paper's
    ``batch_size=1`` step), or a conflict-free run of triples — need no
    summing: adding each to a zero row is ``grads + 0.0`` bit for bit
    (``-0.0`` becomes ``+0.0`` either way), so they return sorted without
    ``np.unique``/``np.add.at``.  One and two rows are checked by hand,
    which is cheapest; more rows by one argsort.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape[0] != rows.size:
        raise ValueError(
            f"rows ({rows.size}) and grads ({grads.shape[0]}) must be parallel"
        )
    if rows.size == 1:
        return rows, grads + 0.0
    if rows.size == 2:
        first, second = rows.tolist()
        if first < second:
            return rows, grads + 0.0
        if first > second:
            return rows[::-1], grads[::-1] + 0.0
    else:
        order = np.argsort(rows)
        ordered = rows[order]
        if not (ordered[1:] == ordered[:-1]).any():
            return ordered, grads[order] + 0.0
    unique, inverse = np.unique(rows, return_inverse=True)
    summed = np.zeros((unique.size, grads.shape[1]), dtype=np.float64)
    np.add.at(summed, inverse, grads)
    return unique, summed


class Optimizer(ABC):
    """Interface: per-row sparse updates plus whole-array dense updates."""

    def __init__(self, lr: float) -> None:
        self._lr = check_positive(lr, "lr")

    @property
    def lr(self) -> float:
        """Current learning rate (schedules mutate it between epochs)."""
        return self._lr

    @lr.setter
    def lr(self, value: float) -> None:
        self._lr = check_positive(value, "lr")

    @abstractmethod
    def update_rows(
        self, name: str, param: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> None:
        """Apply a descent step to ``param[rows]`` (rows must be unique)."""

    @abstractmethod
    def update_dense(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Apply a descent step to the full parameter array."""


class SGD(Optimizer):
    """Plain stochastic gradient descent — the paper's MF optimizer."""

    def update_rows(
        self, name: str, param: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> None:
        param[rows] -= self._lr * grads

    def update_dense(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        param -= self._lr * grad


class Adam(Optimizer):
    """Adam with lazily-allocated per-parameter state and sparse row steps.

    Sparse semantics follow PyTorch's ``SparseAdam``: moments and the step
    counter advance only for rows that receive gradient, which is the
    standard choice for embedding tables where most rows are untouched in
    any given step.
    """

    def __init__(
        self,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(lr)
        self.beta1 = check_in_range(beta1, 0.0, 1.0, "beta1", inclusive=False)
        self.beta2 = check_in_range(beta2, 0.0, 1.0, "beta2", inclusive=False)
        self.eps = check_positive(eps, "eps")
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._steps: Dict[str, np.ndarray] = {}

    def _state(self, name: str, param: np.ndarray):
        if name not in self._m:
            self._m[name] = np.zeros_like(param, dtype=np.float64)
            self._v[name] = np.zeros_like(param, dtype=np.float64)
            self._steps[name] = np.zeros(param.shape[0], dtype=np.int64)
        elif self._m[name].shape != param.shape:
            raise ValueError(
                f"parameter {name!r} changed shape: state {self._m[name].shape} "
                f"vs param {param.shape}"
            )
        return self._m[name], self._v[name], self._steps[name]

    def update_rows(
        self, name: str, param: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> None:
        m, v, steps = self._state(name, param)
        steps[rows] += 1
        t = steps[rows][:, None].astype(np.float64)
        m[rows] = self.beta1 * m[rows] + (1.0 - self.beta1) * grads
        v[rows] = self.beta2 * v[rows] + (1.0 - self.beta2) * grads**2
        m_hat = m[rows] / (1.0 - self.beta1**t)
        v_hat = v[rows] / (1.0 - self.beta2**t)
        param[rows] -= self._lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def update_dense(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        m, v, steps = self._state(name, param)
        steps += 1
        t = steps[:, None].astype(np.float64) if param.ndim > 1 else steps.astype(
            np.float64
        )
        m[:] = self.beta1 * m + (1.0 - self.beta1) * grad
        v[:] = self.beta2 * v + (1.0 - self.beta2) * grad**2
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= self._lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset(self) -> None:
        """Drop all moment state (used between sweep repetitions)."""
        self._m.clear()
        self._v.clear()
        self._steps.clear()
