"""Output checks.  Each returns a list of problems; empty means the output is right."""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.eval.topk import top_k_items_batch

__all__ = [
    "cell_record",
    "check_cell_metrics",
    "check_same_cells",
    "check_served_lists",
    "reference_lists",
]


def check_cell_metrics(cells: Mapping[str, Mapping[str, float]]) -> List[str]:
    """Every cell metric is a finite number in ``[0, 1]``."""
    problems = []
    for cell, metrics in cells.items():
        if not metrics:
            problems.append(f"{cell}: no metrics recorded")
        for name, value in metrics.items():
            if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{cell}: {name}={value!r} is not a finite value in [0, 1]")
    return problems


def check_same_cells(
    expected: Mapping[str, dict], actual: Mapping[str, dict], what: str
) -> List[str]:
    """Two runs' cells are bitwise equal (metrics and loss curves).

    Floats are compared by their exact ``repr``-level value: a change in
    the last bit is a mismatch.
    """
    problems = []
    if sorted(expected) != sorted(actual):
        return [f"{what}: cells differ: {sorted(expected)} vs {sorted(actual)}"]
    for cell in sorted(expected):
        for part in ("metrics", "loss_curve"):
            left, right = expected[cell].get(part), actual[cell].get(part)
            if left != right:
                problems.append(f"{what}: {cell} {part} differs: {left!r} vs {right!r}")
    return problems


def reference_lists(model, train, users: np.ndarray, k: int) -> List[np.ndarray]:
    """The evaluator's pipeline: scores_batch -> mask train positives -> top-K."""
    block = np.array(model.scores_batch(users), copy=True)
    rows, cols = train.positives_in_rows(users)
    block[rows, cols] = -np.inf
    ids, lengths = top_k_items_batch(block, k)
    return [ids[row, : lengths[row]] for row in range(users.size)]


def check_served_lists(
    service,
    users: Sequence[int],
    k: int,
    top_k: Optional[Callable[[int, int], np.ndarray]] = None,
) -> List[str]:
    """``top_k`` answers equal the evaluator pipeline on the service's
    current interactions (``service.top_k`` unless another callable is
    given)."""
    serve = service.top_k if top_k is None else top_k
    users = np.asarray(users, dtype=np.int64)
    expected = reference_lists(service.model, service.train, users, k)
    problems = []
    for user, want in zip(users.tolist(), expected):
        got = np.asarray(serve(user, k))
        if got.shape != want.shape or not np.array_equal(got, want):
            problems.append(
                f"user {user}: served {got[:k].tolist()} != evaluator {want.tolist()}"
            )
    return problems


def cell_record(metrics: Dict[str, float], loss_curve: Sequence[float]) -> dict:
    """The comparable part of one trained cell."""
    return {
        "metrics": {name: float(value) for name, value in sorted(metrics.items())},
        "loss_curve": [float(value) for value in loss_curve],
    }
