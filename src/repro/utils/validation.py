"""Small argument-validation helpers used across the library.

These exist so constructors fail fast with a precise message instead of
producing NaNs deep inside a training loop.  They all return the validated
value so they can be used inline::

    self.weight = check_positive(weight, "weight")
"""

from __future__ import annotations

import math
from typing import Any, Union

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
]

Number = Union[int, float, np.integer, np.floating]


def _check_real(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:  # an int past the float range, e.g. 10**400
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


def check_positive(value: Number, name: str) -> float:
    """Raise unless ``value`` is a finite number strictly greater than zero."""
    out = _check_real(value, name)
    if out <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return out


def check_non_negative(value: Number, name: str) -> float:
    """Raise unless ``value`` is a finite number greater than or equal to zero."""
    out = _check_real(value, name)
    if out < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return out


def check_probability(value: Number, name: str) -> float:
    """Raise unless ``value`` lies in the closed interval [0, 1]."""
    out = _check_real(value, name)
    if not 0.0 <= out <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return out


def check_in_range(
    value: Number,
    low: float,
    high: float,
    name: str,
    *,
    inclusive: bool = True,
) -> float:
    """Raise unless ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    out = _check_real(value, name)
    if inclusive:
        ok = low <= out <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < out < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return out
