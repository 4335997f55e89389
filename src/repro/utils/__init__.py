"""Shared utilities: seeded randomness, validation, logging.

Every stochastic component in :mod:`repro` draws randomness through a
:class:`numpy.random.Generator` that :func:`repro.utils.rng.as_rng` makes
from a seed (or that :func:`repro.utils.rng.spawn_rngs` derives from one),
so any experiment in this repository is exactly reproducible from a single
integer seed.
"""

from repro.utils.logging import get_logger
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "as_rng",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "get_logger",
    "spawn_rngs",
]
