"""Shared utilities: seeded randomness, validation, logging.

Every stochastic component in :mod:`repro` draws randomness through a
:class:`numpy.random.Generator` created by :func:`repro.utils.rng.make_rng`
(or spawned from one), so any experiment in this repository is exactly
reproducible from a single integer seed.
"""

from repro.utils.logging import get_logger
from repro.utils.rng import RngMixin, as_rng, make_rng, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "RngMixin",
    "as_rng",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
    "get_logger",
    "make_rng",
    "spawn_rngs",
]
