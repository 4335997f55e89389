"""Seeded random-number-generator plumbing.

The rule followed throughout this code base is: *no module-level or implicit
global randomness*.  Every class or function that needs randomness accepts
either an integer seed or a ready :class:`numpy.random.Generator`, converted
at the boundary with :func:`as_rng`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = ["SeedLike", "as_rng", "spawn_rngs"]


def as_rng(seed: SeedLike) -> np.random.Generator:
    """Coerce a seed-like value into a :class:`numpy.random.Generator`.

    Accepts ``None`` (OS entropy), an ``int`` seed, a ``SeedSequence``, or an
    existing ``Generator`` (returned unchanged so state is shared with the
    caller — intentional, as it lets a trainer thread one generator through
    its sampler and initializer).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"expected None, int, SeedSequence or Generator, got {type(seed).__name__}"
    )


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from one seed.

    Used when an experiment needs independent randomness streams (e.g. one
    per repetition of a sweep) that must not interact, yet the whole sweep
    must be reproducible from a single seed.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Spawn through the generator's bit generator seed sequence.
        seq = seed.bit_generator.seed_seq
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]
