"""Retry schedules, deterministic by construction.

The usual retry recipe — ``delay = base * mult**attempt * random()`` —
draws its jitter from process-global entropy, which would make a failing
grid's timing (and, with careless code, its *results*) depend on when it
ran.  :class:`RetryPolicy` instead derives jitter from
``(policy seed, job key, attempt)`` through a :class:`numpy.random.SeedSequence`,
so the full backoff schedule for a key is a pure function computable in
advance — ``tests/reliability/test_policy.py`` pins exact schedules.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.utils.rng import as_rng

__all__ = ["RetryPolicy", "call_with_retry"]


def _key_entropy(key: str) -> int:
    """Stable 64-bit integer from a job key (never ``hash()``: that is
    salted per process under PYTHONHASHSEED randomization)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded, deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total tries including the first; ``1`` disables retries.
    base_delay:
        Seconds before the first retry (attempt 1's backoff).
    multiplier:
        Geometric growth factor between consecutive backoffs.
    max_delay:
        Ceiling applied before jitter.
    jitter:
        Fractional spread: the delay is scaled by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]``.  ``0`` removes
        jitter entirely.
    seed:
        Root seed of the jitter stream; together with the job key and
        the attempt number it fully determines every delay.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    # ------------------------------------------------------------------ #

    def should_retry(self, failures: int) -> bool:
        """Whether a job that has failed ``failures`` times gets another try."""
        return failures < self.max_attempts

    def delay(self, key: str, attempt: int) -> float:
        """Backoff (seconds) before retry number ``attempt`` (1-based) of
        ``key``.  Pure: same (policy, key, attempt) → same float."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        rng = as_rng(
            np.random.SeedSequence([self.seed, _key_entropy(key), attempt])
        )
        factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw * factor

    def schedule(self, key: str) -> Tuple[float, ...]:
        """Every backoff the policy would sleep for ``key``, in order."""
        return tuple(
            self.delay(key, attempt)
            for attempt in range(1, self.max_attempts)
        )


def call_with_retry(
    fn: Callable[[], object],
    policy: RetryPolicy,
    *,
    key: str = "call",
    retry_on: Tuple[type, ...] = (Exception,),
    sleeper: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
):
    """Run ``fn`` under ``policy``; re-raise its last error when exhausted.

    ``on_retry(attempt, error)`` fires before each backoff sleep —
    callers use it for logging/accounting.  ``sleeper`` is injectable so
    tests (and the deterministic executors) never actually wait.
    """
    failures = 0
    while True:
        try:
            return fn()
        except retry_on as error:
            failures += 1
            if not policy.should_retry(failures):
                raise
            if on_retry is not None:
                on_retry(failures, error)
            backoff = policy.delay(key, failures)
            if backoff > 0:
                sleeper(backoff)
