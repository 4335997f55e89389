"""Fault-tolerant execution primitives with a determinism contract.

Partial failure is the common case once grids leave one process: a pool
worker segfaults, a network mount times out a commit, a scoring gemm
dies under a bad checkpoint.  This package gives the engine and the
serving layer one shared vocabulary for surviving those events **without
giving up bitwise reproducibility** — the property the rest of the
repository is built around:

* :class:`~repro.reliability.policy.RetryPolicy` — bounded retries with
  exponential backoff whose jitter is *seeded and deterministic* (a pure
  function of ``(seed, key, attempt)`` through the ``repro.utils.rng``
  seam).  Two runs of the same failing grid sleep the same schedule;
  wallclock never enters a run-key'd decision.
* :class:`~repro.reliability.breaker.CircuitBreaker` — consecutive-
  failure trip wire with half-open probing, used by the serving layer to
  stop hammering a failing scorer.
* :class:`~repro.reliability.faults.FaultInjector` — declarative fault
  plans (crash this worker, raise IOError on that commit, corrupt those
  staged bytes, delay this call) keyed by job ``run_key`` / request id,
  so every failure path above is testable on demand rather than waiting
  for production to exercise it.
* :class:`~repro.reliability.report.RunReport` — per-key
  succeeded/retried/quarantined accounting the engine surfaces instead
  of dying on the first exception.

The acceptance bar (pinned by ``tests/reliability/test_chaos.py``): a
grid that loses workers and suffers injected store faults mid-flight
must still produce payloads bitwise-identical to a fault-free sequential
run.  Recovery must change *when* results arrive, never *what* they are.
"""

from repro.reliability.breaker import CircuitBreaker, CircuitOpenError
from repro.reliability.faults import (
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.reliability.policy import RetryPolicy, call_with_retry
from repro.reliability.report import GridExecutionError, JobFailure, RunReport

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GridExecutionError",
    "JobFailure",
    "RetryPolicy",
    "RunReport",
    "call_with_retry",
]
