"""Reliability-layer benchmark: retry-wrapper overhead + pool recovery.

Two costs of the fault-tolerance layer are tracked into
``BENCH_reliability.json`` at the repo root:

* **Warm-path overhead** — the cost of the executor's fault-tolerance
  bookkeeping (fault-plan check, retry state, quarantine decision) when
  nothing fails, the common case.  A plain loop over
  :func:`execute_request` and a :class:`SequentialExecutor` with a
  three-attempt :class:`RetryPolicy` run the same grid, timed
  interleaved in rounds; the median over rounds of the executor's time
  over the loop's must stay within
  ``REPRO_RELIABILITY_BENCH_MAX_OVERHEAD_PCT`` (default 5%), and both
  must produce bitwise-identical payloads.  The ratio of the two
  best-of-N times is recorded beside it.

* **Pool recovery** — wall-clock cost of healing a
  :class:`ProcessPoolRunExecutor` whose workers are killed mid-grid by
  an injected crash plan: the chaos run is timed against a fault-free
  pool run of the same grid, and the rebuild count is recorded.  The
  recovery path is correctness-gated (bitwise-equal results, >= 1
  rebuild) but not time-gated — rebuild cost is dominated by process
  spawn, which shared runners cannot bound usefully.  The rebuilt pool's
  workers get the grid's datasets from the same initializer as the
  first pool's.

Environment knobs (for CI smoke runs on shared, noisy runners):

* ``REPRO_RELIABILITY_BENCH_EPOCHS`` — training epochs per job
  (default 8).
* ``REPRO_RELIABILITY_BENCH_SEEDS`` — seeds per sampler (default 2).
* ``REPRO_RELIABILITY_BENCH_REPEATS`` — timed rounds, one run of each
  variant per round (default 41).  Many short rounds keep the median
  steady: a slow stretch of the host that spans a whole round moves
  both of its legs alike.
* ``REPRO_RELIABILITY_BENCH_MAX_OVERHEAD_PCT`` — warm-path gate,
  default ``5.0``.
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.experiments.config import RunSpec
from repro.experiments.engine import (
    EngineRequest,
    ProcessPoolRunExecutor,
    SequentialExecutor,
    execute_request,
)
from repro.experiments.engine.jobs import JobGraph
from repro.reliability import FaultPlan, FaultSpec, RetryPolicy

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_reliability.json"

EPOCHS = int(os.environ.get("REPRO_RELIABILITY_BENCH_EPOCHS", "8"))
SEEDS = tuple(range(int(os.environ.get("REPRO_RELIABILITY_BENCH_SEEDS", "2"))))
REPEATS = int(os.environ.get("REPRO_RELIABILITY_BENCH_REPEATS", "41"))


def _jobs():
    graph = JobGraph()
    for sampler in ("rns", "bns"):
        for seed in SEEDS:
            graph.add(
                EngineRequest(
                    RunSpec(
                        dataset="tiny",
                        sampler=sampler,
                        epochs=EPOCHS,
                        batch_size=16,
                        seed=seed,
                    )
                )
            )
    return graph.jobs()


def _no_sleep(_seconds):
    return None


def _timed(run):
    start = time.perf_counter()
    results = run()
    return time.perf_counter() - start, results


def test_retry_wrapper_overhead_and_pool_recovery():
    """Record the reliability benchmark and gate the warm-path overhead."""
    jobs = _jobs()
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)
    legs = {
        "bare": lambda: {job.key: execute_request(job.request) for job in jobs},
        "wrapped": lambda: dict(
            SequentialExecutor(retry_policy=policy).run(jobs)
        ),
    }

    # One warm-up round, then rounds that run both legs back to back
    # (their order alternating), so load drift hits both alike.  The
    # gate reads the median of the per-round ratios: a slow stretch
    # moves both legs of its round, where it can move one best-of-N.
    results = {name: run() for name, run in legs.items()}
    times = {name: [] for name in legs}
    for repeat in range(REPEATS):
        order = list(legs) if repeat % 2 == 0 else list(reversed(legs))
        for name in order:
            elapsed, results[name] = _timed(legs[name])
            times[name].append(elapsed)
    bare_s, wrapped_s = min(times["bare"]), min(times["wrapped"])
    bare = results["bare"]
    assert results["wrapped"] == bare, (
        "retry wrapper changed payloads on the warm path"
    )
    paired = statistics.median(
        w / b for w, b in zip(times["wrapped"], times["bare"])
    )
    overhead_pct = (paired - 1.0) * 100.0
    best_of_n_pct = (wrapped_s / bare_s - 1.0) * 100.0

    # Pool recovery: one injected worker crash per grid, timed against a
    # fault-free run through the same 2-worker pool.
    plan = FaultPlan(
        [FaultSpec(site="executor.job", key=jobs[0].key, action="crash")]
    )
    clean = ProcessPoolRunExecutor(2, retry_policy=policy, sleeper=_no_sleep)
    clean_pool_s, pool_results = _timed(lambda: dict(clean.run(jobs)))
    chaos = ProcessPoolRunExecutor(
        2, retry_policy=policy, fault_plan=plan, sleeper=_no_sleep
    )
    chaos_s, chaos_results = _timed(lambda: dict(chaos.run(jobs)))
    assert chaos_results == bare, "chaos run diverged from the baseline"
    assert pool_results == bare
    assert chaos.pool_rebuilds >= 1

    payload = {
        "grid_jobs": len(jobs),
        "epochs": EPOCHS,
        "repeats": REPEATS,
        "sequential_bare_seconds": bare_s,
        "sequential_retry_wrapped_seconds": wrapped_s,
        "warm_path_overhead_pct": overhead_pct,
        "best_of_n_overhead_pct": best_of_n_pct,
        "pool_clean_seconds": clean_pool_s,
        "pool_chaos_seconds": chaos_s,
        "pool_recovery_seconds": max(0.0, chaos_s - clean_pool_s),
        "pool_rebuilds": chaos.pool_rebuilds,
        "retry_counts": dict(chaos.retry_counts),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[saved to {BENCH_JSON}]")
    print(
        f"warm path: paired median {overhead_pct:+.2f}%, best-of-{REPEATS} "
        f"bare {bare_s:.3f}s vs wrapped {wrapped_s:.3f}s "
        f"({best_of_n_pct:+.2f}%); pool recovery "
        f"{payload['pool_recovery_seconds']:.3f}s over "
        f"{chaos.pool_rebuilds} rebuild(s)"
    )

    # Acceptance bar is <= 5% on a quiet machine; shared CI runners see
    # scheduler noise on sub-second timings, so they gate at a tolerant
    # ceiling via REPRO_RELIABILITY_BENCH_MAX_OVERHEAD_PCT instead of
    # turning timing jitter into red builds for unrelated changes.
    ceiling = float(
        os.environ.get("REPRO_RELIABILITY_BENCH_MAX_OVERHEAD_PCT", "5.0")
    )
    assert overhead_pct <= ceiling, (
        f"retry wrapper warm-path overhead must be <= {ceiling:.1f}%, got "
        f"{overhead_pct:.2f}% (see {BENCH_JSON})"
    )
