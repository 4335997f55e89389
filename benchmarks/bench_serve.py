"""Serving-layer benchmark: qps, p50/p99 latency, cache hit-rate.

Runs :func:`repro.serve.bench.run_serve_bench` — the same engine behind
``repro serve-bench`` — and lands the measurements in
``BENCH_serve.json`` at the repo root so the serving perf trajectory is
tracked across PRs.

The acceptance bar for the serving tentpole: the warm-cache path must
sustain >= 10x the requests/sec of uncached per-request scoring on the
default (~1.3k users x ~2.3k items) bench universe.

Run it with one BLAS thread, as CI does and as ``perfbench/run.py``
pins, so the coalesced leg's client threads do not contend with a BLAS
pool::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python -m pytest -q -s \
        benchmarks/bench_serve.py::test_warm_cache_vs_uncached_serving

Environment knobs (for CI smoke runs on shared, noisy runners):

* ``REPRO_SERVE_BENCH_DATASET`` — a registry dataset name (e.g.
  ``tiny``) instead of the default synthetic serve-bench universe.
* ``REPRO_SERVE_BENCH_REQUESTS`` — request-stream length (default 4000).
* ``REPRO_SERVE_BENCH_CLIENTS`` — client threads in the coalescing
  phase (default 8).
* ``REPRO_SERVE_BENCH_MIN_SPEEDUP`` — warm-vs-uncached gate, default
  ``10.0``.
"""

import json
import os
from pathlib import Path

from repro.serve.bench import DEFAULT_DATASET, run_serve_bench

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def test_warm_cache_vs_uncached_serving():
    """Record the serving benchmark and gate the warm-cache speedup."""
    dataset = os.environ.get("REPRO_SERVE_BENCH_DATASET", DEFAULT_DATASET)
    result = run_serve_bench(
        dataset,
        n_requests=int(os.environ.get("REPRO_SERVE_BENCH_REQUESTS", "4000")),
        n_clients=int(os.environ.get("REPRO_SERVE_BENCH_CLIENTS", "8")),
    )

    BENCH_JSON.write_text(json.dumps(result.to_payload(), indent=2) + "\n")
    print(f"\n[saved to {BENCH_JSON}]")
    print(result.format())

    # Every request must have been answered, and the warm phase must
    # have actually exercised the cache, or the speedup means nothing.
    assert result.warm_hit_rate == 1.0, (
        f"warm phase expected pure cache hits, got {result.warm_hit_rate:.2%}"
    )
    assert result.coalesced_mean_batch >= 1.0

    # Acceptance bar is 10x on a quiet machine; shared CI runners see
    # BLAS thread contention and CPU steal, so they gate at a
    # noise-tolerant floor via REPRO_SERVE_BENCH_MIN_SPEEDUP instead of
    # turning perf jitter into red builds for unrelated changes.
    floor = float(os.environ.get("REPRO_SERVE_BENCH_MIN_SPEEDUP", "10.0"))
    assert result.warm_speedup >= floor, (
        f"warm-cache serving must be >= {floor}x uncached per-request "
        f"scoring, got {result.warm_speedup:.2f}x (see {BENCH_JSON})"
    )
