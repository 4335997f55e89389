"""Serving benchmark: sustained qps, p50/p99 latency, cache hit-rate.

Shared engine behind ``repro serve-bench`` (CLI) and
``benchmarks/bench_serve.py`` (the gated pytest wrapper that writes
``BENCH_serve.json``).  Three measured configurations over one request
stream:

* **uncached** — ``cache_k=0``, no coalescing: every request pays one
  ``scores_batch`` row plus a top-K extraction.  This is the per-request
  scoring baseline the cache is gated against.
* **warm cache** — the cache warmed for every user, then the stream
  served as prefix reads.  The acceptance bar: ``>= 10x`` the uncached
  requests/sec.
* **coalesced** — caching off, ``n_clients`` concurrent threads pushing
  their shares of the stream through the
  :class:`~repro.serve.coalescer.RequestCoalescer`, so misses that
  reach its queue together share one gemm (reported: qps and achieved
  batch sizes).

Latency percentiles are computed from per-request ``perf_counter``
spans.  The model is freshly initialized (not trained) — serving cost
depends on shapes, not weights — and the request stream is drawn from a
seeded generator, so the benchmark is reproducible end to end.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.data.registry import dataset_from_log, load_dataset
from repro.data.synthetic import PRESETS, LatentFactorGenerator
from repro.models.mf import MatrixFactorization
from repro.serve.service import RankingService
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive

__all__ = ["DEFAULT_DATASET", "ServeBenchResult", "run_serve_bench"]

#: Synthetic default: ml-100k scaled up the same way the eval bench does,
#: so serve and eval trajectories are measured on comparable universes.
DEFAULT_DATASET = "serve-bench"
_BENCH_SCALE = 1.35


@dataclass(frozen=True)
class ServeBenchResult:
    """One serve-bench run's measurements (all latencies in milliseconds)."""

    dataset: str
    n_users: int
    n_items: int
    n_requests: int
    k: int
    cache_k: int
    n_clients: int
    max_batch: int
    warmup_seconds: float
    uncached_qps: float
    uncached_p50_ms: float
    uncached_p99_ms: float
    warm_qps: float
    warm_p50_ms: float
    warm_p99_ms: float
    warm_hit_rate: float
    coalesced_qps: float
    coalesced_mean_batch: float
    coalesced_max_batch: int
    warm_speedup: float

    def to_payload(self) -> dict:
        """JSON-ready dict (the ``BENCH_serve.json`` schema)."""
        return {
            "dataset": self.dataset,
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_requests": self.n_requests,
            "k": self.k,
            "cache_k": self.cache_k,
            "n_clients": self.n_clients,
            "max_batch": self.max_batch,
            "warmup_seconds": round(self.warmup_seconds, 4),
            "uncached": {
                "qps": round(self.uncached_qps, 1),
                "p50_ms": round(self.uncached_p50_ms, 4),
                "p99_ms": round(self.uncached_p99_ms, 4),
            },
            "warm_cache": {
                "qps": round(self.warm_qps, 1),
                "p50_ms": round(self.warm_p50_ms, 4),
                "p99_ms": round(self.warm_p99_ms, 4),
                "hit_rate": round(self.warm_hit_rate, 4),
            },
            "coalesced": {
                "qps": round(self.coalesced_qps, 1),
                "mean_batch": round(self.coalesced_mean_batch, 2),
                "max_batch": self.coalesced_max_batch,
            },
            "warm_speedup": round(self.warm_speedup, 2),
        }

    def format(self) -> str:
        """Human-readable report for the CLI."""
        lines = [
            f"serve-bench: {self.dataset}  "
            f"({self.n_users} users x {self.n_items} items, "
            f"{self.n_requests} requests, k={self.k})",
            f"  uncached   {self.uncached_qps:>10.1f} req/s   "
            f"p50 {self.uncached_p50_ms:.3f} ms   "
            f"p99 {self.uncached_p99_ms:.3f} ms",
            f"  warm cache {self.warm_qps:>10.1f} req/s   "
            f"p50 {self.warm_p50_ms:.3f} ms   "
            f"p99 {self.warm_p99_ms:.3f} ms   "
            f"hit-rate {self.warm_hit_rate:.0%}   "
            f"(warmup {self.warmup_seconds:.2f}s, cache_k={self.cache_k})",
            f"  coalesced  {self.coalesced_qps:>10.1f} req/s   "
            f"{self.n_clients} clients   "
            f"mean batch {self.coalesced_mean_batch:.1f}   "
            f"max batch {self.coalesced_max_batch}",
            f"  warm-vs-uncached speedup: {self.warm_speedup:.1f}x",
        ]
        return "\n".join(lines)


def _bench_dataset(name: str, seed: SeedLike):
    if name != DEFAULT_DATASET:
        return load_dataset(name, seed=seed)
    preset = PRESETS["ml-100k"].scaled(_BENCH_SCALE, suffix="-serve-bench")
    log = LatentFactorGenerator(preset, seed=seed).generate()
    return dataset_from_log(log, seed=seed)


def _timed_requests(service: RankingService, users: np.ndarray, k: int):
    """Serve the stream sequentially; returns (elapsed_s, latencies_ms)."""
    latencies = np.empty(users.size, dtype=np.float64)
    started = time.perf_counter()
    for position, user in enumerate(users.tolist()):
        t0 = time.perf_counter()
        service.top_k(user, k)
        latencies[position] = time.perf_counter() - t0
    return time.perf_counter() - started, latencies * 1e3


def _concurrent_requests(
    service: RankingService, users: np.ndarray, k: int, n_clients: int
) -> float:
    """Serve the stream from ``n_clients`` threads; returns elapsed seconds."""
    shares = np.array_split(users, n_clients)
    barrier = threading.Barrier(n_clients + 1)
    errors: list = []

    def client(share: np.ndarray) -> None:
        barrier.wait()
        try:
            for user in share.tolist():
                service.top_k(user, k)
        except BaseException as error:  # noqa: BLE001 - surfaced to the caller
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(share,), daemon=True)
        for share in shares
        if share.size
    ]
    for thread in threads:
        thread.start()
    # The barrier expects every started thread plus this one; account for
    # empty shares that spawned no thread.
    for _ in range(n_clients - len(threads)):
        barrier.wait(timeout=10)
    barrier.wait(timeout=10)
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed


def run_serve_bench(
    dataset: str = DEFAULT_DATASET,
    *,
    n_requests: int = 4000,
    k: int = 10,
    cache_k: int = 100,
    n_clients: int = 8,
    max_batch: int = 64,
    n_factors: int = 32,
    seed: int = 0,
) -> ServeBenchResult:
    """Measure the three serving configurations on one request stream.

    The (slow) per-request baseline phase measures the first
    ``min(n_requests, 1000)`` requests and scales qps from that sample.
    """
    check_positive(n_requests, "n_requests")
    check_positive(n_clients, "n_clients")
    data = _bench_dataset(dataset, seed)
    train = data.train
    model = MatrixFactorization(
        data.n_users, data.n_items, n_factors=n_factors, seed=seed
    )
    rng = as_rng(seed + 1)
    stream = rng.integers(0, data.n_users, size=int(n_requests))

    # -- uncached per-request baseline --------------------------------- #
    baseline_n = min(int(n_requests), 1000)
    uncached = RankingService(model, train, cache_k=0, coalesce=False)
    uncached.top_k(int(stream[0]), k)  # warm BLAS/caches outside the timing
    uncached_elapsed, uncached_lat = _timed_requests(
        uncached, stream[:baseline_n], k
    )
    uncached_qps = baseline_n / uncached_elapsed

    # -- warm cache ----------------------------------------------------- #
    warm = RankingService(model, train, cache_k=cache_k, coalesce=False)
    warm_start = time.perf_counter()
    warm.warmup()
    warmup_seconds = time.perf_counter() - warm_start
    warm_elapsed, warm_lat = _timed_requests(warm, stream, k)
    warm_qps = stream.size / warm_elapsed

    # -- coalesced concurrent misses ------------------------------------ #
    coalesced = RankingService(
        model, train, cache_k=0, coalesce=True, max_batch=max_batch
    )
    coalesced_elapsed = _concurrent_requests(coalesced, stream, k, n_clients)
    co_stats = coalesced.coalescer_stats

    return ServeBenchResult(
        dataset=data.name,
        n_users=data.n_users,
        n_items=data.n_items,
        n_requests=int(n_requests),
        k=int(k),
        cache_k=int(cache_k),
        n_clients=int(n_clients),
        max_batch=int(max_batch),
        warmup_seconds=warmup_seconds,
        uncached_qps=uncached_qps,
        uncached_p50_ms=float(np.percentile(uncached_lat, 50)),
        uncached_p99_ms=float(np.percentile(uncached_lat, 99)),
        warm_qps=warm_qps,
        warm_p50_ms=float(np.percentile(warm_lat, 50)),
        warm_p99_ms=float(np.percentile(warm_lat, 99)),
        warm_hit_rate=warm.stats.hit_rate,
        coalesced_qps=stream.size / coalesced_elapsed,
        coalesced_mean_batch=co_stats.mean_batch_size,
        coalesced_max_batch=co_stats.max_batch_size,
        warm_speedup=warm_qps / uncached_qps,
    )
