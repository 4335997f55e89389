"""Online serving layer: cached, coalesced top-K ranking under load.

The "millions of users, heavy traffic" leg of the ROADMAP made concrete:
:class:`~repro.serve.service.RankingService` loads a trained model (or an
engine checkpoint), answers ``top_k(user, k)`` requests bitwise-identical
to the offline evaluator (both rank through
:func:`repro.eval.protocol.rank_unseen`), and stacks three performance
layers on the batched kernels — a per-user top-K cache with strict
invalidation, a micro-batching request coalescer, and the argpartition
partial-sort ranking kernel.  ``repro serve-bench`` and
``benchmarks/bench_serve.py`` measure sustained qps, p50/p99 latency and
cache hit-rate into ``BENCH_serve.json``.

Fault tolerance: scoring runs behind a circuit breaker, and scoring
failures degrade to popularity answers counted in
:class:`~repro.serve.service.ServeStats` and surfaced by
:meth:`~repro.serve.service.RankingService.health`.
"""

from repro.serve.bench import ServeBenchResult, run_serve_bench
from repro.serve.cache import TopKCache
from repro.serve.coalescer import CoalescerStats, RequestCoalescer
from repro.serve.service import RankingService, ServeStats, ServiceHealth

__all__ = [
    "CoalescerStats",
    "RankingService",
    "RequestCoalescer",
    "ServeBenchResult",
    "ServeStats",
    "ServiceHealth",
    "TopKCache",
    "run_serve_bench",
]
