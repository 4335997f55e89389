"""Micro-benchmarks: per-sampler sampling throughput, scalar vs batched.

Two suites:

* the original per-user micro-benchmarks (pytest-benchmark) timing the
  inner operation every experiment pays for — drawing one negative per
  positive for a user — which empirically check the paper's complexity
  claim for BNS (linear in the candidate-set size on top of one
  score-vector pass);
* the batched-pipeline comparison: for every registered sampler and batch
  sizes {1, 128, 1024}, time the legacy per-user loop (group by user,
  per-user ``scores`` + ``sample_for_user``) against the vectorized path
  (one ``scores_batch`` + one ``sample_batch``) on mixed-user batches, and
  record triples/sec for both in ``BENCH_samplers.json`` at the repo root
  so the perf trajectory is tracked across PRs.

Run it with one BLAS thread, as CI does and as ``perfbench/run.py``
pins::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python -m pytest -q -s \
        benchmarks/bench_samplers.py::test_batched_vs_scalar_speedup

Without the pin, the process's first AOBPR B=128 measurement sometimes
read 0.21-0.24x (5 of 14 runs; 0 of 4 with it).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.registry import load_dataset
from repro.models.mf import MatrixFactorization
from repro.samplers.base import ScoreRequest
from repro.samplers.variants import make_sampler
from repro.utils.rng import as_rng

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_samplers.json"

#: Samplers covered by the scalar-vs-batched comparison (the schedule/prior
#: variants share BNS's implementation and add no new code path).
COMPARED_SAMPLERS = ["rns", "pns", "aobpr", "dns", "srns", "bns", "bns-posterior"]
BATCH_SIZES = [1, 128, 1024]


@pytest.fixture(scope="module")
def setup():
    dataset = load_dataset("ml-100k-small", seed=0)
    model = MatrixFactorization(
        dataset.n_users, dataset.n_items, n_factors=32, seed=0
    )
    user = int(dataset.trainable_users()[0])
    pos_items = np.repeat(dataset.train.items_of(user)[:1], 64)
    scores = model.scores(user)
    return dataset, model, user, pos_items, scores


@pytest.mark.parametrize(
    "name", ["rns", "pns", "aobpr", "dns", "srns", "bns", "bns-posterior"]
)
def test_sampler_throughput(benchmark, setup, name):
    dataset, model, user, pos_items, scores = setup
    sampler = make_sampler(name)
    sampler.bind(dataset, model, seed=0)
    sampler.on_epoch_start(0)
    passed_scores = (
        None if sampler.score_request is ScoreRequest.NONE else scores
    )
    out = benchmark(sampler.sample_for_user, user, pos_items, passed_scores)
    assert out.shape == pos_items.shape


@pytest.mark.parametrize("m", [2, 8, 32])
def test_bns_linear_in_candidate_set(benchmark, setup, m):
    """BNS cost per draw grows (at most) linearly with |M_u|."""
    dataset, model, user, pos_items, scores = setup
    sampler = make_sampler("bns", n_candidates=m)
    sampler.bind(dataset, model, seed=0)
    out = benchmark(sampler.sample_for_user, user, pos_items, scores)
    assert out.shape == pos_items.shape


# ---------------------------------------------------------------------- #
# Batched pipeline vs the per-user loop
# ---------------------------------------------------------------------- #


def _mixed_batch(dataset, rng, size):
    users = rng.choice(dataset.trainable_users(), size=size, replace=True).astype(
        np.int64
    )
    pos = np.array(
        [rng.choice(dataset.train.items_of(int(u))) for u in users],
        dtype=np.int64,
    )
    return users, pos


def _best_seconds(fns, repeats):
    """Best-of-N wall time of each of ``fns``, timed in interleaved rounds.

    Best-of-N is the standard load-robust microbench estimator.  Each
    round runs every function once, in an order that alternates from
    round to round, so a slow stretch of the host slows all of them
    alike instead of landing on one function's block of timings.
    """
    for fn in fns:
        fn()  # warm caches (negative table, prior bind, BLAS)
    times = [[] for _ in fns]
    for round_ in range(repeats):
        order = range(len(fns)) if round_ % 2 == 0 else reversed(range(len(fns)))
        for index in order:
            start = time.perf_counter()
            fns[index]()
            times[index].append(time.perf_counter() - start)
    return [float(min(each)) for each in times]


def _measure(name, dataset, model, users, pos, repeats):
    """Triples/sec of the per-user loop vs the trainer's batched dispatch.

    The "batched" column measures the production policy, not a forced
    ``sample_batch`` call: a one-row batch routes through the per-user
    path exactly as ``Trainer._sample_negatives`` does, which is what
    fixed the historical B=1 regression (0.25–0.5x) this file used to
    record.
    """
    scalar_sampler = make_sampler(name)
    scalar_sampler.bind(dataset, model, seed=0)
    scalar_sampler.on_epoch_start(0)
    batched_sampler = make_sampler(name)
    batched_sampler.bind(dataset, model, seed=0)
    batched_sampler.on_epoch_start(0)

    def per_user_loop_with(sampler):
        negatives = np.empty(users.size, dtype=np.int64)
        full_block = sampler.score_request is ScoreRequest.FULL_BLOCK
        for user in np.unique(users):
            mask = users == user
            scores = model.scores(int(user)) if full_block else None
            negatives[mask] = sampler.sample_for_user(int(user), pos[mask], scores)
        return negatives

    def per_user_loop():
        return per_user_loop_with(scalar_sampler)

    def batched():
        if users.size == 1:
            return per_user_loop_with(batched_sampler)
        scores = (
            model.scores_batch(np.unique(users))
            if batched_sampler.score_request is ScoreRequest.FULL_BLOCK
            else None
        )
        return batched_sampler.sample_batch(users, pos, scores)

    scalar_seconds, batched_seconds = _best_seconds(
        [per_user_loop, batched], repeats
    )
    return {
        "scalar_triples_per_s": round(users.size / scalar_seconds, 1),
        "batched_triples_per_s": round(users.size / batched_seconds, 1),
        "speedup": round(scalar_seconds / batched_seconds, 2),
    }


def test_batched_vs_scalar_speedup():
    """Record the scalar-vs-batched comparison and gate the BNS speedup.

    The acceptance bar for the pipeline refactor: ``sample_batch`` on a
    1024-pair mixed-user batch must beat the per-user loop by >= 5x for
    BNS.  Results land in ``BENCH_samplers.json``.
    """
    dataset = load_dataset("ml-100k-small", seed=0)
    model = MatrixFactorization(
        dataset.n_users, dataset.n_items, n_factors=32, seed=0
    )
    batch_rng = as_rng(7)
    results = {name: {} for name in COMPARED_SAMPLERS}
    for size in BATCH_SIZES:
        users, pos = _mixed_batch(dataset, batch_rng, size)
        repeats = 30 if size <= 128 else 60
        for name in COMPARED_SAMPLERS:
            results[name][str(size)] = _measure(
                name, dataset, model, users, pos, repeats
            )

    bns_speedup = results["bns"]["1024"]["speedup"]
    payload = {
        "dataset": dataset.name,
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
        "batch_sizes": BATCH_SIZES,
        "samplers": results,
        "bns_1024_speedup": bns_speedup,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[saved to {BENCH_JSON}]")
    for name in COMPARED_SAMPLERS:
        row = " ".join(
            f"B={size}: {results[name][str(size)]['speedup']:>6.2f}x"
            for size in BATCH_SIZES
        )
        print(f"  {name:>14s}  {row}")

    # Acceptance bar is 5x on a quiet machine (measured ~6.5x here); shared
    # CI runners see BLAS thread contention and CPU steal, so they gate at
    # a noise-tolerant floor via REPRO_BENCH_MIN_SPEEDUP instead of turning
    # perf jitter into red builds for unrelated changes.
    floor = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))
    assert bns_speedup >= floor, (
        f"BNS batched path must be >= {floor}x the per-user loop at batch "
        f"1024, got {bns_speedup}x (see {BENCH_JSON})"
    )
