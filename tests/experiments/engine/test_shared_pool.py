"""Pool-side dataset sharing and worker resource caps.

The sharing layer may change *how fast* workers get their dataset, never
*what* they compute: pooled payloads stay bitwise equal to sequential
ones with sharing on, with the export failing, and under injected worker
crashes — and a torn-down grid leaves no shared-memory segments behind,
crash or not.
"""

import os

import numpy as np
import pytest

from repro.experiments.config import RunSpec
from repro.experiments.engine import EngineRequest, ProcessPoolRunExecutor
from repro.experiments.engine.executor import (
    _BLAS_ENV_VARS,
    _DATASET_CACHE,
    _WORKER_SHM_SEGMENTS,
    WORKER_BLAS_THREADS_ENV,
    SequentialExecutor,
    _pool_worker_init,
)
from repro.experiments.engine.jobs import JobGraph
from repro.reliability import FaultPlan, FaultSpec, RetryPolicy

EXECUTOR_SITE = "executor.job"


def _jobs(seeds=(0, 1)):
    graph = JobGraph()
    for seed in seeds:
        graph.add(
            EngineRequest(
                RunSpec(
                    dataset="tiny",
                    sampler="bns",
                    epochs=2,
                    batch_size=16,
                    seed=seed,
                )
            )
        )
    return graph.jobs()


@pytest.fixture(scope="module")
def baseline():
    return dict(SequentialExecutor().run(_jobs()))


def _live_segments(executor_cls=None):
    """Names of currently linked shared-memory segments (POSIX)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        pytest.skip("no /dev/shm on this platform")
    return {name for name in os.listdir(shm_dir) if name.startswith("psm_")}


class TestSharedPoolParity:
    def test_pool_with_sharing_matches_sequential_bitwise(self, baseline):
        before = _live_segments()
        executor = ProcessPoolRunExecutor(2)
        results = dict(executor.run(_jobs()))
        assert results == baseline
        assert _live_segments() <= before  # every segment unlinked

    def test_worker_crashes_leak_no_segments(self, baseline):
        jobs = _jobs()
        plan = FaultPlan(
            [
                FaultSpec(
                    site=EXECUTOR_SITE,
                    key=jobs[0].key,
                    action="crash",
                    times=1,
                ),
            ]
        )
        before = _live_segments()
        executor = ProcessPoolRunExecutor(
            2,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
            sleeper=lambda _s: None,
        )
        results = dict(executor.run(jobs))
        assert results == baseline  # crash recovered, payloads unchanged
        assert executor.pool_rebuilds >= 1
        assert _live_segments() <= before

    def test_export_failure_degrades_to_rebuild(self, baseline, monkeypatch):
        import repro.data.shared as shared

        def broken_export(*args, **kwargs):
            raise OSError("synthetic /dev/shm exhaustion")

        monkeypatch.setattr(shared, "export_dataset", broken_export)
        executor = ProcessPoolRunExecutor(2)
        results = dict(executor.run(_jobs()))
        assert results == baseline


class TestWorkerInit:
    def test_blas_caps_and_cache_seeding(self, monkeypatch):
        from repro.data.registry import load_dataset
        from repro.data.shared import export_dataset

        for var in _BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        dataset = load_dataset("tiny", seed=0)
        export = export_dataset(dataset, cache_name="tiny", cache_seed=0)
        key = ("tiny", 0)
        saved = _DATASET_CACHE.pop(key, None)
        n_segments = len(_WORKER_SHM_SEGMENTS)
        try:
            _pool_worker_init((export.handle,), 1)
            assert all(os.environ[var] == "1" for var in _BLAS_ENV_VARS)
            seeded = _DATASET_CACHE[key]
            assert seeded.train == dataset.train
            assert len(_WORKER_SHM_SEGMENTS) > n_segments
        finally:
            _DATASET_CACHE.pop(key, None)
            if saved is not None:
                _DATASET_CACHE[key] = saved
            for shm in _WORKER_SHM_SEGMENTS[n_segments:]:
                shm.close()
            del _WORKER_SHM_SEGMENTS[n_segments:]
            export.destroy()

    def test_attach_failure_is_not_fatal(self):
        from repro.data.shared import SharedArraySpec, SharedDatasetHandle
        from repro.data.shared import SharedMatrixHandle

        ghost = SharedArraySpec(segment="psm_gone_for_sure", shape=(1,),
                                dtype="<i8")
        matrix = SharedMatrixHandle(
            n_users=1, n_items=1, indptr=ghost, indices=ghost,
            item_popularity=ghost, user_activity=ghost,
        )
        handle = SharedDatasetHandle(
            cache_name="ghost", cache_seed=0, dataset_name="ghost",
            train=matrix, test=matrix, occupations=None,
            occupation_names=None,
        )
        _pool_worker_init((handle,), 1)  # logs a warning, does not raise
        assert ("ghost", 0) not in _DATASET_CACHE

    def test_blas_thread_knob_validated(self, monkeypatch):
        executor = ProcessPoolRunExecutor(1)
        monkeypatch.setenv(WORKER_BLAS_THREADS_ENV, "2")
        assert executor.worker_blas_threads == 2
        monkeypatch.setenv(WORKER_BLAS_THREADS_ENV, "zero")
        with pytest.raises(ValueError, match=WORKER_BLAS_THREADS_ENV):
            executor.worker_blas_threads
        monkeypatch.setenv(WORKER_BLAS_THREADS_ENV, "0")
        with pytest.raises(ValueError):
            executor.worker_blas_threads
