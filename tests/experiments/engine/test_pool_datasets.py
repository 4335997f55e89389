"""The pool hands workers the grid's datasets through its initializer.

The parent builds each distinct ``(dataset, seed)`` once; workers must
never rebuild one — not even when the grid holds more datasets than the
per-process memo keeps — and their payloads must stay bitwise equal to
the sequential backend's whether the workers fork or spawn.
"""

import multiprocessing
import os
from contextlib import contextmanager

import pytest

import repro.data.registry as registry
from repro.experiments.config import RunSpec
from repro.experiments.engine import (
    EngineRequest,
    ProcessPoolRunExecutor,
    SequentialExecutor,
)
from repro.experiments.engine.executor import _DATASET_CACHE_MAX
from repro.experiments.engine.jobs import JobGraph
from repro.reliability import RetryPolicy

#: More datasets than the memo holds, so a parent-warmed memo alone would
#: leave workers to rebuild some of them.
N_DATASETS = _DATASET_CACHE_MAX + 2


def _jobs(n_seeds, dataset="tiny"):
    graph = JobGraph()
    for seed in range(n_seeds):
        graph.add(
            EngineRequest(
                RunSpec(
                    dataset=dataset,
                    sampler="bns" if seed % 2 else "rns",
                    epochs=2,
                    batch_size=16,
                    seed=seed,
                )
            )
        )
    return graph.jobs()


@contextmanager
def _start_method(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        yield
    finally:
        multiprocessing.set_start_method(previous, force=True)


def test_workers_build_no_dataset(tmp_path, monkeypatch):
    # Fork workers inherit the patched loader, so a worker-side build
    # would leave its pid in the log.
    log = tmp_path / "loads.log"
    real_load = registry.load_dataset

    def logged_load(name, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return real_load(name, **kwargs)

    monkeypatch.setattr(registry, "load_dataset", logged_load)
    jobs = _jobs(N_DATASETS)
    with _start_method("fork"):
        pooled = dict(ProcessPoolRunExecutor(2).run(jobs))
    builders = set(log.read_text().split()) if log.exists() else set()
    assert builders <= {str(os.getpid())}
    assert pooled == dict(SequentialExecutor().run(jobs))


def test_spawn_payloads_equal_sequential():
    # Spawn workers unpickle the datasets the initializer receives.
    jobs = _jobs(3)
    with _start_method("spawn"):
        pooled = dict(ProcessPoolRunExecutor(2).run(jobs))
    assert pooled == dict(SequentialExecutor().run(jobs))


def test_unbuildable_dataset_fails_like_sequential():
    # The parent leaves out a dataset it cannot build; the job then fails
    # in its worker and is quarantined, as the sequential backend does.
    jobs = _jobs(1) + _jobs(1, dataset="no-such-dataset")
    executor = ProcessPoolRunExecutor(2, retry_policy=RetryPolicy(max_attempts=1))
    assert dict(executor.run(jobs)) == dict(SequentialExecutor().run(jobs))
