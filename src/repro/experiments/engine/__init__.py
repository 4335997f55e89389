"""Parallel experiment orchestration: job graph, executors, run cache.

Every result in this repository is a function of a :class:`RunSpec` plus a
handful of run options (what to record, whether to evaluate).  The engine
captures that purity:

* :class:`~repro.experiments.engine.request.EngineRequest` bundles a spec
  with its run options; :func:`~repro.experiments.engine.request.run_key`
  derives a content address (SHA-256 of the canonical request JSON), so a
  run is computed **at most once** — across sweeps, across artifacts,
  across interrupted and resumed grids.
* :class:`~repro.experiments.engine.store.ArtifactStore` persists payloads
  (metrics, loss curve, recorder series, optional model checkpoint) under
  the key in a versioned on-disk layout.
* :class:`~repro.experiments.engine.jobs.JobGraph` deduplicates requests
  into jobs; :class:`~repro.experiments.engine.executor.SequentialExecutor`
  and :class:`~repro.experiments.engine.executor.ProcessPoolRunExecutor`
  execute them — both build the model from the spec over the spec's
  dataset, so both produce bitwise-identical payloads per key (a tested
  contract).
* :class:`~repro.experiments.engine.core.ExperimentEngine` ties it all
  together; every table/figure module declares its spec grid and consumes
  engine results.
"""

from repro.experiments.engine.core import (
    EngineResult,
    ExperimentEngine,
    resolve_engine,
)
from repro.experiments.engine.executor import (
    ProcessPoolRunExecutor,
    SequentialExecutor,
    execute_request,
    load_dataset_cached,
)
from repro.experiments.engine.jobs import Job, JobGraph
from repro.experiments.engine.request import (
    CACHE_FORMAT_VERSION,
    EngineRequest,
    run_key,
)
from repro.experiments.engine.store import ArtifactStore, default_cache_dir
from repro.reliability.report import GridExecutionError, JobFailure, RunReport

__all__ = [
    "ArtifactStore",
    "CACHE_FORMAT_VERSION",
    "EngineRequest",
    "EngineResult",
    "ExperimentEngine",
    "GridExecutionError",
    "Job",
    "JobFailure",
    "JobGraph",
    "ProcessPoolRunExecutor",
    "RunReport",
    "SequentialExecutor",
    "default_cache_dir",
    "execute_request",
    "load_dataset_cached",
    "resolve_engine",
    "run_key",
]
