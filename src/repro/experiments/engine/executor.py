"""Execution backends: sequential and process-pool, fault-tolerant.

Both backends funnel through :func:`execute_request`, which rebuilds the
dataset and model *from the spec* (per-spec seeded RNG, no shared mutable
state) and returns a plain-JSON payload.  That shared code path is what
makes the determinism contract hold: for the same key, the parallel
backend's metrics are bitwise-identical to the sequential backend's —
pinned by ``tests/experiments/engine/test_executor.py``.

Failure handling rides on top of that purity.  Each backend owns a
:class:`~repro.reliability.policy.RetryPolicy`: a failed job is retried
with deterministic seeded backoff, and a job that exhausts its budget is
*quarantined* — yielded as a :class:`~repro.reliability.report.JobFailure`
instead of aborting the whole grid.  The pool backend additionally
survives worker death: a ``BrokenProcessPool`` (segfault, OOM-kill,
injected crash) rebuilds the pool and resubmits only the jobs that had
not completed.  Because a retried execution reruns the same pure
function, recovery changes *when* a payload arrives, never its bytes —
``tests/reliability/test_chaos.py`` pins fault-injected grids
bitwise-equal to fault-free sequential runs.

A pool break cannot name its culprit (no exception crosses the dead
worker's pipe), so it charges one attempt to every job that was in
flight; innocent jobs simply succeed on resubmission while a poison job
burns through its budget and quarantines, bounding the rebuild loop.

Datasets are memoized per process keyed on ``(name, seed)``: pool workers
are reused across jobs, so a grid over one dataset pays generation/split
cost once per worker, not once per run — the same sharing the old
sequential artifact loops got by passing one dataset object around.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from concurrent.futures import ProcessPoolExecutor as _PoolImpl
from concurrent.futures import as_completed
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.experiments.engine.jobs import Job
from repro.experiments.engine.request import EngineRequest
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.reliability.policy import RetryPolicy
from repro.reliability.report import JobFailure
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

__all__ = [
    "execute_request",
    "load_dataset_cached",
    "payload_from_result",
    "SequentialExecutor",
    "ProcessPoolRunExecutor",
    "DEFAULT_RETRY_POLICY",
    "WORKER_BLAS_THREADS_ENV",
]

_LOGGER = get_logger("experiments.engine.executor")

#: Worker-side instrumentation point for injected faults.
JOB_FAULT_SITE = "executor.job"

#: The pool backend's default budget: one crash or transient error per
#: job is absorbed; systematically failing jobs quarantine on the third
#: strike.  Backoffs are short — grid jobs are seconds-to-minutes long,
#: so retry latency is noise next to the work itself.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.05, multiplier=2.0, max_delay=2.0
)

#: Per-process dataset memo: (dataset name, dataset seed) → ImplicitDataset.
_DATASET_CACHE: "OrderedDict[Tuple[str, int], object]" = OrderedDict()
_DATASET_CACHE_MAX = 4

#: Env knob: BLAS/OpenMP threads per pool worker (default ``1``).  The
#: pool's workers *are* the parallelism — letting each worker's BLAS also
#: fan out ``n_cores`` threads oversubscribes the machine ``workers ×
#: cores`` and thrashes.  Raise it for grids with few jobs and large
#: gemms.
WORKER_BLAS_THREADS_ENV = "REPRO_WORKER_BLAS_THREADS"

#: The thread-count variables every mainstream BLAS/OpenMP honors.
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Worker-side anchors for attached shared-memory segments: the numpy
#: views in the dataset cache alias these buffers, so the ``SharedMemory``
#: objects must stay referenced for the worker's lifetime.
_WORKER_SHM_SEGMENTS: List[object] = []


def _pool_worker_init(handles: Sequence[object], blas_threads: int) -> None:
    """Pool-worker initializer: cap BLAS threads, attach shared datasets.

    The env vars take effect for BLAS thread pools not yet spun up —
    reliable under the spawn start method; under fork a parent that
    already ran large gemms may have an OpenBLAS pool pinned at its own
    size (documented caveat on :class:`ProcessPoolRunExecutor`).

    Attached datasets pre-seed :data:`_DATASET_CACHE`, so
    :func:`load_dataset_cached` in this worker returns the shared-memory
    view instead of rebuilding from the spec.  Attachment failure is not
    fatal: the worker logs and falls back to rebuilding on demand — the
    grid's outputs do not depend on how the dataset pages got here.
    """
    for var in _BLAS_ENV_VARS:
        os.environ[var] = str(int(blas_threads))
    from repro.data.shared import attach_dataset

    for handle in handles:
        try:
            dataset, segments = attach_dataset(handle)
        except Exception as error:
            _LOGGER.warning(
                "could not attach shared dataset %s (seed %s): %s; "
                "worker will rebuild it from the spec",
                getattr(handle, "cache_name", "?"),
                getattr(handle, "cache_seed", "?"),
                error,
            )
            continue
        _WORKER_SHM_SEGMENTS.extend(segments)
        _DATASET_CACHE[(handle.cache_name, handle.cache_seed)] = dataset


def load_dataset_cached(name: str, seed: int):
    """`load_dataset` through the per-process memo.

    Artifact assembly code that needs the dataset itself (e.g. Fig. 4's
    base rate) should come through here so the parent process and the
    sequential backend share one load.
    """
    key = (name, int(seed))
    cached = _DATASET_CACHE.get(key)
    if cached is not None:
        _DATASET_CACHE.move_to_end(key)
        return cached
    from repro.data.registry import load_dataset

    dataset = load_dataset(name, seed=seed)
    _DATASET_CACHE[key] = dataset
    while len(_DATASET_CACHE) > _DATASET_CACHE_MAX:
        _DATASET_CACHE.popitem(last=False)
    return dataset


def payload_from_result(result, *, checkpoint: Optional[str] = None) -> dict:
    """Convert a :class:`~repro.experiments.runner.RunResult` to plain JSON."""
    payload: dict = {
        "metrics": {name: float(v) for name, v in result.metrics.items()},
        "loss_curve": [float(v) for v in result.loss_curve],
        "sampling_quality": None,
        "distributions": None,
        "checkpoint": checkpoint,
    }
    quality = result.sampling_quality
    if quality is not None:
        payload["sampling_quality"] = {
            "epochs": [int(r.epoch) for r in quality.records],
            "tnr": [float(r.tnr) for r in quality.records],
            "inf": [float(r.inf) for r in quality.records],
            "n_sampled": [int(r.n_sampled) for r in quality.records],
            "n_false_negatives": [
                int(r.n_false_negatives) for r in quality.records
            ],
        }
    distributions = result.distributions
    if distributions is not None:
        payload["distributions"] = [
            {
                "epoch": int(epoch),
                "tn_scores": np.asarray(snap.tn_scores, dtype=float).tolist(),
                "fn_scores": np.asarray(snap.fn_scores, dtype=float).tolist(),
            }
            for epoch, snap in sorted(distributions.snapshots.items())
        ]
    return payload


def execute_request(
    request: EngineRequest, *, checkpoint_path: Optional[str] = None
) -> dict:
    """Run one request from scratch and return its jsonable payload.

    ``checkpoint_path`` attaches a loss-tracking
    :class:`~repro.train.callbacks.CheckpointCallback`, so an interrupted
    long run leaves its best model on disk (resumable grids).
    """
    from repro.experiments.runner import run_spec
    from repro.train.callbacks import CheckpointCallback

    spec = request.spec
    dataset = load_dataset_cached(spec.dataset, request.resolved_dataset_seed)

    extra_callbacks = []
    checkpointer: Optional[CheckpointCallback] = None
    if checkpoint_path is not None:
        checkpointer = CheckpointCallback(checkpoint_path)
        extra_callbacks.append(checkpointer)

    result = run_spec(
        spec,
        dataset,
        record_sampling_quality=request.record_sampling_quality,
        distribution_epochs=request.distribution_epochs,
        extra_callbacks=extra_callbacks,
        evaluate=request.evaluate,
    )
    checkpoint = None
    if checkpointer is not None and checkpointer.n_saves > 0:
        checkpoint = str(checkpoint_path)
    return payload_from_result(result, checkpoint=checkpoint)


def _execute_job(
    job: Job,
    checkpoint_path: Optional[str],
    attempt: int = 0,
    fault_payload: Optional[list] = None,
) -> Tuple[str, dict]:
    """Top-level (picklable) pool task: run one job, return (key, payload).

    ``attempt`` is the number of failures the job has already suffered;
    the fault plan (shipped as plain JSON so it crosses any start-method
    boundary) matches against it, so "crash the first attempt of this
    key" behaves identically in every worker process.
    """
    if fault_payload:
        injector = FaultInjector(FaultPlan.from_payload(fault_payload))
        injector.fire(JOB_FAULT_SITE, job.key, attempt=attempt)
    return job.key, execute_request(job.request, checkpoint_path=checkpoint_path)


#: What an executor yields per job: the payload, or a quarantine notice.
JobOutcome = Union[dict, JobFailure]


class _RetryState:
    """Per-run bookkeeping shared by both backends: failures per key,
    recovered-retry counts, and the quarantine decision."""

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.failures: Dict[str, int] = {}
        self.retry_counts: Dict[str, int] = {}

    def attempt(self, key: str) -> int:
        return self.failures.get(key, 0)

    def note_failure(self, key: str, error: BaseException) -> Optional[JobFailure]:
        """Record one failed attempt; a :class:`JobFailure` means quarantine."""
        count = self.failures.get(key, 0) + 1
        self.failures[key] = count
        if self.policy.should_retry(count):
            _LOGGER.warning(
                "job %s attempt %d failed (%s); retrying",
                key[:12],
                count,
                error,
            )
            return None
        _LOGGER.error(
            "job %s quarantined after %d attempts (%s)", key[:12], count, error
        )
        return JobFailure(key=key, attempts=count, error=repr(error))

    def note_success(self, key: str) -> None:
        if self.failures.get(key, 0):
            self.retry_counts[key] = self.failures[key]


class SequentialExecutor:
    """Deterministic in-process backend: jobs run one by one, in order.

    ``retry_policy`` defaults to a single attempt — an in-process
    exception is a deterministic bug, and retrying a pure function on
    the same inputs cannot change its outcome — but a failing job is
    still quarantined (yielded as a :class:`JobFailure`) rather than
    aborting the jobs after it.  Tests exercise real retry schedules by
    passing a policy plus a fault plan whose faults retire.
    """

    kind = "sequential"

    def __init__(
        self,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=1)
        self.fault_plan = fault_plan
        self._sleeper = sleeper
        #: key → recovered failure count of the most recent :meth:`run`.
        self.retry_counts: Dict[str, int] = {}

    def run(
        self,
        jobs: Sequence[Job],
        checkpoint_paths: Optional[Mapping[str, str]] = None,
    ) -> Iterator[Tuple[str, JobOutcome]]:
        paths = checkpoint_paths or {}
        fault_payload = self.fault_plan.to_payload() if self.fault_plan else None
        state = _RetryState(self.retry_policy)
        self.retry_counts = state.retry_counts
        for job in jobs:
            while True:
                try:
                    key, payload = _execute_job(
                        job,
                        paths.get(job.key),
                        state.attempt(job.key),
                        fault_payload,
                    )
                except Exception as error:
                    failure = state.note_failure(job.key, error)
                    if failure is not None:
                        yield job.key, failure
                        break
                    backoff = self.retry_policy.delay(
                        job.key, state.attempt(job.key)
                    )
                    if backoff > 0:
                        self._sleeper(backoff)
                else:
                    state.note_success(key)
                    yield key, payload
                    break


class ProcessPoolRunExecutor:
    """``concurrent.futures.ProcessPoolExecutor`` backend with recovery.

    Jobs are self-contained (spec in, payload out), so workers share
    nothing with the parent but code; results stream back in completion
    order and the engine re-keys them, keeping output independent of
    scheduling.  ``mp_context`` accepts a multiprocessing start-method
    name ("fork"/"spawn"/"forkserver"); the platform default is used when
    ``None``.

    Failure semantics (see the module docstring for the rationale):

    * a job whose attempt raises is retried after a deterministic
      backoff, up to ``retry_policy.max_attempts`` total tries, then
      quarantined (yielded as a :class:`JobFailure`);
    * a dead worker (``BrokenProcessPool``) rebuilds the pool and
      resubmits every job that had not completed, charging each one
      attempt; completed payloads are never lost or recomputed.

    Worker resource shaping:

    * each worker's BLAS/OpenMP thread count is capped (default 1, env
      knob ``REPRO_WORKER_BLAS_THREADS``) so ``workers`` processes do not
      each fan out ``n_cores`` BLAS threads.  The cap is set in the
      worker initializer before any worker-side numpy work; under the
      fork start method a BLAS pool the *parent* already spun up is
      inherited as-is (spawn gives the strict guarantee);
    * the grid's datasets are built once in the parent, exported to
      ``multiprocessing.shared_memory``, and attached zero-copy by every
      worker (including the workers of a rebuilt pool), so no worker
      rebuilds a dataset.  When export or attach fails, the workers
      rebuild their datasets from the specs instead; payload bytes are
      identical either way.
    """

    kind = "process-pool"

    def __init__(
        self,
        workers: int,
        *,
        mp_context: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        check_positive(workers, "workers")
        self.workers = int(workers)
        self.mp_context = mp_context
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.fault_plan = fault_plan
        self._sleeper = sleeper
        #: key → recovered failure count of the most recent :meth:`run`.
        self.retry_counts: Dict[str, int] = {}
        #: Pools rebuilt during the most recent :meth:`run`.
        self.pool_rebuilds = 0
        #: Handles shipped to the current run's pool initializer.
        self._shared_handles: List[object] = []

    @property
    def worker_blas_threads(self) -> int:
        """BLAS threads each worker may use (``REPRO_WORKER_BLAS_THREADS``)."""
        raw = os.environ.get(WORKER_BLAS_THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKER_BLAS_THREADS_ENV} must be a positive integer, "
                f"got {raw!r}"
            ) from None
        check_positive(threads, WORKER_BLAS_THREADS_ENV)
        return threads

    def _export_datasets(self, jobs: Sequence[Job]) -> List[object]:
        """Export each distinct (dataset, seed) of ``jobs`` to shared memory.

        Returns the live exports (the caller owns ``destroy()``); an empty
        list when export failed — workers then rebuild datasets from their
        specs.
        """
        wanted = []
        for job in jobs:
            key = (job.request.spec.dataset, job.request.resolved_dataset_seed)
            if key not in wanted:
                wanted.append(key)
        from repro.data.shared import export_dataset

        exports: List[object] = []
        try:
            for name, seed in wanted:
                dataset = load_dataset_cached(name, seed)
                exports.append(
                    export_dataset(dataset, cache_name=name, cache_seed=seed)
                )
        except Exception as error:
            _LOGGER.warning(
                "shared-memory dataset export failed (%s); workers will "
                "rebuild datasets from their specs",
                error,
            )
            for export in exports:
                export.destroy()
            return []
        return exports

    def _new_pool(self, n_jobs: int) -> _PoolImpl:
        context = None
        if self.mp_context is not None:
            import multiprocessing

            context = multiprocessing.get_context(self.mp_context)
        max_workers = min(self.workers, max(n_jobs, 1))
        return _PoolImpl(
            max_workers=max_workers,
            mp_context=context,
            initializer=_pool_worker_init,
            initargs=(tuple(self._shared_handles), self.worker_blas_threads),
        )

    def run(
        self,
        jobs: Sequence[Job],
        checkpoint_paths: Optional[Mapping[str, str]] = None,
    ) -> Iterator[Tuple[str, JobOutcome]]:
        paths = checkpoint_paths or {}
        fault_payload = self.fault_plan.to_payload() if self.fault_plan else None
        state = _RetryState(self.retry_policy)
        self.retry_counts = state.retry_counts
        self.pool_rebuilds = 0
        # Insertion-ordered: resubmission order is a function of the job
        # list, not of scheduling.
        pending: Dict[str, Job] = {job.key: job for job in jobs}
        exports = self._export_datasets(jobs)
        self._shared_handles = [export.handle for export in exports]
        pool = self._new_pool(len(pending))
        try:
            while pending:
                futures: Dict[object, Job] = {}
                pool_broken = False
                try:
                    for job in pending.values():
                        futures[
                            pool.submit(
                                _execute_job,
                                job,
                                paths.get(job.key),
                                state.attempt(job.key),
                                fault_payload,
                            )
                        ] = job
                except BrokenExecutor as error:
                    # Flagged here, logged once at the rebuild site below
                    # (one submission round can observe many such errors).
                    _LOGGER.debug("pool broke during submission: %s", error)
                    pool_broken = True
                retry_backoffs: Dict[str, float] = {}
                for future in as_completed(futures):
                    job = futures[future]
                    try:
                        key, payload = future.result()
                    except BrokenExecutor as error:
                        # The pool is dead; every unfinished future
                        # resolves with this.  Keep draining so finished
                        # payloads are still harvested below; the rebuild
                        # site logs the event once at warning level.
                        _LOGGER.debug(
                            "job %s lost to broken pool: %s", job.key, error
                        )
                        pool_broken = True
                        continue
                    except Exception as error:
                        failure = state.note_failure(job.key, error)
                        if failure is not None:
                            del pending[job.key]
                            yield job.key, failure
                        else:
                            retry_backoffs[job.key] = self.retry_policy.delay(
                                job.key, state.attempt(job.key)
                            )
                    else:
                        state.note_success(key)
                        del pending[key]
                        yield key, payload
                if pool_broken:
                    self.pool_rebuilds += 1
                    _LOGGER.warning(
                        "process pool broke with %d job(s) unfinished; "
                        "rebuilding (recovery #%d)",
                        len(pending),
                        self.pool_rebuilds,
                    )
                    pool.shutdown(wait=False, cancel_futures=True)
                    for job in list(pending.values()):
                        failure = state.note_failure(
                            job.key,
                            RuntimeError(
                                "worker process died while the job was in flight"
                            ),
                        )
                        if failure is not None:
                            del pending[job.key]
                            yield job.key, failure
                    pool = self._new_pool(len(pending))
                elif retry_backoffs:
                    # One sleep per round, the longest pending backoff:
                    # retried jobs were already serialized behind the
                    # round's other work.
                    self._sleeper(max(retry_backoffs.values()))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            self._shared_handles = []
            for export in exports:
                export.destroy()
