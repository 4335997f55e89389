"""Execution backends: sequential and process-pool, fault-tolerant.

Both backends funnel through :func:`execute_request`, which builds the
model *from the spec* over the spec's dataset (per-spec seeded RNG, no
shared mutable state) and returns a plain-JSON payload.  That shared
code path is what makes the determinism contract hold: for the same key,
the parallel backend's metrics are bitwise-identical to the sequential
backend's — pinned by ``tests/experiments/engine/test_executor.py``.

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

Datasets are memoized per process keyed on ``(name, seed)``.  The pool
backend builds each distinct dataset of a grid once, in the parent, and
hands the built objects to every worker through the pool initializer:
fork workers share the parent's pages copy-on-write, spawn and
forkserver workers unpickle one copy each.  No worker rebuilds a
dataset, however many the grid holds.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from concurrent.futures import ProcessPoolExecutor as _PoolImpl
from concurrent.futures import as_completed
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
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


def _pool_worker_init(datasets: Mapping[Tuple[str, int], object]) -> None:
    """Pool-worker initializer: seed the memo with the grid's datasets.

    ``datasets`` maps every ``(name, seed)`` the grid needs to the dataset
    the parent built, so :func:`load_dataset_cached` in this worker never
    rebuilds one.  The memo may then hold more than
    :data:`_DATASET_CACHE_MAX` entries: the cap applies only when a load
    inserts one.
    """
    _DATASET_CACHE.update(datasets)


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

    ``checkpoint_path`` saves the trained model there once, after it was
    evaluated, so the checkpoint is the model behind the payload's
    metrics.
    """
    from repro.experiments.runner import run_spec

    spec = request.spec
    dataset = load_dataset_cached(spec.dataset, request.resolved_dataset_seed)
    result = run_spec(
        spec,
        dataset,
        record_sampling_quality=request.record_sampling_quality,
        distribution_epochs=request.distribution_epochs,
        evaluate=request.evaluate,
    )
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = str(checkpoint_path)
        _save_checkpoint(result.model, Path(checkpoint))
    return payload_from_result(result, checkpoint=checkpoint)


def _save_checkpoint(model, path: Path) -> None:
    """Write ``model`` to ``path`` through a staging file and a rename.

    A crash mid-save never leaves a partial checkpoint at ``path``.  The
    staging name ends in ``.npz``, so ``np.savez`` writes it as named, and
    starts with ``staging-``, so ``repro cache gc`` reaps it after a crash.
    It carries the process id: two processes saving the same run to a
    shared store each rename a whole file.
    """
    from repro.models.persistence import save_model

    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f"staging-{os.getpid()}-{path.name}")
    save_model(model, staging)
    staging.replace(path)


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

    Jobs are self-contained (spec in, payload out); results stream back in
    completion order and the engine re-keys them, keeping output
    independent of scheduling.  The pool uses the platform's default
    start method.

    Failure semantics (see the module docstring for the rationale):

    * a job whose attempt raises is retried after a deterministic
      backoff, up to ``retry_policy.max_attempts`` total tries, then
      quarantined (yielded as a :class:`JobFailure`);
    * a dead worker (``BrokenProcessPool``) rebuilds the pool and
      resubmits every job that had not completed, charging each one
      attempt; completed payloads are never lost or recomputed.

    Datasets: :meth:`run` builds each distinct ``(dataset, seed)`` of the
    grid once in the parent and passes them to every worker's initializer,
    including the workers of a rebuilt pool.  A dataset that fails to
    build in the parent is left out; its jobs then build it in the worker
    and fail there, under the retry policy, like any other job error.
    """

    kind = "process-pool"

    def __init__(
        self,
        workers: int,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        check_positive(workers, "workers")
        self.workers = int(workers)
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.fault_plan = fault_plan
        self._sleeper = sleeper
        #: key → recovered failure count of the most recent :meth:`run`.
        self.retry_counts: Dict[str, int] = {}
        #: Pools rebuilt during the most recent :meth:`run`.
        self.pool_rebuilds = 0

    @staticmethod
    def _grid_datasets(jobs: Sequence[Job]) -> Dict[Tuple[str, int], object]:
        """Each distinct ``(dataset, seed)`` of ``jobs``, built in this process."""
        keys = dict.fromkeys(
            (job.request.spec.dataset, job.request.resolved_dataset_seed)
            for job in jobs
        )
        datasets: Dict[Tuple[str, int], object] = {}
        for key in keys:
            try:
                datasets[key] = load_dataset_cached(*key)
            except Exception as error:
                _LOGGER.warning(
                    "could not build dataset %s (seed %d): %s", *key, error
                )
        return datasets

    def _new_pool(
        self, n_jobs: int, datasets: Mapping[Tuple[str, int], object]
    ) -> _PoolImpl:
        return _PoolImpl(
            max_workers=min(self.workers, max(n_jobs, 1)),
            initializer=_pool_worker_init,
            initargs=(datasets,),
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
        datasets = self._grid_datasets(jobs)
        pool = self._new_pool(len(pending), datasets)
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
                    pool = self._new_pool(len(pending), datasets)
                elif retry_backoffs:
                    # One sleep per round, the longest pending backoff:
                    # retried jobs were already serialized behind the
                    # round's other work.
                    self._sleeper(max(retry_backoffs.values()))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
