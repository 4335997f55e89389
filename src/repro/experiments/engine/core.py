"""The orchestration engine: cache → job graph → executor → results.

:meth:`ExperimentEngine.run_many` is the single entry point the artifact
modules use.  Resolution order per request:

1. in-memory memo (shared runs within one process, e.g. ``run-all``);
2. the on-disk :class:`~repro.experiments.engine.store.ArtifactStore`
   (shared runs across processes and across interrupted grids);
3. the executor backend (sequential or process pool) for the misses,
   whose payloads are committed back to the store as they complete.

Results come back aligned with the request list, so callers keep their
grid shape without tracking keys themselves.

Failure handling: executors yield a
:class:`~repro.reliability.report.JobFailure` for jobs that exhausted
their retries instead of raising, so the engine finishes the grid,
commits every completed payload (streaming, as results arrive — a
crashed grid resumes warm from the store), records a
:class:`~repro.reliability.report.RunReport` on :attr:`last_report`,
and only then raises :class:`~repro.reliability.report.GridExecutionError`
when quarantined jobs remain.  Store commits themselves are retried
under a short policy and degrade to a warning — a flaky cache mount
must never take down a finished computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.engine.executor import (
    ProcessPoolRunExecutor,
    SequentialExecutor,
)
from repro.experiments.engine.jobs import JobGraph
from repro.experiments.engine.request import EngineRequest, canonical_payload
from repro.experiments.engine.store import ArtifactStore
from repro.reliability.policy import RetryPolicy, call_with_retry
from repro.reliability.report import GridExecutionError, JobFailure, RunReport
from repro.utils.logging import get_logger

__all__ = ["EngineResult", "EngineStats", "ExperimentEngine", "resolve_engine"]

_LOGGER = get_logger("experiments.engine.core")

#: Store commits retry briefly then degrade to a warning: the payload is
#: still held in the in-memory memo, so the grid's results are complete
#: either way and only warm-resume suffers.
COMMIT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.02, multiplier=2.0, max_delay=0.5
)


@dataclass(frozen=True)
class EngineResult:
    """One run's payload plus provenance (key, request, cache status)."""

    key: str
    request: EngineRequest
    payload: dict
    cached: bool

    @property
    def spec(self):
        return self.request.spec

    @property
    def metrics(self) -> Dict[str, float]:
        return self.payload["metrics"]

    def metric(self, name: str) -> float:
        """Single metric lookup with a helpful error."""
        if name not in self.metrics:
            raise KeyError(
                f"metric {name!r} not recorded; available: {sorted(self.metrics)}"
            )
        return self.metrics[name]

    @property
    def loss_curve(self) -> List[float]:
        return self.payload["loss_curve"]

    @property
    def checkpoint(self) -> Optional[str]:
        """Path of the saved model checkpoint, when the run kept one."""
        return self.payload.get("checkpoint")

    # -- recorder views ------------------------------------------------- #

    @property
    def tnr_series(self) -> np.ndarray:
        """Per-epoch TNR (requires ``record_sampling_quality``)."""
        return np.asarray(self._quality()["tnr"], dtype=float)

    @property
    def inf_series(self) -> np.ndarray:
        """Per-epoch INF (requires ``record_sampling_quality``)."""
        return np.asarray(self._quality()["inf"], dtype=float)

    def snapshots(self) -> Dict[int, "ScoreSnapshot"]:
        """Epoch → TN/FN score snapshot (requires ``distribution_epochs``)."""
        from repro.eval.distribution import ScoreSnapshot

        recorded = self.payload.get("distributions")
        if recorded is None:
            raise KeyError(
                "run recorded no score distributions; request them via "
                "EngineRequest(distribution_epochs=...)"
            )
        return {
            int(entry["epoch"]): ScoreSnapshot(
                epoch=int(entry["epoch"]),
                tn_scores=np.asarray(entry["tn_scores"], dtype=float),
                fn_scores=np.asarray(entry["fn_scores"], dtype=float),
            )
            for entry in recorded
        }

    def _quality(self) -> dict:
        quality = self.payload.get("sampling_quality")
        if quality is None:
            raise KeyError(
                "run recorded no sampling quality; request it via "
                "EngineRequest(record_sampling_quality=True)"
            )
        return quality


@dataclass
class EngineStats:
    """Hit/miss counters over the engine's lifetime."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses


class ExperimentEngine:
    """Orchestrate runs against a cache and an execution backend.

    Parameters
    ----------
    store:
        On-disk run cache; ``None`` keeps results only in the in-memory
        memo (the default for library use and unit tests).
    workers:
        Convenience: ``1`` selects the sequential backend, ``>1`` a
        process pool of that size (ignored when ``executor`` is given).
        A value below 1 raises ``ValueError``.
    executor:
        Explicit backend instance (any object with ``run(jobs, paths)``).
    save_models:
        Save each executed run's trained and evaluated model into the
        store (requires ``store``), once, after its evaluation; the
        payload's ``checkpoint`` field records the path and
        :meth:`load_model` restores it.
    retry_policy:
        Per-job retry budget handed to the executor the engine builds
        from ``workers`` (ignored when ``executor`` is given — configure
        the instance directly).  ``None`` keeps each backend's default.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        *,
        workers: int = 1,
        executor=None,
        save_models: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor is None:
            executor = (
                SequentialExecutor(retry_policy=retry_policy)
                if workers <= 1
                else ProcessPoolRunExecutor(workers, retry_policy=retry_policy)
            )
        self.executor = executor
        self.store = store
        if save_models and store is None:
            raise ValueError("save_models=True requires a store")
        self.save_models = bool(save_models)
        self.stats = EngineStats()
        #: Per-key accounting of the most recent :meth:`run_many`.
        self.last_report: Optional[RunReport] = None
        self._commit_sleeper = time.sleep
        self._memo: Dict[str, EngineResult] = {}

    # ------------------------------------------------------------------ #

    def run(self, request: EngineRequest) -> EngineResult:
        """Execute (or recall) a single request."""
        return self.run_many([request])[0]

    def run_many(self, requests: Sequence[EngineRequest]) -> List[EngineResult]:
        """Execute (or recall) a batch; results align with ``requests``.

        Duplicate requests — within the batch or across earlier calls on
        this engine — map onto one job/cache entry.
        """
        graph = JobGraph()
        keys = [graph.add(request).key for request in requests]

        pending = []
        cached_keys: List[str] = []
        for job in graph.jobs():
            if job.key in self._memo:
                self.stats.hits += 1
                cached_keys.append(job.key)
                continue
            if self.store is not None:
                payload = self.store.load(job.key)
                if payload is not None:
                    if (
                        self.save_models
                        and not self.store.model_path(job.key).is_file()
                    ):
                        # The cached payload was computed without a
                        # checkpoint; honoring save_models means the run
                        # must be re-executed, not silently served
                        # checkpoint-less.
                        pending.append(job)
                        continue
                    self._memo[job.key] = EngineResult(
                        key=job.key,
                        request=job.request,
                        payload=payload,
                        cached=True,
                    )
                    self.stats.hits += 1
                    cached_keys.append(job.key)
                    continue
            pending.append(job)

        executed: List[str] = []
        quarantined: Dict[str, JobFailure] = {}
        if pending:
            checkpoint_paths: Dict[str, str] = {}
            if self.save_models and self.store is not None:
                checkpoint_paths = {
                    job.key: str(self.store.model_path(job.key)) for job in pending
                }
            for key, payload in self.executor.run(pending, checkpoint_paths):
                if isinstance(payload, JobFailure):
                    quarantined[key] = payload
                    continue
                request = graph[key].request
                if self.store is not None:
                    # Streaming commit: each payload lands in the store
                    # the moment it exists, so an interruption later in
                    # the grid loses nothing already computed.
                    self._commit(key, canonical_payload(request), payload)
                self._memo[key] = EngineResult(
                    key=key, request=request, payload=payload, cached=False
                )
                self.stats.misses += 1
                executed.append(key)

        self.last_report = RunReport(
            succeeded=tuple(executed),
            cached=tuple(cached_keys),
            retried=dict(getattr(self.executor, "retry_counts", {}) or {}),
            quarantined=quarantined,
        )
        if quarantined:
            raise GridExecutionError(self.last_report)
        return [self._memo[key] for key in keys]

    def _commit(self, key: str, request_payload: dict, payload: dict) -> None:
        """Store one payload, retrying transient IO; never fatal."""
        try:
            call_with_retry(
                lambda: self.store.store(key, request_payload, payload),
                COMMIT_RETRY_POLICY,
                key=key,
                retry_on=(OSError,),
                sleeper=self._commit_sleeper,
                on_retry=lambda attempt, error: _LOGGER.warning(
                    "commit of run %s failed (attempt %d: %s); retrying",
                    key[:12],
                    attempt,
                    error,
                ),
            )
        except OSError as error:
            _LOGGER.warning(
                "giving up committing run %s to the store (%s); the result "
                "stays available in memory for this process",
                key[:12],
                error,
            )

    # ------------------------------------------------------------------ #

    def load_model(self, result: EngineResult):
        """Rebuild the persisted model of a checkpointed run."""
        from repro.models.persistence import load_model

        if self.store is None:
            raise ValueError("engine has no store to load models from")
        path = self.store.model_path(result.key)
        if not path.is_file():
            raise FileNotFoundError(
                f"no checkpoint for run {result.key[:12]}; execute it with "
                "save_models=True"
            )
        return load_model(path)


def resolve_engine(engine: Optional[ExperimentEngine]) -> ExperimentEngine:
    """The engine to use: the caller's, or a fresh in-memory sequential one.

    The fallback reproduces the pre-engine behavior of every artifact
    module (train everything, keep nothing on disk), so passing no engine
    is always safe.
    """
    return engine if engine is not None else ExperimentEngine()
