"""Outside-in tracing: wrap the public methods of the layer classes at runtime.

Nothing under ``src/`` knows about this module.  :func:`instrument`
replaces selected methods on the layer classes with thin wrappers that
record one span per call (name, start, end, parent span, operation id)
into a :class:`Tracer` held in memory, and restores the originals on
exit.  A wrapper passes its arguments and return value through untouched,
so a traced run computes bitwise the same results as an untraced one
(the benchmark checks this).

A span's self time is its duration minus the durations of its direct
child spans.  Spans of one workload operation (a Table II row, a training
cell, a serve phase) share the operation id set with :meth:`Tracer.operation`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Tracer", "instrument", "trace_targets"]


class Span(NamedTuple):
    """One recorded call.  ``parent`` is ``-1`` for a top-level span."""

    id: int
    parent: int
    op: str
    name: str
    start: float
    end: float
    label: str = ""
    rows: int = 0
    cols: int = 0
    itemsize: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span sink shared by every wrapped method."""

    def __init__(self) -> None:
        # Plain tuples: the garbage collector stops tracking a tuple of
        # numbers and strings, so hundreds of thousands of recorded calls
        # do not slow every later collection of the traced program.
        self._records: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @property
    def spans(self) -> List[Span]:
        return [Span(*record) for record in self._records]

    @property
    def current_op(self) -> str:
        return getattr(self._local, "op", "")

    @contextlib.contextmanager
    def operation(self, op: str) -> Iterator[None]:
        """Tag every span this thread records inside the block with ``op``."""
        previous = self.current_op
        self._local.op = op
        try:
            yield
        finally:
            self._local.op = previous

    def wrap(
        self,
        name: str,
        fn: Callable,
        label: Optional[Callable] = None,
        shape: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``label(args)`` names the span's subject (e.g. the sampler of a
        ``Trainer.fit``); ``shape`` records the result array's rows,
        columns and item size, from which the report computes flop and
        byte counts.
        """
        records, ids, local = self._records, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            rows = cols = itemsize = 0
            if shape:
                dims = getattr(result, "shape", ())
                rows = int(dims[0]) if len(dims) > 1 else 1
                cols = int(dims[-1]) if dims else 0
                itemsize = int(result.dtype.itemsize)
            records.append(
                (
                    span_id,
                    parent,
                    getattr(local, "op", ""),
                    name,
                    start,
                    end,
                    label(args) if label is not None else "",
                    rows,
                    cols,
                    itemsize,
                )
            )
            return result

        traced.__wrapped_original__ = fn
        return traced

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON object per line; returns the count."""
        ordered = sorted(self.spans, key=lambda span: span.id)
        with open(path, "w", encoding="utf-8") as handle:
            for span in ordered:
                record = {
                    "id": span.id,
                    "parent": span.parent,
                    "op": span.op,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                }
                if span.label:
                    record["label"] = span.label
                if span.cols:
                    record["rows"] = span.rows
                    record["cols"] = span.cols
                handle.write(json.dumps(record) + "\n")
        return len(ordered)


def _sampler_name(args) -> str:
    return str(getattr(args[0].sampler, "name", type(args[0].sampler).__name__))


def trace_targets() -> List[Tuple[type, str, str, Optional[Callable], bool]]:
    """``(class, method, span name, label, record shape)`` for every
    wrapped public method, one per layer boundary the report reads."""
    from repro.backend.numpy_backend import NumpyBackend
    from repro.data.interactions import InteractionMatrix
    from repro.eval.protocol import Evaluator
    from repro.experiments.engine.core import ExperimentEngine
    from repro.experiments.engine.store import ArtifactStore
    from repro.models.biased_mf import BiasedMatrixFactorization
    from repro.models.lightgcn import LightGCN
    from repro.models.mf import MatrixFactorization
    from repro.samplers import (
        AOBPRSampler,
        BayesianNegativeSampler,
        DynamicNegativeSampler,
        PopularityNegativeSampler,
        PosteriorOnlySampler,
        RandomNegativeSampler,
        SRNSSampler,
    )
    from repro.samplers.cdf import CachedCDF, ExactCDF, SubsampledCDF
    from repro.samplers.variants import WarmStartSampler
    from repro.serve.cache import TopKCache
    from repro.serve.coalescer import RequestCoalescer
    from repro.serve.service import RankingService
    from repro.train.trainer import Trainer

    targets: List[Tuple[type, str, str, Optional[Callable], bool]] = [
        (Trainer, "fit", "train.fit", _sampler_name, False),
        (Evaluator, "evaluate", "eval.evaluate", None, False),
        (ExperimentEngine, "run_many", "engine.run_many", None, False),
        (ArtifactStore, "load", "engine.lookup", None, False),
        (ArtifactStore, "store", "engine.commit", None, False),
        (RankingService, "top_k", "serve.top_k", None, False),
        (RankingService, "add_interactions", "serve.add_interactions", None, False),
        (RequestCoalescer, "submit", "serve.coalesce.submit", None, False),
        (TopKCache, "get", "serve.cache.get", None, False),
        (InteractionMatrix, "with_appended", "data.with_appended", None, False),
    ]
    for sampler in (
        RandomNegativeSampler,
        PopularityNegativeSampler,
        AOBPRSampler,
        DynamicNegativeSampler,
        SRNSSampler,
        BayesianNegativeSampler,
        PosteriorOnlySampler,
        WarmStartSampler,
    ):
        for method in ("sample_for_user", "sample_batch"):
            targets.append((sampler, method, "samplers." + method, None, False))
    for estimator in (ExactCDF, SubsampledCDF, CachedCDF):
        for method in ("cdf_for_user", "cdf_for_batch"):
            targets.append((estimator, method, "samplers.cdf", None, False))
    for model in (MatrixFactorization, BiasedMatrixFactorization, LightGCN):
        for method in ("scores", "scores_batch", "score_items_batch", "score_pairs"):
            targets.append((model, method, "models.score", None, True))
        targets.append((model, "train_step", "models.train_step", None, False))
    for kernel in ("matvec", "gemm_nt", "pair_dot", "gather_dot", "spmm", "topk"):
        targets.append((NumpyBackend, kernel, "backend." + kernel, None, False))
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every :func:`trace_targets` method for the duration of the block.

    Methods a class inherits are wrapped on that class (and removed again
    on exit), so each concrete class reports under its own spans while
    its parents stay untouched.
    """
    restore: List[Tuple[type, str, object]] = []
    missing = object()
    try:
        for cls, method, name, label, shape in trace_targets():
            original = cls.__dict__.get(method, missing)
            restore.append((cls, method, original))
            # An inherited method may already be wrapped on a parent
            # target; wrap the plain function so each call is one span.
            fn = getattr(cls, method)
            fn = getattr(fn, "__wrapped_original__", fn)
            setattr(cls, method, tracer.wrap(name, fn, label, shape))
        yield tracer
    finally:
        for cls, method, original in reversed(restore):
            if original is missing:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
