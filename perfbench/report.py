"""Metric catalogue and the per-layer metrics derived from recorded spans.

Every run prints every metric of its mode (``--trace 0``: the end-to-end
set, ``--trace 1``: the per-layer set), with the unit given here;
``BENCHMARK.json`` declares the same names and units (the selftest pins
the two together).  A per-layer metric a workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from perfbench.spans import Span

__all__ = [
    "CATALOG_CELLS",
    "END_TO_END",
    "LAYERS",
    "PAPER_CELLS",
    "layer_metrics",
    "percentile",
]

PAPER_CELLS = ("rns", "pns", "aobpr", "dns", "srns", "bns")
CATALOG_CELLS = ("mf-exact", "mf-f32", "mf-sub256", "lightgcn-exact")

#: (name, unit, better) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ndcg20", "ratio", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p95_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("goodput_rps", "1/s", "higher"),
    ("ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _layer_catalogue() -> Tuple[Tuple[str, str, str], ...]:
    rows: List[Tuple[str, str, str]] = [
        ("models.train_step.calls", "count", "lower"),
        ("models.train_step.s", "s", "lower"),
        ("models.train_step.us_per_call", "us", "lower"),
        ("models.score.calls", "count", "lower"),
        ("models.score.s", "s", "lower"),
        ("models.score.rows", "count", "lower"),
        ("models.score.gflop", "GFLOP", "lower"),
        ("models.score.mb", "MB", "lower"),
        ("samplers.calls", "count", "lower"),
        ("samplers.s", "s", "lower"),
        ("samplers.self_s", "s", "lower"),
        ("samplers.us_per_call", "us", "lower"),
        ("samplers.cdf.calls", "count", "lower"),
        ("samplers.cdf.s", "s", "lower"),
        ("samplers.tnr", "ratio", "higher"),
        ("train.fit_s", "s", "lower"),
        ("train.self_s", "s", "lower"),
        ("train.triples", "count", "higher"),
    ]
    rows += [
        (f"train.{cell}.us_per_triple", "us", "lower")
        for cell in PAPER_CELLS + CATALOG_CELLS
    ]
    for kernel in ("gemm_nt", "matvec", "topk"):
        rows += [
            (f"backend.{kernel}.calls", "count", "lower"),
            (f"backend.{kernel}.s", "s", "lower"),
        ]
    rows += [
        ("eval.s", "s", "lower"),
        ("eval.self_s", "s", "lower"),
        ("eval.users_per_s", "1/s", "higher"),
        ("engine.lookup.calls", "count", "lower"),
        ("engine.lookup.s", "s", "lower"),
        ("engine.commit.calls", "count", "lower"),
        ("engine.commit.s", "s", "lower"),
        ("engine.execute.s", "s", "lower"),
        ("engine.hits", "count", "higher"),
        ("engine.misses", "count", "lower"),
        ("engine.retries", "count", "lower"),
        ("engine.quarantined", "count", "lower"),
        ("engine.replay_s", "s", "lower"),
        ("serve.hit_rate", "ratio", "higher"),
        ("serve.scored_users", "count", "lower"),
        ("serve.degraded", "count", "lower"),
        ("serve.invalidated", "count", "lower"),
        ("serve.coalesce.batches", "count", "lower"),
        ("serve.coalesce.mean_batch", "count", "higher"),
        ("serve.coalesce.wait_ms_p50", "ms", "lower"),
        ("serve.coalesce.wait_ms_p99", "ms", "lower"),
        ("serve.miss_ms_p50", "ms", "lower"),
        ("serve.miss_ms_p99", "ms", "lower"),
        ("serve.cache.get_us_p50", "us", "lower"),
        ("serve.append_ms_p50", "ms", "lower"),
        ("data.load_s", "s", "lower"),
        ("data.with_appended_ms_p50", "ms", "lower"),
        ("reliability.breaker_opens", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    return tuple(rows)


#: (name, unit, better) of every per-layer metric.
LAYERS = _layer_catalogue()


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (an observed value), 0 for no values."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        return 0.0
    return float(np.percentile(array, q, method="higher"))


def layer_metrics(
    spans: List[Span],
    *,
    reps: int,
    n_factors: int,
    cell_of: Optional[Callable[[Span], str]] = None,
    triples_per_cell: Optional[Mapping[str, int]] = None,
    eval_users: int = 0,
    extra: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics from the spans of ``reps`` traced repetitions.

    Counts and seconds are per repetition.  ``cell_of`` maps a
    ``train.fit`` span to its cell name; ``eval_users`` is the number of
    users one repetition evaluates; ``extra`` supplies the values read
    from the program's public counters rather than from spans.
    """
    out: Dict[str, float] = {name: 0.0 for name, _, _ in LAYERS}
    reps = max(int(reps), 1)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    by_id = {span.id: span for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    children: Dict[int, List[str]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent >= 0:
            child_time[span.parent] += span.duration
            children[span.parent].append(span.name)

    def total(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def self_total(group: Iterable[Span]) -> float:
        return sum(span.duration - child_time[span.id] for span in group)

    steps = by_name["models.train_step"]
    out["models.train_step.calls"] = len(steps) / reps
    out["models.train_step.s"] = total("models.train_step") / reps
    if steps:
        out["models.train_step.us_per_call"] = total("models.train_step") / len(steps) * 1e6

    scores = by_name["models.score"]
    out["models.score.calls"] = len(scores) / reps
    out["models.score.s"] = total("models.score") / reps
    out["models.score.rows"] = sum(span.rows for span in scores) / reps
    # Computed from shapes: one multiply-add per factor and output score;
    # bytes are the output block plus one factor row per output row and
    # output column.
    out["models.score.gflop"] = (
        sum(2.0 * span.rows * span.cols * n_factors for span in scores) / 1e9 / reps
    )
    out["models.score.mb"] = (
        sum(
            (span.rows * span.cols + (span.rows + span.cols) * n_factors) * span.itemsize
            for span in scores
        )
        / 1e6
        / reps
    )

    sampler_spans = [
        span for name in ("samplers.sample_for_user", "samplers.sample_batch")
        for span in by_name[name]
    ]
    # A sampler may delegate to another sampler method (the grouped
    # fallback calls sample_for_user); count the outermost call once.
    outer = [
        span for span in sampler_spans
        if span.parent not in by_id
        or not by_id[span.parent].name.startswith("samplers.sample_")
    ]
    out["samplers.calls"] = len(outer) / reps
    out["samplers.s"] = sum(span.duration for span in outer) / reps
    out["samplers.self_s"] = self_total(sampler_spans) / reps
    if outer:
        out["samplers.us_per_call"] = (
            sum(span.duration for span in outer) / len(outer) * 1e6
        )
    out["samplers.cdf.calls"] = len(by_name["samplers.cdf"]) / reps
    out["samplers.cdf.s"] = total("samplers.cdf") / reps

    fits = by_name["train.fit"]
    out["train.fit_s"] = total("train.fit") / reps
    out["train.self_s"] = self_total(fits) / reps
    if triples_per_cell:
        out["train.triples"] = float(sum(triples_per_cell.values()))
        if cell_of is not None:
            per_cell: Dict[str, List[float]] = defaultdict(list)
            for span in fits:
                per_cell[cell_of(span)].append(span.duration)
            for cell, durations in per_cell.items():
                triples = triples_per_cell.get(cell)
                if triples:
                    out[f"train.{cell}.us_per_triple"] = (
                        sum(durations) / len(durations) / triples * 1e6
                    )

    for kernel in ("gemm_nt", "matvec", "topk"):
        out[f"backend.{kernel}.calls"] = len(by_name["backend." + kernel]) / reps
        out[f"backend.{kernel}.s"] = total("backend." + kernel) / reps

    out["eval.s"] = total("eval.evaluate") / reps
    out["eval.self_s"] = self_total(by_name["eval.evaluate"]) / reps
    if out["eval.s"] > 0:
        out["eval.users_per_s"] = eval_users / out["eval.s"]

    out["engine.lookup.calls"] = len(by_name["engine.lookup"]) / reps
    out["engine.lookup.s"] = total("engine.lookup") / reps
    out["engine.commit.calls"] = len(by_name["engine.commit"]) / reps
    out["engine.commit.s"] = total("engine.commit") / reps
    out["engine.execute.s"] = (
        total("engine.run_many") - total("engine.lookup") - total("engine.commit")
    ) / reps

    submits = by_name["serve.coalesce.submit"]
    out["serve.coalesce.wait_ms_p50"] = percentile(
        ((span.duration - child_time[span.id]) * 1e3 for span in submits), 50
    )
    out["serve.coalesce.wait_ms_p99"] = percentile(
        ((span.duration - child_time[span.id]) * 1e3 for span in submits), 99
    )
    misses = [
        span.duration * 1e3
        for span in by_name["serve.top_k"]
        if "serve.coalesce.submit" in children[span.id]
        or "models.score" in children[span.id]
    ]
    out["serve.miss_ms_p50"] = percentile(misses, 50)
    out["serve.miss_ms_p99"] = percentile(misses, 99)
    out["serve.cache.get_us_p50"] = percentile(
        (span.duration * 1e6 for span in by_name["serve.cache.get"]), 50
    )
    out["serve.append_ms_p50"] = percentile(
        (span.duration * 1e3 for span in by_name["serve.add_interactions"]), 50
    )
    out["data.with_appended_ms_p50"] = percentile(
        (span.duration * 1e3 for span in by_name["data.with_appended"]), 50
    )

    for name, value in (extra or {}).items():
        if name not in out:
            raise KeyError(f"unknown per-layer metric {name!r}")
        out[name] = float(value)
    return out
