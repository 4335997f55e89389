"""The benchmark workloads.

Each workload function takes a :class:`Run` (seed, seconds to measure,
tracing on or off, size) and returns its metrics: the end-to-end set
untraced, the per-layer set traced.  Output checks append to
``run.problems``; failed operations count in ``run.failed``.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

from perfbench import checks, loadgen
from perfbench.report import CATALOG_CELLS, PAPER_CELLS, layer_metrics, percentile
from perfbench.spans import Tracer, instrument
from repro.data.registry import dataset_from_log, load_dataset
from repro.data.synthetic import CalibrationPreset, LatentFactorGenerator
from repro.eval.protocol import Evaluator
from repro.eval.sampling_quality import SamplingQualityRecorder
from repro.experiments.config import RunSpec
from repro.experiments.engine import (
    ArtifactStore,
    EngineRequest,
    ExperimentEngine,
    GridExecutionError,
    load_dataset_cached,
)
from repro.experiments.runner import build_model
from repro.samplers.variants import make_sampler
from repro.serve.service import RankingService
from repro.train.trainer import Trainer, TrainingConfig
from repro.utils.rng import as_rng

__all__ = ["Run", "WORKLOADS"]

N_FACTORS = 32

#: Every dataset is generated from this seed, so each ``--seed`` measures
#: the same amount of work; ``--seed`` drives model initialization,
#: sampling and traffic.
DATASET_SEED = 0

#: Workload sizes: ``full`` is the benchmark, ``smoke`` runs in seconds.
#: ``setups`` dataset builds are timed before the first repetition and
#: ``rep_setups`` more after every repetition; ``setup_s`` is their median.
PAPER_SIZES = {
    "full": {
        "dataset": "ml-100k-small", "epochs": 1, "setups": 20, "rep_setups": 20,
        "reads": 1000, "writes": 100,
    },
    "smoke": {
        "dataset": "tiny", "epochs": 1, "setups": 3, "rep_setups": 1,
        "reads": 20, "writes": 6,
    },
}
CATALOG_SIZES = {
    "full": {
        "users": 400, "items": 16_000, "interactions": 6_000, "epochs": 1,
        "setups": 3, "rep_setups": 1, "reads": 500, "writes": 150,
    },
    "smoke": {
        "users": 40, "items": 800, "interactions": 600, "epochs": 1,
        "setups": 3, "rep_setups": 1, "reads": 20, "writes": 6,
    },
}


@dataclass
class Run:
    """One invocation: inputs, and what the workload found."""

    seed: int
    seconds: float
    trace: bool
    size: str
    workdir: Path
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tracer: Tracer = field(default_factory=Tracer)

    def rng(self, *stream: int):
        """A generator for one named input stream of this seed."""
        return as_rng(np.random.SeedSequence([self.seed, *stream]))

    def check(self, problems: List[str]) -> None:
        self.problems.extend(problems)


class SetupTimer:
    """Times repeated builds of a workload's inputs.

    Builds are timed before the first repetition and again after every
    repetition, so the median spans the whole run rather than one moment
    of the host's load.
    """

    def __init__(self, build: Callable[[], object]) -> None:
        self._build = build
        self.times: List[float] = []

    def time(self, reps: int):
        """Build ``reps`` times; returns the last build."""
        value = None
        for _ in range(reps):
            start = perf_counter()
            value = self._build()
            self.times.append(perf_counter() - start)
        return value

    @property
    def median(self) -> float:
        return statistics.median(self.times)


def _repetitions(run: Run, rep: Callable[[bool, int], Tuple[float, object]]):
    """Call ``rep(traced, seed)`` while the next call fits in ``run.seconds``.

    Repetition ``i`` trains with seed ``100 * run.seed + i``, so a run's
    medians average over several seeds.  Traced runs alternate an
    untraced and a traced repetition of the same seed, at least one pair,
    so the two are measured under the same conditions and their results
    can be compared bit for bit.  The garbage of each repetition (trained
    models hold reference cycles) is collected before the next, so
    ``peak_rss_mb`` is the peak of one repetition, not a count of how
    many fitted in the run.
    """
    done: List[Tuple[bool, float, object]] = []
    start = perf_counter()
    while True:
        traced = run.trace and len(done) % 2 == 1
        index = len(done) // 2 if run.trace else len(done)
        seconds, value = rep(traced, 100 * run.seed + index)
        done.append((traced, seconds, value))
        gc.collect()
        elapsed = perf_counter() - start
        if run.trace and len(done) % 2:
            continue
        if elapsed + elapsed / len(done) > run.seconds:
            return done


def _check_repetitions(run: Run, cells_of: List[Tuple[bool, Dict[str, dict]]]) -> None:
    """Cell metrics in range; each traced repetition equal to the
    untraced repetition of the same seed before it."""
    for index, (traced, cells) in enumerate(cells_of):
        run.check(checks.check_cell_metrics({c: v["metrics"] for c, v in cells.items()}))
        if traced:
            run.check(checks.check_same_cells(cells_of[index - 1][1], cells, "traced vs untraced"))


def _traced(run: Run, on: bool):
    return instrument(run.tracer) if on else contextlib.nullcontext()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail_latency(latencies, q: float) -> float:
    """The ``q``-th percentile latency, robust to one stalled stretch.

    The samples are cut into consecutive windows long enough for ten
    samples beyond the percentile (200 for p95), and the median of the
    windows' percentiles is reported.
    """
    values = np.asarray(latencies, dtype=np.float64)
    window = int(np.ceil(10 / (1 - q / 100)))
    count = max(values.size // window, 1)
    return float(np.median([percentile(part, q) for part in np.array_split(values, count)]))


def _ok_frac(run: Run) -> float:
    return 1.0 - run.failed / max(run.attempted, 1)


def _overhead_pct(done) -> float:
    plain = [seconds for traced, seconds, _ in done if not traced]
    traced = [seconds for is_traced, seconds, _ in done if is_traced]
    return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0


def _coverage(spans, busy_s: float) -> float:
    top = sum(span.duration for span in spans if span.parent < 0)
    return top / busy_s if busy_s > 0 else 0.0


def _training_metrics(run, setup_s, done, ndcg, triples, read_ms, write_ms):
    """End-to-end metrics of a closed-loop training workload."""
    wall_s = statistics.median([seconds for traced, seconds, _ in done if not traced])
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ndcg20": float(np.mean(ndcg)),
        "read_p50_ms": percentile(read_ms, 50),
        "read_p95_ms": _tail_latency(read_ms, 95),
        "write_p50_ms": percentile(write_ms, 50),
        "goodput_rps": triples / wall_s,
        "ok_frac": _ok_frac(run),
        "peak_rss_mb": _peak_rss_mb(),
    }


# ---------------------------------------------------------------------- #
# paper-mf-b1
# ---------------------------------------------------------------------- #


def paper_mf_b1(run: Run) -> Dict[str, float]:
    """Table II row at the paper's MF config through the cached engine."""
    size = PAPER_SIZES[run.size]
    name = size["dataset"]
    setup = SetupTimer(lambda: load_dataset(name, seed=DATASET_SEED))
    dataset = setup.time(size["setups"])
    load_dataset_cached(name, DATASET_SEED)  # the engine's per-process memo
    read_ms: List[float] = []
    write_ms: List[float] = []
    replay_hits: List[int] = []

    def rep(traced: bool, seed: int):
        requests = [
            EngineRequest(
                RunSpec(
                    dataset=name, model="mf", sampler=sampler, epochs=size["epochs"],
                    batch_size=1, lr=0.01, reg=0.01, n_factors=N_FACTORS, seed=seed,
                ),
                dataset_seed=DATASET_SEED,
                record_sampling_quality=True,
            )
            for sampler in PAPER_CELLS
        ]
        store = run.workdir / f"store-{seed}-{int(traced)}"
        engine = ExperimentEngine(ArtifactStore(store), workers=1)
        with _traced(run, traced), run.tracer.operation(f"row-{seed}"):
            start = perf_counter()
            try:
                results = engine.run_many(requests)
            except GridExecutionError as error:
                run.problems.append(f"cold row failed: {error}")
                results = None
            seconds = perf_counter() - start
        report = engine.last_report
        # A retried job failed an attempt before it succeeded.
        retried = sum(report.retried.values()) if report else 0
        quarantined = len(report.quarantined) if report else len(PAPER_CELLS)
        if results is not None:
            replay_hits.append(_paper_reads(run, size, requests, store, results, read_ms))
            _matrix_writes(run, size, dataset, write_ms)
        setup.time(size["rep_setups"])
        # Only the small per-cell results are kept: nothing a repetition
        # holds on to may grow the process with the repetition count.
        return seconds, (results, retried, quarantined, engine.stats.misses)

    done = _repetitions(run, rep)
    retries = sum(retried for _, _, (_, retried, _, _) in done)
    quarantined = sum(lost for _, _, (_, _, lost, _) in done)
    run.attempted += len(PAPER_CELLS) * len(done) + retries
    run.failed += quarantined + retries
    cells_of = [
        (traced, {r.spec.sampler: checks.cell_record(r.metrics, r.loss_curve) for r in results})
        for traced, _, (results, *_) in done
        if results is not None
    ]
    if len(cells_of) < len(done):
        return {}
    _check_repetitions(run, cells_of)

    untraced = [results for traced, _, (results, *_) in done if not traced]
    triples = len(PAPER_CELLS) * size["epochs"] * dataset.train.n_interactions
    if not run.trace:
        ndcg = [r.metric("ndcg@20") for results in untraced for r in results]
        return _training_metrics(run, setup.median, done, ndcg, triples, read_ms, write_ms)
    traced_runs = [item for item in done if item[0]]
    return layer_metrics(
        run.tracer.spans,
        reps=len(traced_runs),
        n_factors=N_FACTORS,
        cell_of=lambda span: span.label.lower(),
        triples_per_cell={
            cell: size["epochs"] * dataset.train.n_interactions for cell in PAPER_CELLS
        },
        eval_users=len(PAPER_CELLS) * dataset.evaluable_users().size,
        extra={
            "samplers.tnr": float(
                np.mean([r.tnr_series[-1] for results in untraced for r in results])
            ),
            "engine.hits": float(np.mean(replay_hits)),  # per warm replay
            "engine.misses": float(np.mean([misses for _, _, (*_, misses) in done])),
            "engine.retries": retries / len(done),
            "engine.quarantined": quarantined / len(done),
            "engine.replay_s": percentile(read_ms, 50) / 1e3,
            "data.load_s": setup.median,
            "trace.overhead_pct": _overhead_pct(done),
            "trace.coverage": _coverage(run.tracer.spans, sum(s for _, s, _ in traced_runs)),
        },
    )


def _paper_reads(run, size, requests, store_dir, cold, read_ms) -> int:
    """Reads: fresh engines replay the row from its committed store.
    Returns the cache hits of one replay."""
    cold_payloads = [res.payload for res in cold]
    store = ArtifactStore(store_dir)
    for _ in range(size["reads"]):
        start = perf_counter()
        engine = ExperimentEngine(store, workers=1)
        replay = engine.run_many(requests)
        read_ms.append((perf_counter() - start) * 1e3)
        if [res.payload for res in replay] != cold_payloads or not all(
            res.cached for res in replay
        ):
            run.failed += 1
            run.problems.append("warm replay did not return the cold payloads")
    run.attempted += size["reads"]
    return engine.stats.hits


def _check_appended(run, before, after, users, items) -> None:
    """Every written pair landed in ``after``, and nothing else did."""
    grown = after.n_interactions - before.n_interactions
    if grown != users.size or not after.contains_pairs(users, items).all():
        run.failed += 1
        run.problems.append("appended interactions missing from the training matrix")


def _matrix_writes(run, size, dataset, write_ms):
    """Writes: single new interactions appended to the training matrix
    (``with_appended``, the path new feedback takes).  Store commits,
    which fsync, and checkpoint saves were tried first: their latency
    followed the shared VM's disk rather than the program (spreads 0.38
    and 0.20 over ten runs)."""
    users, items = loadgen.new_pairs(run.rng(4, len(write_ms)), dataset.train, size["writes"])
    matrix = dataset.train
    for user, item in zip(users.tolist(), items.tolist()):
        start = perf_counter()
        matrix = matrix.with_appended([user], [item])
        write_ms.append((perf_counter() - start) * 1e3)
    run.attempted += size["writes"]
    _check_appended(run, dataset.train, matrix, users, items)


# ---------------------------------------------------------------------- #
# catalog16k-b512
# ---------------------------------------------------------------------- #

#: cell -> (model, CDF estimator spec, dtype)
CATALOG_CELL_SPECS = {
    "mf-exact": ("mf", None, "float64"),
    "mf-f32": ("mf", None, "float32"),
    "mf-sub256": ("mf", "subsampled:256", "float64"),
    "lightgcn-exact": ("lightgcn", None, "float64"),
}

#: Operation id prefix of the serve phase's spans.
SERVE_OP = "serve"
#: Per-layer metrics read from the serve phase's own spans.
SERVE_SPAN_METRICS = (
    "serve.coalesce.wait_ms_p50",
    "serve.coalesce.wait_ms_p99",
    "serve.miss_ms_p50",
    "serve.miss_ms_p99",
    "serve.cache.get_us_p50",
    "serve.append_ms_p50",
    "data.with_appended_ms_p50",
)


def catalog16k_b512(run: Run) -> Dict[str, float]:
    """Four BNS cells at batch 512 over a 16k-item catalogue, then serving
    from the trained exact-MF cell."""
    size = CATALOG_SIZES[run.size]
    preset = CalibrationPreset(
        name="catalog16k", n_users=size["users"], n_items=size["items"],
        n_interactions=size["interactions"], n_factors=16,
    )

    def generate():
        rng = as_rng(DATASET_SEED)
        log = LatentFactorGenerator(preset, seed=rng).generate()
        return dataset_from_log(log, seed=rng)

    setup = SetupTimer(generate)
    dataset = setup.time(size["setups"])

    def train_cell(cell: str, seed: int):
        model_name, cdf, dtype = CATALOG_CELL_SPECS[cell]
        spec = RunSpec(
            dataset="catalog16k", model=model_name, sampler="bns", epochs=size["epochs"],
            batch_size=512, lr=0.02, reg=0.01, n_factors=N_FACTORS, seed=seed,
            cdf=cdf, dtype=dtype,
        )
        model, optimizer, schedule = build_model(spec, dataset)
        recorder = SamplingQualityRecorder(dataset)
        config = TrainingConfig(
            epochs=spec.epochs, batch_size=spec.batch_size, lr=spec.lr, reg=spec.reg,
            seed=spec.seed, lr_schedule=schedule,
        )
        trainer = Trainer(
            model, dataset, make_sampler("bns", **spec.sampler_options), config,
            optimizer=optimizer, callbacks=[recorder],
        )
        history = trainer.fit()
        metrics = Evaluator(dataset, ks=spec.ks).evaluate(model)
        loss = [stats.mean_loss for stats in history]
        return model, checks.cell_record(metrics, loss), recorder.tnr_series[-1]

    read_ms: List[float] = []
    write_ms: List[float] = []
    serve_stats: Dict[str, float] = {}

    def rep(traced: bool, seed: int):
        cells = {}
        with _traced(run, traced):
            start = perf_counter()
            for cell in CATALOG_CELLS:
                with run.tracer.operation(f"{cell}-{seed}"):
                    cells[cell] = train_cell(cell, seed)
            seconds = perf_counter() - start
        with _traced(run, traced), run.tracer.operation(f"{SERVE_OP}-{seed}"):
            stats = _catalog_reads_and_writes(
                run, size, dataset, cells["mf-exact"][0], read_ms, write_ms
            )
        if traced:
            for name, value in stats.items():
                serve_stats[name] = serve_stats.get(name, 0.0) + value
        setup.time(size["rep_setups"])
        # Keep each cell's record and true-negative rate, not its model:
        # nothing a repetition holds on to may grow the process with the
        # repetition count (peak_rss_mb would follow the speed).
        return seconds, {cell: (record, tnr) for cell, (_, record, tnr) in cells.items()}

    done = _repetitions(run, rep)
    run.attempted += len(CATALOG_CELLS) * len(done)
    _check_repetitions(
        run, [(traced, {c: v[0] for c, v in out.items()}) for traced, _, out in done]
    )
    untraced = [out for traced, _, out in done if not traced]
    n_pairs = dataset.train.n_interactions
    triples = len(CATALOG_CELLS) * size["epochs"] * n_pairs
    if not run.trace:
        ndcg = [v[0]["metrics"]["ndcg@20"] for out in untraced for v in out.values()]
        return _training_metrics(run, setup.median, done, ndcg, triples, read_ms, write_ms)
    traced_runs = [item for item in done if item[0]]
    # The serve phase's spans are kept apart, so its scoring calls stay
    # out of the training and evaluation figures.
    serve_spans, train_spans = [], []
    for span in run.tracer.spans:
        (serve_spans if span.op.startswith(SERVE_OP) else train_spans).append(span)
    serving = layer_metrics(serve_spans, reps=len(traced_runs), n_factors=N_FACTORS)
    return layer_metrics(
        train_spans,
        reps=len(traced_runs),
        n_factors=N_FACTORS,
        cell_of=lambda span: span.op.rsplit("-", 1)[0],
        triples_per_cell={cell: size["epochs"] * n_pairs for cell in CATALOG_CELLS},
        eval_users=len(CATALOG_CELLS) * dataset.evaluable_users().size,
        extra={
            **{name: value / len(traced_runs) for name, value in serve_stats.items()},
            **{name: serving[name] for name in SERVE_SPAN_METRICS},
            "samplers.tnr": float(np.mean([v[1] for out in untraced for v in out.values()])),
            "data.load_s": setup.median,
            "trace.overhead_pct": _overhead_pct(done),
            "trace.coverage": _coverage(train_spans, sum(s for _, s, _ in traced_runs)),
        },
    )


def _catalog_reads_and_writes(run, size, dataset, model, read_ms, write_ms):
    """Reads and single-pair writes, one caller, on a trained exact-MF
    cell behind a default ``RankingService``: a cold per-user top-K cache
    and the request coalescer, as served.  Zipf-skewed reads make most
    reads cache hits; each miss waits out the coalescer's window, then
    scores the whole catalogue.  Returns the service's counters."""
    service = RankingService(model, dataset.train)
    stream = len(read_ms)
    readers = loadgen.zipf_users(run.rng(2, stream), dataset.n_users, size["reads"])
    read_ms += _closed_loop(run, lambda user: service.top_k(user, 10), readers)
    users, items = loadgen.new_pairs(run.rng(3, stream), dataset.train, size["writes"])
    write_ms += _closed_loop(
        run,
        lambda index: service.add_interactions([users[index]], [items[index]]),
        np.arange(size["writes"]),
    )
    _check_appended(run, dataset.train, service.train, users, items)
    coalescer = service.coalescer_stats
    counters = {
        "serve.hit_rate": service.stats.hit_rate,
        "serve.scored_users": service.stats.scored_users,
        "serve.degraded": service.stats.degraded,
        "serve.invalidated": service.stats.invalidated,
        "serve.coalesce.batches": coalescer.batches,
        "serve.coalesce.mean_batch": coalescer.mean_batch_size,
        "reliability.breaker_opens": service.breaker.opens,
    }
    run.failed += service.stats.degraded
    # Read back written users (their cache entries were invalidated) and
    # users read before the writes (answered from the cache).
    checked = np.unique(np.concatenate([readers[:8], users[:8]]))
    run.check(checks.check_served_lists(service, checked, 10))
    return counters


def _closed_loop(run: Run, call: Callable[[int], object], args) -> List[float]:
    """Call ``call(arg)`` for each arg in turn; latencies in ms."""
    latencies = []
    for arg in np.asarray(args).tolist():
        start = perf_counter()
        try:
            call(arg)
        except Exception as error:  # counted, reported, never fatal
            run.failed += 1
            run.problems.append(f"operation failed: {error!r}")
            latencies.append(float("inf"))
            continue
        latencies.append((perf_counter() - start) * 1e3)
    run.attempted += len(latencies)
    return latencies


WORKLOADS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "paper-mf-b1": paper_mf_b1,
    "catalog16k-b512": catalog16k_b512,
}
