"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-datasets``
    Names accepted by ``--dataset`` everywhere.
``train``
    One training run (dataset × model × sampler) with final metrics.
``experiment``
    Regenerate one of the paper's artifacts (table1..4, fig1..5) at a
    chosen scale and print it.  ``--workers`` parallelizes the runs;
    results are cached content-addressed under ``--cache-dir`` so a
    repeated artifact is assembled without retraining.
``run-all``
    Execute every paper artifact off one shared run cache.
    ``--replicates N`` repeats every spec over N seeds and reports the
    across-seed spread (the paper's 10-run protocol).
``serve-bench``
    Benchmark the online serving layer (uncached vs warm-cache vs
    coalesced) and optionally write ``BENCH_serve.json``.
``cache``
    Inspect (``ls``), delete (``clear``), or sweep orphaned staging
    litter out of (``gc``) the run cache.
``lint``
    Run the repo-invariant static analyzer (rules R001–R007: global RNG,
    wallclock in keyed paths, run-key coverage, sampler contracts,
    unordered iteration, blind excepts, dense-kernel purity).  Exit code
    1 on any unsuppressed error.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.data.registry import available_datasets
from repro.utils.logging import enable_console_logging

__all__ = ["main", "build_parser"]

#: Artifact name → runner import path (lazy: importing the experiments
#: package pulls the training stack, which list-datasets doesn't need).
_ARTIFACTS = ("table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5")

#: Artifacts that train through the engine and accept ``engine=``.
#: Mirrors ``repro.experiments.run_all.ENGINE_ARTIFACTS`` (kept literal
#: here so ``--help``/parsing never imports the training stack; a test
#: pins the two in sync).
_ENGINE_ARTIFACTS = frozenset(
    {"table2", "table3", "table4", "fig1", "fig4", "fig5"}
)


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Orchestration flags shared by ``experiment`` and ``run-all``."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="training runs executed concurrently (process pool); 1 keeps "
        "the deterministic sequential backend — both produce identical "
        "metrics per run",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="run-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-bns); runs found there are not retrained",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="compute every run fresh and persist nothing",
    )
    parser.add_argument(
        "--save-models",
        action="store_true",
        help="checkpoint each run's best model into the cache "
        "(model.npz next to result.json; incompatible with --no-cache)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="attempts per training run before it is quarantined "
        "(deterministic seeded backoff between attempts; default: 3 "
        "for the process pool, 1 for the sequential backend)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bayesian Negative Sampling (ICDE 2023) reproduction toolkit",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log progress to stderr"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-datasets", help="list dataset names")

    train = commands.add_parser("train", help="run one training configuration")
    train.add_argument("--dataset", default="tiny")
    train.add_argument("--model", choices=("mf", "lightgcn"), default="mf")
    train.add_argument("--sampler", default="bns")
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--batch-size", type=int, default=16)
    train.add_argument("--lr", type=float, default=0.02)
    train.add_argument("--reg", type=float, default=0.01)
    train.add_argument("--factors", type=int, default=32)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--cdf",
        default=None,
        metavar="SPEC",
        help="Eq. 16 CDF estimator for BNS-family samplers: 'exact' "
        "(default), 'subsampled[:s]' or 'cached[:T]' — the latter two "
        "train sub-linearly in the catalogue size",
    )
    train.add_argument(
        "--min-batch",
        type=int,
        default=None,
        metavar="N",
        help="smallest mini-batch routed through the batched sampling "
        "pipeline (smaller batches take the scalar path); default is the "
        "trainer's bench-tuned crossover",
    )
    train.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="parameter/score precision: float64 is the bitwise-exact "
        "reference, float32 is the fast mode (statistically equivalent)",
    )

    experiment = commands.add_parser(
        "experiment", help="regenerate one paper artifact"
    )
    experiment.add_argument("artifact", choices=_ARTIFACTS)
    experiment.add_argument(
        "--scale", choices=("unit", "bench", "paper"), default="bench"
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--datasets",
        nargs="+",
        default=None,
        metavar="NAME",
        help="override the artifact's dataset(s); artifacts that take a "
        "single dataset use the first name",
    )
    _add_engine_options(experiment)

    run_all = commands.add_parser(
        "run-all",
        help="regenerate every paper artifact off one shared run cache",
    )
    run_all.add_argument(
        "--scale", choices=("unit", "bench", "paper"), default="bench"
    )
    run_all.add_argument("--seed", type=int, default=0)
    run_all.add_argument(
        "--artifacts",
        nargs="+",
        default=None,
        choices=_ARTIFACTS,
        metavar="NAME",
        help="subset of artifacts to produce (default: all)",
    )
    run_all.add_argument(
        "--dataset",
        default=None,
        metavar="NAME",
        help="override every artifact's dataset with one name (smoke "
        "runs use 'tiny'); default keeps each artifact's paper dataset",
    )
    run_all.add_argument(
        "--output-dir",
        default=None,
        metavar="PATH",
        help="also write each artifact as <name>.txt under PATH",
    )
    run_all.add_argument(
        "--replicates",
        type=int,
        default=1,
        metavar="N",
        help="repeat every spec in the grid over N seeds and report the "
        "across-seed mean/std (10 reproduces the paper's replication "
        "protocol); the extra seeds share the run cache",
    )
    _add_engine_options(run_all)

    serve_bench = commands.add_parser(
        "serve-bench",
        help="benchmark the online serving layer (qps, p50/p99, hit-rate)",
    )
    serve_bench.add_argument(
        "--dataset",
        default=None,
        metavar="NAME",
        help="registry dataset name (default: the synthetic serve-bench "
        "universe, ~1.3k users x ~2.3k items)",
    )
    serve_bench.add_argument("--requests", type=int, default=4000, metavar="N")
    serve_bench.add_argument("--k", type=int, default=10)
    serve_bench.add_argument("--cache-k", type=int, default=100, metavar="K")
    serve_bench.add_argument(
        "--clients",
        type=int,
        default=8,
        metavar="N",
        help="concurrent client threads in the coalescing phase",
    )
    serve_bench.add_argument("--max-batch", type=int, default=64, metavar="N")
    serve_bench.add_argument(
        "--max-wait-ms",
        type=float,
        default=1.0,
        metavar="MS",
        help="coalescer fill window in milliseconds",
    )
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the measurements as JSON (the BENCH_serve.json "
        "schema)",
    )

    lint = commands.add_parser(
        "lint", help="check the tree against the repo's determinism/"
        "cache-key/sampler/robustness invariants (R001–R007)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule subset (e.g. R001,R005); default: all",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is schema-stable for tooling)",
    )
    lint.add_argument(
        "--root",
        default=None,
        metavar="PATH",
        help="repository root for cross-file lookups (default: cwd); "
        "R004 finds tests/property/ under it",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and their invariants, then exit",
    )

    cache = commands.add_parser("cache", help="inspect or clear the run cache")
    cache_actions = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_actions.add_parser("ls", help="list cached runs")
    cache_ls.add_argument("--cache-dir", default=None, metavar="PATH")
    cache_clear = cache_actions.add_parser("clear", help="delete cached runs")
    cache_clear.add_argument("--cache-dir", default=None, metavar="PATH")
    cache_gc = cache_actions.add_parser(
        "gc",
        help="remove staging litter left by crashed writers (committed "
        "entries are never touched)",
    )
    cache_gc.add_argument("--cache-dir", default=None, metavar="PATH")
    cache_gc.add_argument(
        "--min-age-hours",
        type=float,
        default=24.0,
        metavar="H",
        help="only reap staging files older than this (default 24h; 0 "
        "sweeps everything — safe only when no writer is running)",
    )

    return parser


def _make_engine(args: argparse.Namespace):
    """Build the orchestration engine an ``experiment``/``run-all`` uses."""
    from repro.experiments.engine import ExperimentEngine

    if args.save_models and args.no_cache:
        raise SystemExit("--save-models needs the cache; drop --no-cache")
    retry_policy = None
    if args.retries is not None:
        from repro.reliability import RetryPolicy

        if args.retries < 1:
            raise SystemExit(f"--retries must be >= 1, got {args.retries}")
        retry_policy = RetryPolicy(max_attempts=args.retries)
    store = None if args.no_cache else _resolve_store(args.cache_dir)
    return ExperimentEngine(
        store,
        workers=args.workers,
        save_models=args.save_models,
        retry_policy=retry_policy,
    )


def _resolve_store(cache_dir: Optional[str]):
    from repro.experiments.engine import ArtifactStore, default_cache_dir

    return ArtifactStore(Path(cache_dir) if cache_dir else default_cache_dir())


def _cmd_list_datasets(args: argparse.Namespace) -> int:
    for name in available_datasets():
        print(name)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.experiments.config import RunSpec
    from repro.experiments.runner import run_spec

    spec = RunSpec(
        dataset=args.dataset,
        model=args.model,
        sampler=args.sampler,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        reg=args.reg,
        n_factors=args.factors,
        seed=args.seed,
        cdf=args.cdf,
        batched_sampling_min_batch=args.min_batch,
        dtype=args.dtype,
    )
    result = run_spec(spec)
    print(f"run: {spec.label()} (epochs={spec.epochs}, lr={spec.lr})")
    for key in sorted(result.metrics):
        print(f"  {key:<14} {result.metrics[key]:.4f}")
    return 0


def _artifact_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """Per-artifact keyword arguments from the CLI flags."""
    kwargs: Dict[str, object] = {"scale": args.scale, "seed": args.seed}
    if args.datasets:
        if args.artifact in ("table1", "table2"):
            kwargs["datasets"] = tuple(args.datasets)
        else:
            kwargs["dataset_name"] = args.datasets[0]
    if args.artifact in _ENGINE_ARTIFACTS:
        kwargs["engine"] = _make_engine(args)
    else:
        _note_unused_engine_flags(args)
    return kwargs


def _note_unused_engine_flags(args: argparse.Namespace) -> None:
    if (
        args.workers != 1
        or args.cache_dir
        or args.no_cache
        or args.save_models
        or args.retries is not None
    ):
        print(
            f"note: {args.artifact} trains nothing; --workers/--cache-dir/"
            "--no-cache/--save-models/--retries have no effect on it",
            file=sys.stderr,
        )


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    runner = getattr(experiments, f"run_{args.artifact}")
    if args.artifact in ("fig2", "fig3"):
        # Analytic artifacts: no scale, no datasets, no training runs.
        _note_unused_engine_flags(args)
        if args.datasets:
            print(
                f"note: {args.artifact} is closed-form; --datasets has no "
                "effect on it",
                file=sys.stderr,
            )
        result = runner()
    else:
        result = runner(**_artifact_kwargs(args))
    print(result.format())
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import ALL_ARTIFACTS, run_all

    artifacts = tuple(args.artifacts) if args.artifacts else ALL_ARTIFACTS
    engine = _make_engine(args)
    result = run_all(
        scale=args.scale,
        seed=args.seed,
        artifacts=artifacts,
        dataset=args.dataset,
        engine=engine,
        replicates=args.replicates,
    )

    output_dir = Path(args.output_dir) if args.output_dir else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    for name in artifacts:
        text = result.artifacts[name].format()
        print(text)
        print()
        if output_dir is not None:
            (output_dir / f"{name}.txt").write_text(text + "\n")
    print(result.format_summary())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.runner import (
        describe_rules,
        format_json,
        format_text,
        lint_paths,
    )

    if args.list_rules:
        print(describe_rules())
        return 0
    rules = None
    if args.rules:
        rules = [part.strip() for part in args.rules.split(",") if part.strip()]
    root = Path(args.root) if args.root else None
    try:
        report = lint_paths(
            [Path(p) for p in args.paths], rules=rules, root=root
        )
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(str(error))
    formatted = (
        format_json(report) if args.format == "json" else format_text(report)
    )
    print(formatted)
    return report.exit_code


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from repro.serve.bench import DEFAULT_DATASET, run_serve_bench

    result = run_serve_bench(
        args.dataset or DEFAULT_DATASET,
        n_requests=args.requests,
        k=args.k,
        cache_k=args.cache_k,
        n_clients=args.clients,
        max_batch=args.max_batch,
        max_wait=args.max_wait_ms / 1e3,
        seed=args.seed,
    )
    print(result.format())
    if args.json:
        Path(args.json).write_text(
            json.dumps(result.to_payload(), indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = _resolve_store(args.cache_dir)
    if args.cache_command == "ls":
        entries = store.entries()
        if not entries:
            print(f"cache empty ({store.version_dir})")
            return 0
        print(f"{'key':<14} {'run':<28} {'seed':>4} {'model?':>6}  cached at")
        for entry in entries:
            stamp = datetime.fromtimestamp(entry.mtime).isoformat(
                sep=" ", timespec="seconds"
            )
            print(
                f"{entry.key[:12]:<14} {entry.label:<28} {entry.seed:>4} "
                f"{'yes' if entry.has_model else 'no':>6}  {stamp}"
            )
        print(f"{len(entries)} cached runs in {store.version_dir}")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} cached runs from {store.version_dir}")
        return 0
    if args.cache_command == "gc":
        if args.min_age_hours < 0:
            raise SystemExit(
                f"--min-age-hours must be >= 0, got {args.min_age_hours}"
            )
        removed = store.gc_staging(args.min_age_hours * 3600.0)
        print(
            f"removed {removed} orphaned staging file(s) from {store.root}"
        )
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


_HANDLERS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "list-datasets": _cmd_list_datasets,
    "train": _cmd_train,
    "experiment": _cmd_experiment,
    "run-all": _cmd_run_all,
    "serve-bench": _cmd_serve_bench,
    "cache": _cmd_cache,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.verbose:
        enable_console_logging()
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
