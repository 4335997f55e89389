"""Run benchmark workloads; the last stdout line is the result as JSON.

One workload, as the benchmark harness calls it::

    python3 perfbench/run.py --workload paper-mf-b1 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions, checks they compute the same results,
writes the spans to ``.perfbench/spans-<workload>-seed<seed>.jsonl`` and
prints the per-layer metrics.  ``--workload all`` runs every workload
untraced and then traced.  ``--size smoke`` shrinks every input so the
whole set runs in seconds.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Thread-count variables of the BLAS libraries NumPy may link.  Every
#: workload runs on one CPU, so one BLAS thread; it also steadies the
#: timings.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
#: Set before NumPy is imported.  Whether a large array gets transparent
#: huge pages depends on the host's memory at that moment; turning
#: NumPy's request for them off removes that source of run-to-run spread.
STEADY_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0", **{var: BLAS_THREADS for var in BLAS_THREAD_VARS}}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "env": {var: os.environ.get(var) for var in STEADY_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def run_one(name: str, args: argparse.Namespace, trace: bool, cpus) -> dict:
    from perfbench.report import END_TO_END, LAYERS
    from perfbench.workloads import WORKLOADS, Run

    # One CPU: migrations between CPUs were the largest source of
    # process-to-process spread in training wall time.
    os.sched_setaffinity(0, {max(cpus)})

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(args.seed, args.seconds, trace, args.size, workdir)
    try:
        metrics = WORKLOADS[name](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = LAYERS if trace else END_TO_END
    units = {metric: unit for metric, unit, _ in expected}
    missing = sorted(set(units) - set(metrics))
    if missing:
        run.problems.append(f"workload reported no value for {missing}")
    if trace:
        spans_path = out_dir / f"spans-{name}-seed{args.seed}.jsonl"
        count = run.tracer.write_jsonl(spans_path)
        print(json.dumps({"spans": str(spans_path.relative_to(ROOT)), "count": count}))
    for problem in run.problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {
            metric: {"value": float(metrics[metric]), "unit": unit}
            for metric, unit in units.items()
            if metric in metrics
        },
    }
    record = dict(result, workload=name, trace=int(trace), stamp=stamp(args.seed))
    os.sched_setaffinity(0, cpus)
    (out_dir / f"result-{name}-seed{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    os.environ.update(STEADY_ENV)  # before NumPy is first imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    print(json.dumps({"stamp": stamp(args.seed)}))
    cpus = os.sched_getaffinity(0)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = {}
    for trace in modes:
        for name in names:
            results[(name, trace)] = result = run_one(name, args, trace, cpus)
            if len(results) > 1 or args.workload == "all":
                print(json.dumps({"workload": name, "trace": int(trace), **result}))
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for (name, trace), r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    else:
        final = results[(names[0], bool(args.trace))]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
