"""End-to-end training throughput: exact vs sub-linear BNS pipelines.

The sampler micro-benchmarks (``bench_samplers.py``) time one dispatch;
this suite times what the user actually pays — whole training epochs
through :class:`~repro.train.trainer.Trainer` — and compares the three
Eq. 16 CDF estimators on a large-catalogue synthetic dataset where the
``O(n_items)`` terms of the exact pipeline dominate:

* ``exact`` — full ``(U, n_items)`` score block + full negative-score sort
  per batch (the reference configuration);
* ``subsampled`` — ``ScoreRequest.SPARSE``: gather-scored candidates plus
  a DKW-bounded Monte-Carlo CDF subsample, no full rows ever formed;
* ``cached`` — sparse scoring against stale sorted references refreshed
  every ``refresh_every`` dispatches.

Results land in ``BENCH_train.json`` at the repo root.  The acceptance
bar for the sub-linear subsystem: ``subsampled`` must reach >= 3x the
exact pipeline's triples/sec on the default bench universe (quiet
machine).  CI smoke runs a smaller universe and gates at a noise-tolerant
floor via ``REPRO_TRAIN_BENCH_MIN_SPEEDUP``; the universe itself is
overridable through ``REPRO_TRAIN_BENCH_USERS`` / ``_ITEMS`` /
``_INTERACTIONS`` so shared runners stay fast.
"""

import json
import os
import time
from pathlib import Path

from repro.data.registry import dataset_from_log
from repro.data.synthetic import CalibrationPreset, LatentFactorGenerator
from repro.experiments.runner import build_model
from repro.experiments.config import RunSpec
from repro.samplers.variants import make_sampler
from repro.train.trainer import Trainer, TrainingConfig

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_train.json"

#: The compared Eq. 16 estimator configurations (sampler kwargs).
MODES = {
    "exact": None,
    "subsampled": "subsampled:256",
    "cached": "cached:20",
}

EPOCHS = 2
BATCH_SIZE = 512


def _bench_dataset():
    """A catalogue large enough that O(n_items) terms dominate training."""
    preset = CalibrationPreset(
        name="bench-train",
        n_users=int(os.environ.get("REPRO_TRAIN_BENCH_USERS", "400")),
        n_items=int(os.environ.get("REPRO_TRAIN_BENCH_ITEMS", "16000")),
        n_interactions=int(
            os.environ.get("REPRO_TRAIN_BENCH_INTERACTIONS", "6000")
        ),
        n_factors=16,
    )
    log = LatentFactorGenerator(preset, seed=0).generate()
    return dataset_from_log(log, seed=0)


def _epoch_triples_per_second(dataset, cdf_spec, repeats=3):
    """Best-of-N training throughput from fresh models, in triples/sec.

    Best-of-N is the standard load-robust estimator (cf.
    ``bench_samplers._best_seconds``): the exact pipeline's per-batch
    ``(U, n_items)`` score blocks and their sorts make it the mode most
    sensitive to transient memory pressure, and a single-shot timing
    would turn that noise into inflated speedup claims.
    """
    spec = RunSpec(dataset="bench-train", model="mf", sampler="bns")
    n_pairs = dataset.train.n_interactions
    best = None
    for _ in range(repeats):
        model, optimizer, _ = build_model(spec, dataset)
        sampler = make_sampler("bns") if cdf_spec is None else make_sampler(
            "bns", cdf=cdf_spec
        )
        config = TrainingConfig(
            epochs=EPOCHS, batch_size=BATCH_SIZE, lr=0.02, reg=0.01, seed=0
        )
        trainer = Trainer(model, dataset, sampler, config, optimizer=optimizer)
        start = time.perf_counter()
        trainer.fit()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return n_pairs * EPOCHS / best


def test_sublinear_training_speedup():
    """Record exact-vs-sublinear end-to-end throughput and gate the win.

    The headline number for the sub-linear subsystem: BNS training with a
    sparse CDF estimator must beat the exact full-block pipeline by the
    ``REPRO_TRAIN_BENCH_MIN_SPEEDUP`` floor (default 3x) in epoch
    triples/sec on the synthetic large-catalogue bench.
    """
    dataset = _bench_dataset()
    throughput = {}
    for mode, cdf_spec in MODES.items():
        throughput[mode] = round(_epoch_triples_per_second(dataset, cdf_spec), 1)

    payload = {
        "dataset": dataset.name,
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
        "n_train_pairs": dataset.train.n_interactions,
        "epochs": EPOCHS,
        "batch_size": BATCH_SIZE,
        "modes": dict(MODES),
        "triples_per_s": throughput,
        "speedup_subsampled": round(throughput["subsampled"] / throughput["exact"], 2),
        "speedup_cached": round(throughput["cached"] / throughput["exact"], 2),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[saved to {BENCH_JSON}]")
    for mode, value in throughput.items():
        print(f"  {mode:>11s}  {value:>12.1f} triples/s")
    print(
        f"  subsampled speedup {payload['speedup_subsampled']}x, "
        f"cached speedup {payload['speedup_cached']}x"
    )

    floor = float(os.environ.get("REPRO_TRAIN_BENCH_MIN_SPEEDUP", "3.0"))
    assert payload["speedup_subsampled"] >= floor, (
        f"sub-linear BNS training must reach >= {floor}x the exact pipeline, "
        f"got {payload['speedup_subsampled']}x (see {BENCH_JSON})"
    )
