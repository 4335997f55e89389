"""Batch-1 goldens: the paper's per-triple SGD must not move a bit.

The paper trains MF one triple at a time (``batch_size=1``, d=32,
lr = reg = 0.01).  Score-based samplers take the trainer's one-row
route: ``scores`` + ``sample_for_user`` + a one-triple ``train_step``;
RNS and PNS take the waves route, one ``train_step`` per conflict-free
run, which must give the same bits.  ``golden_b1_f64.json`` pins both:

* ``runs`` — ``run_spec`` metrics and loss curves (``float.hex``) for
  the six Table II samplers on ``tiny``, plus one float32 BNS run;
* ``biased_mf`` — sha256 of BiasedMF's user table, item table and
  item-bias vector after a two-epoch ``Trainer`` run with RNS and with
  BNS (``RunSpec`` has no biased MF).

Regenerate only when a result is meant to change, in a commit of its
own, with the reason written down::

    PYTHONPATH=src python tests/train/test_golden_b1.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.registry import load_dataset
from repro.experiments.config import RunSpec
from repro.experiments.runner import run_spec
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.samplers import make_sampler
from repro.train import Trainer, TrainingConfig

GOLDEN_PATH = Path(__file__).parent / "golden_b1_f64.json"

TABLE2_SAMPLERS = ("rns", "pns", "aobpr", "dns", "srns", "bns")

RUN_CASES = {
    **{f"mf-{name}": {"sampler": name} for name in TABLE2_SAMPLERS},
    "mf-bns-float32": {"sampler": "bns", "dtype": "float32"},
}

BIASED_SAMPLERS = ("rns", "bns")


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def capture_run(case: str) -> dict:
    """Metrics and loss curve of one paper-config run, as ``float.hex``."""
    spec = RunSpec(
        dataset="tiny", epochs=3, batch_size=1, seed=0, **RUN_CASES[case]
    )
    result = run_spec(spec, load_dataset("tiny", seed=0))
    return {
        "metrics": {k: float(v).hex() for k, v in sorted(result.metrics.items())},
        "loss_curve": [float(v).hex() for v in result.loss_curve],
    }


def capture_biased_mf(sampler: str) -> dict:
    """Parameter hashes of BiasedMF after two epochs of batch-1 SGD."""
    dataset = load_dataset("tiny", seed=0)
    model = BiasedMatrixFactorization(dataset.n_users, dataset.n_items, seed=7)
    Trainer(
        model,
        dataset,
        make_sampler(sampler),
        TrainingConfig(epochs=2, batch_size=1, seed=0),
    ).fit()
    return {
        "user_factors_sha": _sha(model.user_factors),
        "item_factors_sha": _sha(model.item_factors),
        "item_bias_sha": _sha(model.item_bias),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_bitwise_vs_golden(golden, case):
    assert capture_run(case) == golden["runs"][case]


@pytest.mark.parametrize("sampler", BIASED_SAMPLERS)
def test_biased_mf_parameters_bitwise_vs_golden(golden, sampler):
    assert capture_biased_mf(sampler) == golden["biased_mf"][sampler]


if __name__ == "__main__":
    captured = {
        "runs": {case: capture_run(case) for case in sorted(RUN_CASES)},
        "biased_mf": {name: capture_biased_mf(name) for name in BIASED_SAMPLERS},
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(captured, fh, indent=2, sort_keys=True)
        fh.write("\n")
