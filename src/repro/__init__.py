"""Bayesian Negative Sampling for Recommendation — full reproduction.

This package reproduces Liu & Wang, *Bayesian Negative Sampling for
Recommendation* (ICDE 2023; arXiv:2204.06520) from scratch in NumPy:

* :mod:`repro.core` — the paper's contribution: order-statistic class
  conditionals, the ``unbias`` posterior, Bayesian classification, and the
  risk-minimizing sampling rule;
* :mod:`repro.samplers` — BNS plus every baseline (RNS, PNS, AOBPR, DNS,
  SRNS) and the studied variants (BNS-1..4, oracle prior);
* :mod:`repro.models` — MF and LightGCN substrates with analytic BPR
  gradients;
* :mod:`repro.data` — interaction matrices, splits, real-format parsers
  and calibrated synthetic generators;
* :mod:`repro.train` — the pairwise training engine;
* :mod:`repro.eval` — ranking metrics and sampling-quality metrics;
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import quick_train

    result = quick_train("tiny", sampler="bns", epochs=20, seed=7)
    print(result.metrics)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__version__ = "1.0.0"

from repro.data import ImplicitDataset, load_dataset
from repro.eval import Evaluator
from repro.models import LightGCN, MatrixFactorization
from repro.samplers import make_sampler
from repro.train import SGD, Adam, Trainer, TrainingConfig

__all__ = [
    "Adam",
    "Evaluator",
    "ImplicitDataset",
    "LightGCN",
    "MatrixFactorization",
    "QuickResult",
    "SGD",
    "Trainer",
    "TrainingConfig",
    "load_dataset",
    "make_sampler",
    "quick_train",
    "__version__",
]


@dataclass(frozen=True)
class QuickResult:
    """Outcome of :func:`quick_train`."""

    dataset_name: str
    sampler_name: str
    model: object
    metrics: Dict[str, float]
    loss_curve: List[float]


def quick_train(
    dataset_name: str = "tiny",
    *,
    model: str = "mf",
    sampler: str = "bns",
    epochs: int = 20,
    n_factors: int = 32,
    batch_size: int = 8,
    lr: float = 0.01,
    reg: float = 0.01,
    seed: Optional[int] = 0,
    ks=(5, 10, 20),
    dtype: str = "float64",
) -> QuickResult:
    """One-call train-and-evaluate, the library's hello-world entry point.

    Loads (or synthesizes) the named dataset, trains the chosen model with
    the chosen negative sampler, and returns the final ranking metrics.
    The model and its optimizer come from
    :func:`repro.experiments.runner.build_model`, as in every experiment:
    MF with SGD, LightGCN with Adam and the paper's step-decayed LR.
    ``dtype`` selects the precision policy (``"float32"`` is the fast
    mode; metrics become statistically, not bitwise, equivalent — see
    README "Precision & pool datasets").
    """
    if model not in ("mf", "lightgcn"):
        raise KeyError(f"unknown model {model!r}; use 'mf' or 'lightgcn'")
    from repro.experiments.config import RunSpec
    from repro.experiments.runner import build_model

    dataset = load_dataset(dataset_name, seed=seed)
    spec = RunSpec(
        dataset=dataset_name,
        model=model,
        sampler=sampler,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        reg=reg,
        n_factors=n_factors,
        seed=seed,  # type: ignore[arg-type]  # None seeds the init from the OS
        dtype=dtype,
    )
    score_model, optimizer, lr_schedule = build_model(spec, dataset)
    sampler_obj = make_sampler(sampler)
    config = TrainingConfig(
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        reg=reg,
        seed=seed,
        lr_schedule=lr_schedule,
    )
    trainer = Trainer(
        score_model, dataset, sampler_obj, config, optimizer=optimizer
    )
    history = trainer.fit()
    metrics = Evaluator(dataset, ks=ks).evaluate(score_model)
    return QuickResult(
        dataset_name=dataset.name,
        sampler_name=sampler_obj.name,
        model=score_model,
        metrics=metrics,
        loss_curve=[stats.mean_loss for stats in history],
    )
