"""Generic experiment runner: spec → dataset → model → sampler → metrics.

:func:`run_spec` is the single entry point every table/figure module
builds on.  It accepts a pre-loaded dataset so sweeps over samplers reuse
one dataset object (and therefore one split), exactly how the paper's
comparisons hold the data fixed across samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.data.registry import load_dataset
from repro.eval.distribution import ScoreDistributionRecorder
from repro.eval.protocol import Evaluator
from repro.eval.sampling_quality import SamplingQualityRecorder
from repro.experiments.config import RunSpec
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization
from repro.samplers.variants import make_sampler
from repro.train.callbacks import Callback
from repro.train.optimizer import Adam, SGD
from repro.train.schedule import StepDecay
from repro.train.trainer import Trainer, TrainingConfig
from repro.utils.logging import get_logger

__all__ = ["RunResult", "run_spec", "build_model"]

_LOGGER = get_logger("experiments.runner")


@dataclass
class RunResult:
    """Everything a table/figure needs from one training run."""

    spec: RunSpec
    metrics: Dict[str, float]
    loss_curve: List[float]
    sampling_quality: Optional[SamplingQualityRecorder]
    distributions: Optional[ScoreDistributionRecorder]
    model: object

    def metric(self, name: str) -> float:
        """Single metric lookup with a helpful error."""
        if name not in self.metrics:
            raise KeyError(
                f"metric {name!r} not recorded; available: {sorted(self.metrics)}"
            )
        return self.metrics[name]


def build_model(spec: RunSpec, dataset: ImplicitDataset):
    """Construct the spec's model and its paper-matched optimizer.

    MF trains with plain SGD at a constant LR (paper §IV-B1a); LightGCN
    with Adam plus a step-decayed LR (decay 0.1 every 20 epochs, §IV-B1b).
    """
    if spec.model == "mf":
        model = MatrixFactorization(
            dataset.n_users,
            dataset.n_items,
            n_factors=spec.n_factors,
            seed=spec.seed,
            dtype=spec.dtype,
        )
        optimizer = SGD(spec.lr)
        lr_schedule = None
    else:
        model = LightGCN(
            dataset.train,
            n_factors=spec.n_factors,
            n_layers=1,
            seed=spec.seed,
            dtype=spec.dtype,
        )
        optimizer = Adam(spec.lr)
        lr_schedule = StepDecay(spec.lr, rate=0.1, every=20)
    return model, optimizer, lr_schedule


def run_spec(
    spec: RunSpec,
    dataset: Optional[ImplicitDataset] = None,
    *,
    record_sampling_quality: bool = False,
    distribution_epochs: Sequence[int] = (),
    evaluate: bool = True,
) -> RunResult:
    """Execute one training run and evaluate it.

    Parameters
    ----------
    spec:
        The run configuration.
    dataset:
        Optional pre-loaded dataset (sweeps share one split this way).
    record_sampling_quality:
        Attach a TNR/INF recorder (Fig. 4).
    distribution_epochs:
        Epochs at which to snapshot TN/FN score distributions (Fig. 1).
    evaluate:
        Skip final evaluation when only training-side artifacts are needed.
    """
    if dataset is None:
        dataset = load_dataset(spec.dataset, seed=spec.seed)
    model, optimizer, lr_schedule = build_model(spec, dataset)
    sampler = make_sampler(spec.sampler, **spec.sampler_options)

    callbacks: List[Callback] = []
    quality: Optional[SamplingQualityRecorder] = None
    if record_sampling_quality:
        quality = SamplingQualityRecorder(dataset)
        callbacks.append(quality)
    distributions: Optional[ScoreDistributionRecorder] = None
    if distribution_epochs:
        distributions = ScoreDistributionRecorder(
            dataset, epochs=distribution_epochs, seed=spec.seed
        )
        callbacks.append(distributions)

    config = TrainingConfig(
        epochs=spec.epochs,
        batch_size=spec.batch_size,
        lr=spec.lr,
        reg=spec.reg,
        seed=spec.seed,
        lr_schedule=lr_schedule,
    )
    trainer = Trainer(
        model, dataset, sampler, config, optimizer=optimizer, callbacks=callbacks
    )
    _LOGGER.info("running %s", spec.label())
    history = trainer.fit()

    metrics: Dict[str, float] = {}
    if evaluate:
        metrics = Evaluator(dataset, ks=spec.ks).evaluate(model)
    return RunResult(
        spec=spec,
        metrics=metrics,
        loss_curve=[stats.mean_loss for stats in history],
        sampling_quality=quality,
        distributions=distributions,
        model=model,
    )
