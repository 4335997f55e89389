"""Fig. 5 — hyper-parameter sensitivity of BNS (λ and |M_u|).

Two sweeps on MF, NDCG@20 as the target (the paper's Fig. 5):

* λ ∈ {0.1, 1, 5, 10, 15} at |M_u| = 5 — expected: a rise from λ=0.1 to a
  peak in the mid range, confirming that hard negatives matter;
* |M_u| ∈ {1, 3, 5, 10, 15} at λ = 5 — expected: |M_u|=1 equals RNS; the
  metric peaks at moderate |M_u| and can degrade for large |M_u| because
  the popularity prior's bias gets amplified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import RunSpec, Scale, scale_preset
from repro.experiments.engine import (
    EngineRequest,
    ExperimentEngine,
    resolve_engine,
)
from repro.experiments.reporting import format_table

__all__ = ["Fig5Result", "run_fig5", "fig5_requests"]

_LAMBDAS = (0.1, 1.0, 5.0, 10.0, 15.0)
_SIZES = (1, 3, 5, 10, 15)


@dataclass
class Fig5Result:
    """NDCG@20 as a function of λ and of |M_u|."""

    scale: Scale
    metric: str
    lambda_sweep: List[Tuple[float, float]]
    size_sweep: List[Tuple[int, float]]

    def format(self) -> str:
        lam_rows = [
            {"lambda": lam, self.metric: value} for lam, value in self.lambda_sweep
        ]
        size_rows = [
            {"|Mu|": size, self.metric: value} for size, value in self.size_sweep
        ]
        return (
            format_table(
                lam_rows,
                ["lambda", self.metric],
                title=f"Fig. 5a — λ sweep (|Mu|=5), {self.metric}",
            )
            + "\n\n"
            + format_table(
                size_rows,
                ["|Mu|", self.metric],
                title=f"Fig. 5b — |Mu| sweep (λ=5), {self.metric}",
            )
        )


def _bns_request(
    scale: Scale, seed: int, dataset_name: str, **sampler_kwargs
) -> EngineRequest:
    preset = scale_preset(scale)
    return EngineRequest(
        RunSpec(
            dataset=dataset_name + preset.dataset_suffix,
            model="mf",
            sampler="bns",
            sampler_kwargs=tuple(sorted(sampler_kwargs.items())),
            epochs=preset.epochs,
            batch_size=preset.batch_size,
            lr=preset.lr,
            seed=seed,
        )
    )


def fig5_requests(
    scale: Scale = "bench",
    seed: int = 0,
    dataset_name: str = "ml-100k",
    lambdas: Sequence[float] = _LAMBDAS,
    sizes: Sequence[int] = _SIZES,
) -> List[EngineRequest]:
    """Both sweeps' requests (λ sweep then |M_u| sweep, in sweep order).

    The λ = 5, |M_u| = 5 cell appears in both sweeps; the engine's job
    graph collapses the duplicate onto one run.
    """
    lam_requests = [
        _bns_request(
            scale, seed, dataset_name, weight=float(lam), n_candidates=5
        )
        for lam in lambdas
    ]
    size_requests = [
        _bns_request(
            scale, seed, dataset_name, weight=5.0, n_candidates=int(size)
        )
        for size in sizes
    ]
    return lam_requests + size_requests


def run_fig5(
    scale: Scale = "bench",
    seed: int = 0,
    dataset_name: str = "ml-100k",
    lambdas: Sequence[float] = _LAMBDAS,
    sizes: Sequence[int] = _SIZES,
    metric: str = "ndcg@20",
    *,
    engine: Optional[ExperimentEngine] = None,
) -> Fig5Result:
    """Run both BNS hyper-parameter sweeps on a shared dataset/split."""
    requests = fig5_requests(scale, seed, dataset_name, lambdas, sizes)
    results = resolve_engine(engine).run_many(requests)
    lambda_results = results[: len(lambdas)]
    size_results = results[len(lambdas) :]
    lambda_sweep = [
        (float(lam), result.metric(metric))
        for lam, result in zip(lambdas, lambda_results)
    ]
    size_sweep = [
        (int(size), result.metric(metric))
        for size, result in zip(sizes, size_results)
    ]
    return Fig5Result(
        scale=scale, metric=metric, lambda_sweep=lambda_sweep, size_sweep=size_sweep
    )
