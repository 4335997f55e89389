"""Table II — recommendation performance of all samplers on all datasets.

For each (dataset, CF model) pair, trains every sampler on the *same*
train/test split and reports Precision/Recall/NDCG at 5/10/20.  The
reproduced claims (paper §IV-B1):

* BNS is best (or tied-best) on most metric cells;
* DNS is the strongest baseline;
* PNS is the weakest (popularity bias = false-negative bias);
* RNS generally beats PNS.
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
from repro.experiments.paper_values import METRIC_KEYS, TABLE2
from repro.experiments.reporting import format_table, shape_report

__all__ = ["Table2Result", "run_table2", "table2_requests", "SAMPLERS"]

#: Table II's comparison set, in the paper's row order.
SAMPLERS: Tuple[str, ...] = ("rns", "pns", "aobpr", "dns", "srns", "bns")

_PAPER_NAMES = {
    "rns": "RNS",
    "pns": "PNS",
    "aobpr": "AOBPR",
    "dns": "DNS",
    "srns": "SRNS",
    "bns": "BNS",
}

_PAPER_DATASET_KEYS = {"ml-100k": "100K", "ml-1m": "1M", "yahoo-r3": "Yahoo"}
_PAPER_MODEL_KEYS = {"mf": "MF", "lightgcn": "LightGCN"}


@dataclass
class Table2Result:
    """Measured metrics per (dataset, model, sampler)."""

    scale: Scale
    metrics: Dict[Tuple[str, str, str], Dict[str, float]]

    def group(self, dataset: str, model: str) -> Dict[str, Dict[str, float]]:
        """Sampler → metrics within one (dataset, model) block."""
        return {
            sampler: values
            for (ds, md, sampler), values in self.metrics.items()
            if ds == dataset and md == model
        }

    def shape_checks(self, metric: str = "ndcg@20") -> List[str]:
        """The paper's ordering claims per block (PASS/FAIL lines)."""
        lines: List[str] = []
        for ds, md in sorted({(ds, md) for (ds, md, _) in self.metrics}):
            group = self.group(ds, md)
            lines.append(f"-- {ds} / {md} --")
            lines.extend(
                shape_report(
                    group,
                    metric,
                    [("bns", "rns"), ("bns", "pns"), ("bns", "srns"),
                     ("dns", "pns"), ("rns", "pns")],
                )
            )
        return lines

    def rows(self) -> List[dict]:
        rows = []
        for (ds, md, sampler), values in sorted(self.metrics.items()):
            row: Dict[str, object] = {
                "dataset": ds,
                "model": md,
                "sampler": _PAPER_NAMES.get(sampler, sampler),
            }
            row.update(values)
            paper_key = (
                _PAPER_DATASET_KEYS.get(ds.replace("-small", "")),
                _PAPER_MODEL_KEYS.get(md),
                _PAPER_NAMES.get(sampler),
            )
            paper = TABLE2.get(paper_key)
            if paper is not None:
                row["paper_ndcg@20"] = paper["ndcg@20"]
            rows.append(row)
        return rows

    def format(self) -> str:
        columns = ["dataset", "model", "sampler", *METRIC_KEYS, "paper_ndcg@20"]
        return format_table(
            self.rows(), columns, title="Table II — recommendation performance"
        )


def _grid(
    scale: Scale,
    seed: int,
    datasets: Sequence[str],
    models: Sequence[str],
    samplers: Sequence[str],
) -> List[Tuple[Tuple[str, str, str], EngineRequest]]:
    """The table's (cell, request) pairs in the paper's row order."""
    preset = scale_preset(scale)
    cells: List[Tuple[Tuple[str, str, str], EngineRequest]] = []
    for dataset_name in datasets:
        full_name = dataset_name + preset.dataset_suffix
        for model in models:
            batch = (
                preset.lightgcn_batch_size if model == "lightgcn" else preset.batch_size
            )
            for sampler in samplers:
                spec = RunSpec(
                    dataset=full_name,
                    model=model,
                    sampler=sampler,
                    epochs=preset.epochs,
                    batch_size=batch,
                    lr=preset.lr if model == "mf" else 0.01,
                    seed=seed,
                )
                cells.append(((dataset_name, model, sampler), EngineRequest(spec)))
    return cells


def table2_requests(
    scale: Scale = "bench",
    seed: int = 0,
    datasets: Sequence[str] = ("ml-100k",),
    models: Sequence[str] = ("mf", "lightgcn"),
    samplers: Sequence[str] = SAMPLERS,
) -> List[EngineRequest]:
    """The engine requests Table II consumes (for cache warming)."""
    return [request for _, request in _grid(scale, seed, datasets, models, samplers)]


def run_table2(
    scale: Scale = "bench",
    seed: int = 0,
    datasets: Sequence[str] = ("ml-100k",),
    models: Sequence[str] = ("mf", "lightgcn"),
    samplers: Sequence[str] = SAMPLERS,
    *,
    engine: Optional[ExperimentEngine] = None,
) -> Table2Result:
    """Train (or recall) every (dataset, model, sampler) cell and evaluate."""
    cells = _grid(scale, seed, datasets, models, samplers)
    results = resolve_engine(engine).run_many([request for _, request in cells])
    metrics = {
        cell: dict(result.metrics)
        for (cell, _), result in zip(cells, results)
    }
    return Table2Result(scale=scale, metrics=metrics)
