"""Experiment harness: one module per table/figure of the paper.

Every artifact module exposes a ``run_*`` function returning a result
object with a ``format()`` method that prints the same rows/series the
paper reports.  Two scales are supported everywhere:

* ``scale="bench"`` — scaled-down synthetic datasets and epoch counts so
  the whole suite runs in minutes on a laptop (used by ``benchmarks/``);
* ``scale="paper"`` — the paper's full universe sizes and epoch counts.

Training-backed artifacts additionally expose a ``*_requests`` function
declaring their spec grid, and every ``run_*`` accepts an ``engine=``
keyword: pass one :class:`~repro.experiments.engine.ExperimentEngine`
(optionally with an on-disk cache and a process-pool backend) to share
runs across artifacts, resume interrupted grids, and parallelize — see
``repro.experiments.engine`` and :func:`run_all`.

Absolute numbers differ from the paper (the substrate is a calibrated
synthetic dataset, :mod:`repro.data.synthetic`); the *shape* of each
result is what is validated, and ``repro.experiments.reporting``
provides the paper-vs-measured comparison helpers.
"""

from repro.experiments.config import RunSpec, Scale, scale_preset
from repro.experiments.engine import (
    ArtifactStore,
    EngineRequest,
    EngineResult,
    ExperimentEngine,
    run_key,
)
from repro.experiments.export import export_json, to_jsonable
from repro.experiments.fig1 import Fig1Result, fig1_requests, run_fig1
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import Fig3Result, run_fig3
from repro.experiments.fig4 import Fig4Result, fig4_requests, run_fig4
from repro.experiments.fig5 import Fig5Result, fig5_requests, run_fig5
from repro.experiments.reporting import format_series, format_table
from repro.experiments.run_all import ALL_ARTIFACTS, RunAllResult, run_all
from repro.experiments.runner import RunResult, run_spec
from repro.experiments.sweep import (
    ReplicationResult,
    replication_requests,
    run_replicated,
)
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2, table2_requests
from repro.experiments.table3 import Table3Result, run_table3, table3_requests
from repro.experiments.table4 import Table4Result, run_table4, table4_requests

__all__ = [
    "ALL_ARTIFACTS",
    "ArtifactStore",
    "EngineRequest",
    "EngineResult",
    "ExperimentEngine",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "ReplicationResult",
    "RunAllResult",
    "RunResult",
    "RunSpec",
    "Scale",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "Table4Result",
    "export_json",
    "fig1_requests",
    "fig4_requests",
    "fig5_requests",
    "format_series",
    "format_table",
    "replication_requests",
    "run_all",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_key",
    "run_replicated",
    "run_spec",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "scale_preset",
    "table2_requests",
    "table3_requests",
    "table4_requests",
    "to_jsonable",
]
