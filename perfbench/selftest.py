"""Tests of the benchmark itself (not collected by the repository's suite).

Run with::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks  # noqa: E402
from perfbench.report import END_TO_END, LAYERS  # noqa: E402
from perfbench.spans import Tracer, instrument  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SMOKE_SEED = 5


@pytest.fixture(scope="module")
def smoke_lines():
    """Every workload at smoke size, untraced then traced, in one process."""
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
            "--seed", str(SMOKE_SEED), "--seconds", "1", "--size", "smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    lines = [json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")]
    return lines


def test_smoke_runs_every_workload_both_modes(smoke_lines):
    results = {(line["workload"], line["trace"]) for line in smoke_lines if "workload" in line}
    assert results == {(name, trace) for name in WORKLOADS for trace in (0, 1)}
    final = smoke_lines[-1]
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] > 0


def test_printed_metrics_match_benchmark_json(smoke_lines):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for family, catalogue in (("end_to_end", END_TO_END), ("per_layer", LAYERS)):
        assert [
            (m["name"], m["unit"], m["better"]) for m in declared[family]
        ] == list(catalogue)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for line in smoke_lines:
        if "workload" not in line:
            continue
        catalogue = LAYERS if line["trace"] else END_TO_END
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            name: unit for name, unit, _ in catalogue
        }


def test_end_to_end_metrics_are_nonzero(smoke_lines):
    for line in smoke_lines:
        if line.get("trace") == 0:
            zero = [name for name, m in line["metrics"].items() if not m["value"] > 0]
            assert not zero, (line["workload"], zero)


@pytest.fixture(scope="module")
def service():
    from repro.data.registry import load_dataset
    from repro.models.mf import MatrixFactorization
    from repro.serve.service import RankingService

    dataset = load_dataset("tiny", seed=SMOKE_SEED)
    model = MatrixFactorization(dataset.n_users, dataset.n_items, 8, seed=SMOKE_SEED)
    return RankingService(model, dataset.train)


def test_served_list_check_accepts_the_service(service):
    assert checks.check_served_lists(service, np.arange(8), 10) == []


def test_served_list_check_rejects_a_corrupted_list(service):
    def corrupted(user, k):
        ids = service.top_k(user, k).copy()
        if user == 3:
            ids[[0, 1]] = ids[[1, 0]]
        return ids

    problems = checks.check_served_lists(service, np.arange(8), 10, top_k=corrupted)
    assert len(problems) == 1 and problems[0].startswith("user 3:")


def test_cell_checks_reject_a_perturbed_metric():
    cell = checks.cell_record({"ndcg@20": 0.25, "recall@20": 0.5}, [0.69, 0.6])
    assert checks.check_cell_metrics({"bns": cell["metrics"]}) == []
    assert checks.check_same_cells({"bns": cell}, {"bns": json.loads(json.dumps(cell))}, "x") == []

    nudged = json.loads(json.dumps(cell))
    nudged["metrics"]["ndcg@20"] = float(np.nextafter(0.25, 1.0))
    assert checks.check_same_cells({"bns": cell}, {"bns": nudged}, "traced vs untraced")

    for bad in (float("nan"), 1.5, -0.1):
        assert checks.check_cell_metrics({"bns": {"ndcg@20": bad}})


def test_instrument_restores_the_layer_classes():
    from repro.samplers import PopularityNegativeSampler
    from repro.train.trainer import Trainer

    fit = Trainer.__dict__["fit"]
    tracer = Tracer()
    with instrument(tracer):
        assert Trainer.__dict__["fit"] is not fit
        assert "sample_batch" in PopularityNegativeSampler.__dict__
    assert Trainer.__dict__["fit"] is fit
    assert "sample_batch" not in PopularityNegativeSampler.__dict__
