"""Smoke tests for the per-table/figure experiment modules (unit scale)."""

import numpy as np
import pytest

from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4


class TestTable1:
    def test_tiny_statistics(self):
        result = run_table1(scale="unit", seed=0, datasets=("tiny",))
        rows = result.rows()
        assert len(rows) == 1
        assert rows[0]["users"] == 32
        assert "Table I" in result.format()


class TestFig1:
    def test_snapshots_and_format(self):
        result = run_fig1(scale="unit", dataset_name="tiny", seed=0,
                          epochs_to_snapshot=(0, 3))
        assert sorted(result.snapshots) == [0, 3]
        assert len(result.separation_series()) == 2
        assert "Fig. 1" in result.format()

    def test_dominance_in_unit_interval(self):
        result = run_fig1(scale="unit", dataset_name="tiny", seed=0,
                          epochs_to_snapshot=(0, 3))
        for _, value in result.dominance_series():
            assert 0.0 <= value <= 1.0


class TestFig2:
    def test_proposition_holds(self):
        result = run_fig2(n_points=51)
        for curve in result.curves.values():
            assert curve.tn_integral == pytest.approx(1.0, abs=1e-5)
            assert curve.fn_integral == pytest.approx(1.0, abs=1e-5)
            assert curve.separation > 0

    def test_families(self):
        result = run_fig2(n_points=11)
        assert set(result.curves) == {"gaussian", "student", "gamma"}

    def test_format(self):
        assert "Fig. 2" in run_fig2(n_points=11).format()


class TestFig3:
    def test_surface_properties(self):
        result = run_fig3(n_points=21)
        assert result.in_unit_interval()
        assert result.is_decreasing_in_cdf()
        assert result.is_decreasing_in_prior()

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            run_fig3(n_points=1)

    def test_format(self):
        assert "unbias" in run_fig3(n_points=11).format()


class TestFig4:
    def test_series_shapes(self):
        result = run_fig4(
            scale="unit", dataset_name="tiny", seed=0, samplers=("rns", "bns")
        )
        assert set(result.tnr) == {"rns", "bns"}
        assert result.tnr["rns"].size == result.epochs.size
        assert 0.0 < result.base_rate <= 1.0
        assert "Fig. 4" in result.format()

    def test_mean_and_late_tnr(self):
        result = run_fig4(
            scale="unit", dataset_name="tiny", seed=0, samplers=("rns",)
        )
        assert 0.0 <= result.mean_tnr()["rns"] <= 1.0
        assert 0.0 <= result.late_tnr(tail=2)["rns"] <= 1.0


class TestFig5:
    def test_sweeps(self):
        result = run_fig5(
            scale="unit",
            dataset_name="tiny",
            seed=0,
            lambdas=(0.1, 5.0),
            sizes=(1, 3),
        )
        assert len(result.lambda_sweep) == 2
        assert len(result.size_sweep) == 2
        assert [lam for lam, _ in result.lambda_sweep] == [0.1, 5.0]
        assert [size for size, _ in result.size_sweep] == [1, 3]
        assert "Fig. 5" in result.format()


class TestTable2:
    def test_unit_run(self):
        result = run_table2(
            scale="unit",
            seed=0,
            datasets=("tiny",),
            models=("mf",),
            samplers=("rns", "bns"),
        )
        group = result.group("tiny", "mf")
        assert set(group) == {"rns", "bns"}
        assert "ndcg@20" in group["rns"]
        assert "Table II" in result.format()

    def test_shape_checks_produced(self):
        result = run_table2(
            scale="unit",
            seed=0,
            datasets=("tiny",),
            models=("mf",),
            samplers=("rns", "bns"),
        )
        lines = result.shape_checks()
        assert any("bns" in line for line in lines)


class TestTable3:
    def test_unit_run(self):
        result = run_table3(
            scale="unit", seed=0, dataset_name="tiny", samplers=("rns", "bns", "bns-3")
        )
        assert set(result.metrics) == {"rns", "bns", "bns-3"}
        assert "Table III" in result.format()
        assert result.shape_checks()


class TestTable4:
    def test_unit_run(self):
        result = run_table4(
            scale="unit", seed=0, dataset_name="tiny", sizes=(1, 3, "all")
        )
        assert list(result.metrics) == ["1", "3", "all"]
        series = result.series("ndcg@20")
        assert len(series) == 3
        assert "Table IV" in result.format()
