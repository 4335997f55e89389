"""Tests for artifact result objects using injected metrics (no training)."""

import numpy as np
import pytest

from repro.experiments.fig4 import Fig4Result
from repro.experiments.fig5 import Fig5Result
from repro.experiments.table2 import Table2Result
from repro.experiments.table3 import Table3Result
from repro.experiments.table4 import Table4Result

NINE = {
    "precision@5": 0.1, "recall@5": 0.2, "ndcg@5": 0.3,
    "precision@10": 0.1, "recall@10": 0.2, "ndcg@10": 0.3,
    "precision@20": 0.1, "recall@20": 0.2, "ndcg@20": 0.3,
}


def with_ndcg20(value):
    metrics = dict(NINE)
    metrics["ndcg@20"] = value
    return metrics


class TestTable2Result:
    @pytest.fixture
    def result(self):
        return Table2Result(
            scale="bench",
            metrics={
                ("ml-100k", "mf", "rns"): with_ndcg20(0.30),
                ("ml-100k", "mf", "bns"): with_ndcg20(0.40),
                ("ml-100k", "lightgcn", "rns"): with_ndcg20(0.35),
                ("ml-100k", "lightgcn", "bns"): with_ndcg20(0.33),
            },
        )

    def test_group(self, result):
        group = result.group("ml-100k", "mf")
        assert set(group) == {"rns", "bns"}

    def test_rows_include_paper_reference(self, result):
        rows = result.rows()
        bns_mf = next(
            r for r in rows if r["sampler"] == "BNS" and r["model"] == "mf"
        )
        assert bns_mf["paper_ndcg@20"] == 0.4176  # paper Table II, 100K/MF/BNS

    def test_format_contains_all_samplers(self, result):
        text = result.format()
        assert "RNS" in text and "BNS" in text

    def test_shape_checks_pass_fail(self, result):
        lines = result.shape_checks("ndcg@20")
        assert any("PASS" in line for line in lines)
        # lightgcn block has bns < rns → a FAIL line must appear.
        assert any("FAIL" in line for line in lines)


class TestTable3Result:
    def test_rows_ordering_and_paper(self):
        result = Table3Result(
            scale="bench",
            metrics={
                "rns": with_ndcg20(0.30),
                "bns": with_ndcg20(0.40),
                "bns-3": with_ndcg20(0.35),
            },
        )
        rows = result.rows()
        assert [row["method"] for row in rows] == ["RNS", "BNS", "BNS-3"]
        assert rows[1]["paper_ndcg@20"] == 0.4176

    def test_shape_checks_skip_missing(self):
        result = Table3Result(scale="bench", metrics={"bns": with_ndcg20(0.4),
                                                      "rns": with_ndcg20(0.3)})
        lines = result.shape_checks()
        assert any("SKIP" in line for line in lines)


class TestTable4Result:
    @pytest.fixture
    def result(self):
        return Table4Result(
            scale="bench",
            metrics={
                "1": with_ndcg20(0.30),
                "5": with_ndcg20(0.35),
                "all": with_ndcg20(0.42),
            },
        )

    def test_series(self, result):
        assert result.series("ndcg@20") == [("1", 0.30), ("5", 0.35), ("all", 0.42)]

    def test_is_improving(self, result):
        assert result.is_improving("ndcg@20")

    def test_is_improving_rejects_decline(self):
        result = Table4Result(
            scale="bench",
            metrics={"1": with_ndcg20(0.40), "all": with_ndcg20(0.30)},
        )
        assert not result.is_improving("ndcg@20", slack=0.01)

    def test_is_improving_tolerates_slack(self):
        result = Table4Result(
            scale="bench",
            metrics={
                "1": with_ndcg20(0.30),
                "5": with_ndcg20(0.295),  # dip within slack
                "all": with_ndcg20(0.35),
            },
        )
        assert result.is_improving("ndcg@20", slack=0.02)

    def test_rows_paper_reference(self, result):
        rows = result.rows()
        assert rows[0]["paper_ndcg@20"] == 0.3962  # paper |Mu|=1 row


class TestFig4Result:
    @pytest.fixture
    def result(self):
        epochs = np.arange(4)
        return Fig4Result(
            scale="bench",
            epochs=epochs,
            tnr={"rns": np.asarray([0.9, 0.92, 0.91, 0.9]),
                 "bns": np.asarray([0.93, 0.95, 0.96, 0.97])},
            inf={"rns": np.asarray([0.4, 0.35, 0.3, 0.25]),
                 "bns": np.asarray([0.45, 0.4, 0.35, 0.3])},
            base_rate=0.9,
        )

    def test_mean_tnr(self, result):
        assert result.mean_tnr()["rns"] == pytest.approx(0.9075)

    def test_late_tnr(self, result):
        assert result.late_tnr(tail=2)["bns"] == pytest.approx(0.965)

    def test_format(self, result):
        text = result.format()
        assert "Fig. 4a" in text and "Fig. 4b" in text


class TestFig5Result:
    def test_best_values(self):
        result = Fig5Result(
            scale="bench",
            metric="ndcg@20",
            lambda_sweep=[(0.1, 0.30), (5.0, 0.40), (15.0, 0.35)],
            size_sweep=[(1, 0.30), (5, 0.42), (15, 0.41)],
        )
        text = result.format()
        assert "Fig. 5a" in text and "Fig. 5b" in text
        # Each sweep's best point is printed beside its setting.
        assert "5.0000   0.4000" in text
        assert "5     0.4200" in text
