"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "tiny"
        assert args.sampler == "bns"

    def test_experiment_artifact_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "ml-100k" in out
        assert "tiny" in out

    def test_train_prints_metrics(self, capsys):
        code = main(
            ["train", "--dataset", "tiny", "--epochs", "2", "--sampler", "rns",
             "--factors", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ndcg@20" in out
        assert "tiny/mf/rns" in out

    def test_experiment_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "unbias" in out

    def test_experiment_unit_scale(self, capsys):
        assert main(["experiment", "table1", "--scale", "unit"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestSublinearFlags:
    def test_cdf_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["train", "--cdf", "subsampled:64"])
        assert args.cdf == "subsampled:64"

    def test_train_with_sparse_cdf_runs(self, capsys):
        from repro.cli import main

        code = main(
            [
                "train",
                "--dataset",
                "tiny",
                "--sampler",
                "bns",
                "--cdf",
                "subsampled:32",
                "--epochs",
                "2",
                "--batch-size",
                "8",
            ]
        )
        assert code == 0
        assert "ndcg" in capsys.readouterr().out


class TestOrchestrationFlags:
    def test_experiment_engine_flags_parsed(self):
        args = build_parser().parse_args(
            ["experiment", "table2", "--workers", "4", "--cache-dir", "/tmp/c",
             "--no-cache", "--datasets", "tiny", "ml-100k"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache
        assert args.datasets == ["tiny", "ml-100k"]

    def test_run_all_flags_parsed(self):
        args = build_parser().parse_args(
            ["run-all", "--scale", "unit", "--artifacts", "fig2", "fig3",
             "--dataset", "tiny", "--workers", "2"]
        )
        assert args.artifacts == ["fig2", "fig3"]
        assert args.dataset == "tiny"

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestEngineCommands:
    def test_experiment_with_cache_and_workers(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["experiment", "table3", "--scale", "unit", "--datasets", "tiny",
                "--cache-dir", cache]
        assert main(argv + ["--workers", "2"]) == 0
        first = capsys.readouterr().out
        assert "Table III" in first

        # warm rerun (sequential) assembles from cache, identical output
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_experiment_no_cache_writes_nothing(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(
            ["experiment", "table3", "--scale", "unit", "--datasets", "tiny",
             "--cache-dir", str(cache), "--no-cache"]
        ) == 0
        assert not cache.exists()

    def test_run_all_analytic_subset(self, capsys, tmp_path):
        assert main(
            ["run-all", "--scale", "unit", "--artifacts", "fig2", "fig3",
             "--cache-dir", str(tmp_path / "cache"),
             "--output-dir", str(tmp_path / "out")]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "unbias" in out
        assert "run-all:" in out
        assert (tmp_path / "out" / "fig2.txt").is_file()
        assert (tmp_path / "out" / "fig3.txt").is_file()

    def test_cache_ls_and_clear(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        assert "cache empty" in capsys.readouterr().out

        main(["experiment", "table3", "--scale", "unit", "--datasets", "tiny",
              "--cache-dir", cache])
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        listing = capsys.readouterr().out
        assert "tiny/mf/bns" in listing
        assert "cached runs" in listing

        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        assert "cache empty" in capsys.readouterr().out

    def test_cache_gc_sweeps_only_orphaned_staging(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        main(["experiment", "table3", "--scale", "unit", "--datasets", "tiny",
              "--cache-dir", str(cache)])
        capsys.readouterr()
        litter = cache / "v0" / "zz" / "dead" / "result.json.1.2.3.tmp"
        litter.parent.mkdir(parents=True)
        litter.write_bytes(b"torn")

        # Default 24h age gate spares the fresh litter.
        assert main(["cache", "gc", "--cache-dir", str(cache)]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert litter.exists()

        # --min-age-hours 0 reaps it; committed entries stay listable.
        assert main(["cache", "gc", "--cache-dir", str(cache),
                     "--min-age-hours", "0"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not litter.exists()
        assert main(["cache", "ls", "--cache-dir", str(cache)]) == 0
        assert "tiny/mf/bns" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("command", ["experiment", "run-all"])
    def test_workers_below_one_rejected(self, tmp_path, command, workers):
        argv = {
            "experiment": ["experiment", "table3", "--datasets", "tiny"],
            "run-all": ["run-all", "--output-dir", str(tmp_path / "out")],
        }[command]
        with pytest.raises(SystemExit, match=f"--workers must be >= 1, got {workers}"):
            main(argv + ["--scale", "unit", "--no-cache", "--workers", workers])
        assert not (tmp_path / "out").exists()

    def test_cache_gc_rejects_negative_age(self, tmp_path):
        with pytest.raises(SystemExit, match=">= 0"):
            main(["cache", "gc", "--cache-dir", str(tmp_path),
                  "--min-age-hours", "-1"])


class TestArtifactRegistry:
    def test_cli_engine_artifacts_match_run_all(self):
        from repro.cli import _ENGINE_ARTIFACTS
        from repro.experiments.run_all import ALL_ARTIFACTS, ENGINE_ARTIFACTS

        assert _ENGINE_ARTIFACTS == frozenset(ENGINE_ARTIFACTS)
        from repro.cli import _ARTIFACTS

        assert set(_ARTIFACTS) == set(ALL_ARTIFACTS)


class TestSaveModels:
    def test_save_models_checkpoints_into_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(
            ["experiment", "table3", "--scale", "unit", "--datasets", "tiny",
             "--cache-dir", cache, "--save-models"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        listing = capsys.readouterr().out
        assert "yes" in listing  # model? column

    def test_save_models_rejects_no_cache(self, tmp_path):
        with pytest.raises(SystemExit, match="save-models"):
            main(
                ["experiment", "table3", "--scale", "unit", "--datasets",
                 "tiny", "--no-cache", "--save-models"]
            )

    def test_fig2_notes_ignored_flags(self, capsys):
        assert main(["experiment", "fig2", "--workers", "3",
                     "--datasets", "tiny"]) == 0
        err = capsys.readouterr().err
        assert "no effect" in err


class TestLintCommand:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src"]
        assert args.format == "text"
        assert args.rules is None

    def test_lint_clean_file_exits_zero(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violation_exits_one_and_cites_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(2)\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "bad.py:2:" in out

    def test_lint_rules_filter(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(2)\n")
        assert main(["lint", str(bad), "--rules", "R005"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_json_format(self, capsys, tmp_path):
        import json as json_module

        bad = tmp_path / "bad.py"
        bad.write_text("order = list({3, 1, 2})\n")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["diagnostics"][0]["rule"] == "R005"

    def test_lint_unknown_rule_is_usage_error(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["lint", str(clean), "--rules", "R999"])

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004", "R005"):
            assert rule_id in out

    def test_lint_repo_src_is_clean(self, capsys):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        assert main(["lint", str(root / "src"), "--root", str(root)]) == 0


class TestServeBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.dataset is None
        assert args.requests == 4000
        assert args.cache_k == 100

    def test_run_all_replicates_flag(self):
        args = build_parser().parse_args(["run-all", "--replicates", "10"])
        assert args.replicates == 10
        assert build_parser().parse_args(["run-all"]).replicates == 1

    def test_serve_bench_runs_on_tiny(self, capsys, tmp_path):
        json_path = tmp_path / "serve.json"
        code = main(
            ["serve-bench", "--dataset", "tiny", "--requests", "64",
             "--clients", "2", "--cache-k", "8", "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warm-vs-uncached speedup" in out
        import json

        payload = json.loads(json_path.read_text())
        assert payload["dataset"] == "synthetic:tiny"
        assert payload["warm_cache"]["qps"] > 0
        assert payload["uncached"]["p99_ms"] >= payload["uncached"]["p50_ms"]
