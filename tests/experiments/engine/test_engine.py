"""Tests for ExperimentEngine: caching, dedup, resume, checkpoints."""

import pytest

from repro.experiments.config import RunSpec
from repro.experiments.engine import (
    ArtifactStore,
    EngineRequest,
    ExperimentEngine,
    run_key,
)

SPEC = RunSpec(dataset="tiny", sampler="rns", epochs=2, batch_size=16, seed=0)
SPEC_B = RunSpec(dataset="tiny", sampler="bns", epochs=2, batch_size=16, seed=0)


class CountingExecutor:
    """Sequential executor that counts how many jobs actually ran."""

    def __init__(self):
        from repro.experiments.engine import SequentialExecutor

        self.inner = SequentialExecutor()
        self.executed = []

    def run(self, jobs, checkpoint_paths=None):
        self.executed.extend(job.key for job in jobs)
        return self.inner.run(jobs, checkpoint_paths)


class TestMemoAndDedup:
    def test_duplicate_requests_run_once(self):
        counting = CountingExecutor()
        engine = ExperimentEngine(executor=counting)
        results = engine.run_many([EngineRequest(SPEC)] * 3)
        assert len(results) == 3
        assert len(counting.executed) == 1
        assert results[0].metrics == results[1].metrics == results[2].metrics
        assert engine.stats.misses == 1

    def test_memo_shared_across_calls(self):
        counting = CountingExecutor()
        engine = ExperimentEngine(executor=counting)
        engine.run(EngineRequest(SPEC))
        again = engine.run(EngineRequest(SPEC))
        assert len(counting.executed) == 1
        assert engine.stats.hits == 1
        assert not again.cached  # computed this process, not recalled from disk

    def test_results_align_with_requests(self):
        engine = ExperimentEngine()
        requests = [EngineRequest(SPEC_B), EngineRequest(SPEC)]
        results = engine.run_many(requests)
        assert [r.key for r in results] == [run_key(q) for q in requests]
        assert results[0].spec.sampler == "bns"
        assert results[1].spec.sampler == "rns"


class TestDiskCache:
    def test_hit_across_engines(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = ExperimentEngine(store)
        warm_result = cold.run(EngineRequest(SPEC))

        counting = CountingExecutor()
        warm = ExperimentEngine(ArtifactStore(tmp_path), executor=counting)
        result = warm.run(EngineRequest(SPEC))
        assert counting.executed == []
        assert result.cached
        assert result.metrics == warm_result.metrics

    def test_spec_change_invalidates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ExperimentEngine(store).run(EngineRequest(SPEC))

        counting = CountingExecutor()
        engine = ExperimentEngine(ArtifactStore(tmp_path), executor=counting)
        from dataclasses import replace

        engine.run(EngineRequest(replace(SPEC, lr=0.02)))
        assert len(counting.executed) == 1  # different key → recomputed

    def test_interrupted_grid_resumes(self, tmp_path):
        """Only the not-yet-committed runs of a grid are recomputed."""
        requests = [EngineRequest(SPEC), EngineRequest(SPEC_B)]
        ExperimentEngine(ArtifactStore(tmp_path)).run(requests[0])  # partial grid

        counting = CountingExecutor()
        engine = ExperimentEngine(ArtifactStore(tmp_path), executor=counting)
        results = engine.run_many(requests)
        assert counting.executed == [run_key(requests[1])]
        assert results[0].cached and not results[1].cached
        assert engine.stats.hits == 1 and engine.stats.misses == 1

    def test_corrupted_artifact_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        request = EngineRequest(SPEC)
        ExperimentEngine(store).run(request)
        store.result_path(run_key(request)).write_text("{broken")

        counting = CountingExecutor()
        engine = ExperimentEngine(ArtifactStore(tmp_path), executor=counting)
        result = engine.run(request)
        assert len(counting.executed) == 1
        assert not result.cached
        # and the store is healthy again
        assert ArtifactStore(tmp_path).load(run_key(request)) == result.payload


class TestCheckpoints:
    def test_save_models_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        engine = ExperimentEngine(store, save_models=True)
        result = engine.run(EngineRequest(SPEC))
        assert result.checkpoint is not None
        model = engine.load_model(result)
        assert model.user_factors.shape[1] == SPEC.n_factors

    def test_checkpoint_is_the_evaluated_model(self, tmp_path):
        """The saved model reproduces the payload's metrics exactly.

        On this run the lowest-loss epoch is not the last, so a
        checkpoint of any earlier epoch scores differently.
        """
        from repro.data.registry import load_dataset
        from repro.eval.protocol import Evaluator

        spec = RunSpec(
            dataset="tiny", model="mf", sampler="rns", epochs=30,
            batch_size=16, lr=0.05, seed=3,
        )
        store = ArtifactStore(tmp_path)
        engine = ExperimentEngine(store, save_models=True)
        result = engine.run(EngineRequest(spec))
        assert result.checkpoint == str(store.model_path(result.key))
        model = engine.load_model(result)
        dataset = load_dataset(spec.dataset, seed=spec.seed)
        assert Evaluator(dataset, ks=spec.ks).evaluate(model) == result.metrics
        # The staging file was renamed into place, not left behind.
        entry = sorted(path.name for path in store.entry_dir(result.key).iterdir())
        assert entry == ["model.npz", "request.json", "result.json"]

    def test_crashed_checkpoint_write_leaves_only_reapable_staging(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        from repro.experiments.engine import execute_request

        def crash(self, target):
            raise OSError("crash before the rename")

        path = tmp_path / "entry" / "model.npz"
        monkeypatch.setattr(Path, "replace", crash)
        with pytest.raises(OSError, match="crash before the rename"):
            execute_request(EngineRequest(SPEC), checkpoint_path=str(path))
        monkeypatch.undo()
        assert not path.exists()
        assert ArtifactStore(tmp_path).gc_staging(min_age_seconds=0) == 1
        assert list(path.parent.iterdir()) == []

    def test_save_models_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            ExperimentEngine(save_models=True)

    def test_no_checkpoint_without_flag(self, tmp_path):
        store = ArtifactStore(tmp_path)
        engine = ExperimentEngine(store)
        result = engine.run(EngineRequest(SPEC))
        assert result.checkpoint is None
        with pytest.raises(FileNotFoundError):
            engine.load_model(result)


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            ExperimentEngine(workers=workers)


class TestResultViews:
    def test_metric_lookup_error(self):
        result = ExperimentEngine().run(EngineRequest(SPEC))
        with pytest.raises(KeyError, match="not recorded"):
            result.metric("bogus")

    def test_recorder_views_absent_by_default(self):
        result = ExperimentEngine().run(EngineRequest(SPEC))
        with pytest.raises(KeyError, match="sampling quality"):
            result.tnr_series
        with pytest.raises(KeyError, match="distributions"):
            result.snapshots()

    def test_recorder_views_present_when_requested(self):
        result = ExperimentEngine().run(
            EngineRequest(
                SPEC,
                record_sampling_quality=True,
                distribution_epochs=(0, 1),
                evaluate=False,
            )
        )
        assert result.tnr_series.shape == (SPEC.epochs,)
        assert result.inf_series.shape == (SPEC.epochs,)
        snapshots = result.snapshots()
        assert sorted(snapshots) == [0, 1]
        assert snapshots[0].tn_scores.size > 0

    def test_save_models_reexecutes_checkpointless_hits(self, tmp_path):
        """A cached run without a model is retrained when models are asked for."""
        store_root = tmp_path / "cache"
        ExperimentEngine(ArtifactStore(store_root)).run(EngineRequest(SPEC))

        counting = CountingExecutor()
        engine = ExperimentEngine(
            ArtifactStore(store_root), executor=counting, save_models=True
        )
        result = engine.run(EngineRequest(SPEC))
        assert counting.executed == [run_key(EngineRequest(SPEC))]
        assert result.checkpoint is not None
        assert engine.load_model(result) is not None

        # and now the checkpointed entry is a plain hit
        warm = ExperimentEngine(ArtifactStore(store_root), save_models=True)
        assert warm.run(EngineRequest(SPEC)).cached
