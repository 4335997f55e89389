"""Tests for repro.train.trainer."""

import numpy as np
import pytest

from repro.models.mf import MatrixFactorization
from repro.samplers.rns import RandomNegativeSampler
from repro.samplers.dns import DynamicNegativeSampler
from repro.train.callbacks import Callback, HistoryRecorder
from repro.train.schedule import StepDecay
from repro.train.trainer import Trainer, TrainingConfig, TrainingDivergedError


class TestTrainingConfig:
    def test_defaults_match_paper_mf(self):
        config = TrainingConfig()
        assert config.epochs == 100
        assert config.batch_size == 1
        assert config.lr == 0.01
        assert config.reg == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(reg=-0.1)

    def test_lr_schedule_resolution(self):
        config = TrainingConfig(lr=0.5)
        assert config.resolve_lr_schedule().value(99) == 0.5
        schedule = StepDecay(0.5, rate=0.1, every=10)
        config = TrainingConfig(lr=0.5, lr_schedule=schedule)
        assert config.resolve_lr_schedule() is schedule


def make_trainer(dataset, epochs=3, batch_size=4, sampler=None, **kwargs):
    model = MatrixFactorization(dataset.n_users, dataset.n_items, n_factors=6, seed=0)
    sampler = sampler if sampler is not None else RandomNegativeSampler()
    config = TrainingConfig(
        epochs=epochs, batch_size=batch_size, lr=0.05, reg=0.01, seed=1, **kwargs
    )
    return Trainer(model, dataset, sampler, config)


class TestTrainerLoop:
    def test_history_length(self, micro_dataset):
        trainer = make_trainer(micro_dataset, epochs=4)
        history = trainer.fit()
        assert len(history) == 4

    def test_every_triple_trained_each_epoch(self, micro_dataset):
        trainer = make_trainer(micro_dataset, epochs=1)
        stats = trainer.fit()[0]
        assert stats.n_triples == micro_dataset.train.n_interactions

    def test_negatives_never_train_positives(self, micro_dataset):
        trainer = make_trainer(micro_dataset, epochs=2)
        for stats in trainer.fit():
            for user, item in zip(stats.users, stats.neg_items):
                assert not micro_dataset.train.contains(int(user), int(item))

    def test_loss_decreases(self, tiny_dataset):
        trainer = make_trainer(tiny_dataset, epochs=10, batch_size=8)
        history = trainer.fit()
        assert history[-1].mean_loss < history[0].mean_loss

    def test_reproducible_with_seed(self, micro_dataset):
        a = make_trainer(micro_dataset, epochs=3)
        b = make_trainer(micro_dataset, epochs=3)
        history_a, history_b = a.fit(), b.fit()
        assert np.array_equal(history_a[-1].neg_items, history_b[-1].neg_items)
        assert np.allclose(a.model.user_factors, b.model.user_factors)

    def test_batch_size_one_matches_paper_sgd(self, micro_dataset):
        """batch_size=1 runs one update per triple (pure SGD)."""
        trainer = make_trainer(micro_dataset, epochs=1, batch_size=1)
        stats = trainer.fit()[0]
        assert stats.n_triples == micro_dataset.train.n_interactions

    def test_lr_schedule_applied(self, micro_dataset):
        model = MatrixFactorization(
            micro_dataset.n_users, micro_dataset.n_items, n_factors=4, seed=0
        )
        config = TrainingConfig(
            epochs=3,
            batch_size=2,
            lr=0.1,
            seed=0,
            lr_schedule=StepDecay(0.1, rate=0.1, every=2),
        )
        trainer = Trainer(model, micro_dataset, RandomNegativeSampler(), config)
        history = trainer.fit()
        assert history[0].lr == pytest.approx(0.1)
        assert history[2].lr == pytest.approx(0.01)

    def test_score_dependent_sampler_receives_scores(self, micro_dataset):
        trainer = make_trainer(
            micro_dataset, epochs=1, sampler=DynamicNegativeSampler(n_candidates=3)
        )
        trainer.fit()  # DNS raises internally if scores are missing

    def test_empty_training_set_rejected(self, micro_test):
        from repro.data.dataset import ImplicitDataset
        from repro.data.interactions import InteractionMatrix

        empty_train = InteractionMatrix(4, 8, [], [])
        dataset = ImplicitDataset(empty_train, micro_test)
        trainer = make_trainer(dataset, epochs=1)
        with pytest.raises(ValueError, match="empty"):
            trainer.fit()

    def test_no_shuffle_keeps_order(self, micro_dataset):
        trainer = make_trainer(micro_dataset, epochs=1, shuffle=False)
        stats = trainer.fit()[0]
        users, pos = micro_dataset.train.pairs()
        assert np.array_equal(stats.users, users)
        assert np.array_equal(stats.pos_items, pos)


class TestTrainerCallbacks:
    def test_callbacks_invoked_in_order(self, micro_dataset):
        events = []

        class Probe(Callback):
            def on_train_start(self, trainer):
                events.append("start")

            def on_epoch_end(self, stats, model):
                events.append(f"epoch{stats.epoch}")

            def on_train_end(self, trainer):
                events.append("end")

        model = MatrixFactorization(
            micro_dataset.n_users, micro_dataset.n_items, n_factors=4, seed=0
        )
        trainer = Trainer(
            model,
            micro_dataset,
            RandomNegativeSampler(),
            TrainingConfig(epochs=2, batch_size=4, seed=0),
            callbacks=[Probe()],
        )
        trainer.fit()
        assert events == ["start", "epoch0", "epoch1", "end"]

    def test_history_recorder_integration(self, micro_dataset):
        recorder = HistoryRecorder()
        model = MatrixFactorization(
            micro_dataset.n_users, micro_dataset.n_items, n_factors=4, seed=0
        )
        trainer = Trainer(
            model,
            micro_dataset,
            RandomNegativeSampler(),
            TrainingConfig(epochs=3, batch_size=4, seed=0),
            callbacks=[recorder],
        )
        trainer.fit()
        assert recorder.epochs == [0, 1, 2]
        assert all(loss > 0 for loss in recorder.loss)

    def test_sampler_epoch_hook_called(self, micro_dataset):
        epochs_seen = []

        class ProbeSampler(RandomNegativeSampler):
            def on_epoch_start(self, epoch):
                epochs_seen.append(epoch)

        trainer = make_trainer(micro_dataset, epochs=3, sampler=ProbeSampler())
        trainer.fit()
        assert epochs_seen == [0, 1, 2]


class TestBatchedSampling:
    def test_batched_negatives_never_train_positives(self, micro_dataset):
        trainer = make_trainer(
            micro_dataset, epochs=2, sampler=DynamicNegativeSampler(n_candidates=3)
        )
        for stats in trainer.fit():
            for user, item in zip(stats.users, stats.neg_items):
                assert not micro_dataset.train.contains(int(user), int(item))


class TestScalarFallbackThreshold:
    """The one-row rule: single-row batches sample per user, every larger
    batch goes through ``sample_batch``."""

    def test_small_batches_route_scalar(self, micro_dataset, monkeypatch):
        """Single-row batches never touch sample_batch, and the per-user
        route still hands the trainer an int64 array of one negative."""
        trainer = make_trainer(
            micro_dataset,
            epochs=1,
            batch_size=1,
            sampler=DynamicNegativeSampler(n_candidates=3),
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("sample_batch called for a one-row batch")

        monkeypatch.setattr(trainer.sampler, "sample_batch", forbidden)
        stepped = []
        original_step = trainer.model.train_step

        def step_spy(users, pos, neg, *args, **kwargs):
            stepped.append(neg)
            return original_step(users, pos, neg, *args, **kwargs)

        monkeypatch.setattr(trainer.model, "train_step", step_spy)
        trainer.fit()
        assert len(stepped) == micro_dataset.train.n_interactions
        for negatives in stepped:
            assert isinstance(negatives, np.ndarray)
            assert negatives.dtype == np.int64
            assert negatives.shape == (1,)

    def test_large_batches_route_batched(self, micro_dataset, monkeypatch):
        trainer = make_trainer(
            micro_dataset,
            epochs=1,
            batch_size=4,
            sampler=DynamicNegativeSampler(n_candidates=3),
        )
        calls = []
        original = trainer.sampler.sample_batch

        def spy(users, *args, **kwargs):
            calls.append(np.asarray(users).size)
            return original(users, *args, **kwargs)

        monkeypatch.setattr(trainer.sampler, "sample_batch", spy)
        trainer.fit()
        # micro: 9 pairs at batch 4 → batches of 4, 4, 1; only the ragged
        # one-row final batch takes the per-user route.
        assert calls == [4, 4]


class TestBatchArraysReadOnly:
    """Batches are slice views of the epoch's recorded pairs, so a model or
    sampler writing into its batch must raise instead of corrupting
    ``EpochStats``."""

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_model_writing_into_batch_raises(
        self, micro_dataset, monkeypatch, batch_size
    ):
        trainer = make_trainer(micro_dataset, epochs=1, batch_size=batch_size)
        original_step = trainer.model.train_step

        def scribbling_step(users, pos, neg, *args, **kwargs):
            pos[0] = neg[0]
            return original_step(users, pos, neg, *args, **kwargs)

        monkeypatch.setattr(trainer.model, "train_step", scribbling_step)
        with pytest.raises(ValueError, match="read-only"):
            trainer.fit()

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_sampler_writing_into_batch_raises(self, micro_dataset, batch_size):
        class ScribblingSampler(RandomNegativeSampler):
            def sample_for_user(self, user, pos_items, scores):
                pos_items[:] = 0
                return super().sample_for_user(user, pos_items, scores)

            def sample_batch(self, users, pos_items, scores=None, *, groups=None):
                users[:] = 0
                return super().sample_batch(users, pos_items, scores, groups=groups)

            # The batch-1 route with MF and a NONE sampler: the waves.
            def sample_in_order(self, users, pos_items):
                pos_items[:] = 0
                return super().sample_in_order(users, pos_items)

        trainer = make_trainer(
            micro_dataset, epochs=1, batch_size=batch_size, sampler=ScribblingSampler()
        )
        with pytest.raises(ValueError, match="read-only"):
            trainer.fit()

    def test_model_writing_into_wave_negatives_raises(
        self, micro_dataset, monkeypatch
    ):
        """The waves route draws the epoch's negatives up front; a step
        writing into its slice of them must raise, not rewrite history."""
        trainer = make_trainer(micro_dataset, epochs=1, batch_size=1)
        original_step = trainer.model.train_step

        def scribbling_step(users, pos, neg, *args, **kwargs):
            neg[0] = pos[0]
            return original_step(users, pos, neg, *args, **kwargs)

        monkeypatch.setattr(trainer.model, "train_step", scribbling_step)
        with pytest.raises(ValueError, match="read-only"):
            trainer.fit()

    def test_stats_record_the_batches_in_execution_order(
        self, micro_dataset, monkeypatch
    ):
        trainer = make_trainer(micro_dataset, epochs=2, batch_size=4)
        stepped = []
        original_step = trainer.model.train_step

        def step_spy(users, pos, neg, *args, **kwargs):
            stepped.append((users.tolist(), pos.tolist()))
            return original_step(users, pos, neg, *args, **kwargs)

        monkeypatch.setattr(trainer.model, "train_step", step_spy)
        for epoch, stats in enumerate(trainer.fit()):
            batches = stepped[3 * epoch : 3 * epoch + 3]  # 9 pairs: 4, 4, 1
            assert stats.users.tolist() == sum((u for u, _ in batches), [])
            assert stats.pos_items.tolist() == sum((p for _, p in batches), [])
            assert not stats.users.flags.writeable
            assert not stats.pos_items.flags.writeable


class TestDivergence:
    """A non-finite epoch loss is an error, not a result."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_raises_named_error(self, tiny_dataset):
        from repro.samplers.variants import make_sampler

        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=8, seed=1
        )
        recorder = HistoryRecorder()
        trainer = Trainer(
            model,
            tiny_dataset,
            make_sampler("bns"),
            TrainingConfig(epochs=5, batch_size=4, lr=1e6, seed=1),
            callbacks=[recorder],
        )
        with pytest.raises(TrainingDivergedError, match="epoch 0") as caught:
            trainer.fit()
        assert isinstance(caught.value, FloatingPointError)
        # The diverged epoch reaches neither the history nor a callback.
        assert trainer.history == []
        assert recorder.epochs == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_spec_does_not_report_a_diverged_run(self):
        from repro.experiments.config import RunSpec
        from repro.experiments.runner import run_spec
        from repro.train import TrainingDivergedError as exported

        assert exported is TrainingDivergedError
        spec = RunSpec(
            dataset="tiny", sampler="bns", epochs=5, batch_size=4, lr=1e6,
            n_factors=8, seed=1,
        )
        with pytest.raises(TrainingDivergedError, match="diverged in epoch"):
            run_spec(spec)


class TestEpochLossAccumulation:
    def test_mean_loss_matches_per_batch_reference(self, micro_dataset):
        """The hoisted one-pass mean equals the old per-batch log-sum."""
        trainer = make_trainer(micro_dataset, epochs=2, batch_size=4)
        for stats in trainer.fit():
            reference = float(
                -np.log(np.clip(1.0 - stats.info, 1e-12, None)).mean()
            )
            assert stats.mean_loss == pytest.approx(reference, rel=1e-12)


class TestSparseSamplingPipeline:
    """End-to-end training with SPARSE score requests (no score blocks)."""

    @pytest.mark.parametrize("cdf_spec", ["subsampled:32", "cached:50"])
    def test_trains_without_score_blocks(self, micro_dataset, cdf_spec, monkeypatch):
        from repro.samplers.variants import make_sampler

        trainer = make_trainer(
            micro_dataset,
            epochs=2,
            batch_size=4,
            sampler=make_sampler("bns", cdf=cdf_spec),
        )

        if cdf_spec.startswith("subsampled"):
            # Subsampled mode never forms a full score row or block.
            def forbidden(*args, **kwargs):
                raise AssertionError(
                    "sparse mode must not materialize score blocks"
                )

            monkeypatch.setattr(trainer.model, "scores_batch", forbidden)
            monkeypatch.setattr(trainer.model, "scores", forbidden)
        else:
            # Cached mode is *allowed* amortized refreshes (one block over
            # the stale users per window), but must not pay one per
            # dispatch like a FULL_BLOCK sampler would.
            calls = []
            original = trainer.model.scores_batch

            def counting(users, *args, **kwargs):
                calls.append(np.asarray(users).size)
                return original(users, *args, **kwargs)

            monkeypatch.setattr(trainer.model, "scores_batch", counting)
        history = trainer.fit()
        if not cdf_spec.startswith("subsampled"):
            # With a window wider than the run, block refreshes happen
            # only when a batch introduces never-seen users — far fewer
            # than the 4 batched dispatches a FULL_BLOCK sampler pays
            # (one scores_batch each, every batch).
            assert 1 <= len(calls) <= 2
        for stats in history:
            for user, item in zip(stats.users, stats.neg_items):
                assert not micro_dataset.train.contains(int(user), int(item))

    def test_sparse_run_statistically_close_to_exact(self, tiny_dataset):
        from repro.samplers.variants import make_sampler

        exact = make_trainer(
            tiny_dataset, epochs=5, batch_size=8, sampler=make_sampler("bns")
        )
        sparse = make_trainer(
            tiny_dataset,
            epochs=5,
            batch_size=8,
            sampler=make_sampler("bns", cdf="subsampled:256"),
        )
        history_e, history_s = exact.fit(), sparse.fit()
        assert abs(history_e[-1].mean_loss - history_s[-1].mean_loss) < 0.1
