"""End-to-end integration tests: data → model → sampler → train → eval."""

import numpy as np
import pytest

from repro import quick_train
from repro.data.registry import load_dataset
from repro.eval.protocol import Evaluator
from repro.eval.sampling_quality import SamplingQualityRecorder
from repro.experiments.config import RunSpec
from repro.experiments.runner import run_spec
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization
from repro.samplers.variants import make_sampler
from repro.train.optimizer import Adam, SGD
from repro.train.trainer import Trainer, TrainingConfig


class TestQuickTrain:
    def test_mf_pipeline(self):
        result = quick_train("tiny", sampler="rns", epochs=5, seed=3)
        assert result.sampler_name == "RNS"
        assert 0.0 <= result.metrics["ndcg@20"] <= 1.0
        assert len(result.loss_curve) == 5

    def test_lightgcn_pipeline(self):
        result = quick_train(
            "tiny", model="lightgcn", sampler="dns", epochs=4, seed=3
        )
        assert result.metrics

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            quick_train("tiny", model="ncf", epochs=2)

    @pytest.mark.parametrize("model", ["mf", "lightgcn"])
    def test_trains_what_run_spec_trains(self, model):
        """Both build through ``build_model``; 21 epochs reach LightGCN's
        first step decay of the LR (epoch 20, §IV-B1b)."""
        kwargs = dict(model=model, sampler="dns", epochs=21, batch_size=64, seed=3)
        quick = quick_train("tiny", **kwargs)
        run = run_spec(RunSpec(dataset="tiny", **kwargs))
        assert quick.loss_curve == run.loss_curve
        assert quick.metrics == run.metrics


@pytest.mark.parametrize(
    "sampler_name",
    ["rns", "pns", "aobpr", "dns", "srns", "bns", "bns-posterior",
     "bns-1", "bns-2", "bns-3", "bns-4", "bns-oracle"],
)
def test_every_sampler_trains_end_to_end(tiny_dataset, sampler_name):
    """Every registered sampler must survive a short MF training run and
    produce negatives that are never train positives."""
    model = MatrixFactorization(
        tiny_dataset.n_users, tiny_dataset.n_items, n_factors=8, seed=0
    )
    sampler = make_sampler(sampler_name)
    recorder = SamplingQualityRecorder(tiny_dataset)
    trainer = Trainer(
        model,
        tiny_dataset,
        sampler,
        TrainingConfig(epochs=2, batch_size=16, lr=0.05, seed=0),
        callbacks=[recorder],
    )
    history = trainer.fit()
    for stats in history:
        for user, item in zip(stats.users, stats.neg_items):
            assert not tiny_dataset.train.contains(int(user), int(item))
    assert len(recorder.records) == 2
    metrics = Evaluator(tiny_dataset, ks=(5,)).evaluate(model)
    assert 0.0 <= metrics["ndcg@5"] <= 1.0


class TestLearningSignal:
    def test_mf_beats_untrained_baseline(self, tiny_dataset):
        untrained = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=16, seed=1
        )
        evaluator = Evaluator(tiny_dataset, ks=(10,))
        before = evaluator.evaluate(untrained)["ndcg@10"]

        trained = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=16, seed=1
        )
        trainer = Trainer(
            trained,
            tiny_dataset,
            make_sampler("rns"),
            TrainingConfig(epochs=25, batch_size=8, lr=0.05, reg=0.005, seed=1),
        )
        trainer.fit()
        after = evaluator.evaluate(trained)["ndcg@10"]
        assert after > before + 0.05

    def test_lightgcn_learns(self, tiny_dataset):
        model = LightGCN(tiny_dataset.train, n_factors=16, n_layers=1, seed=1)
        evaluator = Evaluator(tiny_dataset, ks=(10,))
        before = evaluator.evaluate(model)["ndcg@10"]
        trainer = Trainer(
            model,
            tiny_dataset,
            make_sampler("rns"),
            TrainingConfig(epochs=20, batch_size=32, lr=0.05, reg=1e-5, seed=1),
            optimizer=Adam(0.05),
        )
        trainer.fit()
        after = evaluator.evaluate(model)["ndcg@10"]
        assert after > before

    def test_bns_matches_or_beats_rns(self):
        """The headline claim at miniature scale, averaged over seeds."""
        gains = []
        for seed in (0, 1, 2):
            rns = quick_train("tiny", sampler="rns", epochs=15, seed=seed)
            bns = quick_train("tiny", sampler="bns", epochs=15, seed=seed)
            gains.append(bns.metrics["ndcg@20"] - rns.metrics["ndcg@20"])
        assert np.mean(gains) > -0.01  # BNS at least on par on average


class TestOracleSamplingQuality:
    def test_oracle_bns_has_near_perfect_tnr(self, tiny_dataset):
        """With ground-truth priors, BNS should almost never pick an FN."""
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=8, seed=0
        )
        recorder = SamplingQualityRecorder(tiny_dataset)
        trainer = Trainer(
            model,
            tiny_dataset,
            make_sampler("bns-oracle", n_candidates=10, weight=1.0),
            TrainingConfig(epochs=3, batch_size=16, lr=0.05, seed=0),
            callbacks=[recorder],
        )
        trainer.fit()
        assert recorder.tnr_series.mean() > 0.99
