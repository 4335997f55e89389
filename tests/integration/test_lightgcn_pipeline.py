"""LightGCN-specific integration coverage (batched trainer path, Adam)."""

import numpy as np
import pytest

from repro.eval.protocol import Evaluator
from repro.models.lightgcn import LightGCN
from repro.samplers.variants import make_sampler
from repro.train.optimizer import Adam
from repro.train.schedule import StepDecay
from repro.train.trainer import Trainer, TrainingConfig


class TestLightGCNPipeline:
    def test_batched_training_with_score_sampler(self, tiny_dataset):
        """The grouped-batch sampling path with a score-consuming sampler."""
        model = LightGCN(tiny_dataset.train, n_factors=8, n_layers=1, seed=0)
        trainer = Trainer(
            model,
            tiny_dataset,
            make_sampler("bns", n_candidates=3),
            TrainingConfig(epochs=2, batch_size=32, lr=0.02, reg=1e-5, seed=0),
            optimizer=Adam(0.02),
        )
        history = trainer.fit()
        assert len(history) == 2
        assert np.all(np.isfinite(model.base_embeddings))

    def test_paper_lr_schedule_integration(self, tiny_dataset):
        model = LightGCN(tiny_dataset.train, n_factors=8, n_layers=1, seed=0)
        config = TrainingConfig(
            epochs=3,
            batch_size=32,
            lr=0.01,
            reg=1e-5,
            seed=0,
            lr_schedule=StepDecay(0.01, rate=0.1, every=2),
        )
        trainer = Trainer(
            model, tiny_dataset, make_sampler("rns"), config, optimizer=Adam(0.01)
        )
        history = trainer.fit()
        assert history[0].lr == pytest.approx(0.01)
        assert history[2].lr == pytest.approx(0.001)

    def test_graph_isolated_from_test_edges(self, tiny_dataset):
        """The propagation graph must be built from train edges only."""
        model = LightGCN(tiny_dataset.train, n_factors=4, seed=0)
        n_train_edges = tiny_dataset.train.n_interactions
        assert model._adjacency.nnz == 2 * n_train_edges

    def test_two_layer_variant_trains(self, tiny_dataset):
        model = LightGCN(tiny_dataset.train, n_factors=8, n_layers=2, seed=0)
        trainer = Trainer(
            model,
            tiny_dataset,
            make_sampler("rns"),
            TrainingConfig(epochs=2, batch_size=32, lr=0.02, reg=1e-5, seed=0),
            optimizer=Adam(0.02),
        )
        trainer.fit()
        metrics = Evaluator(tiny_dataset, ks=(5,)).evaluate(model)
        assert 0.0 <= metrics["ndcg@5"] <= 1.0
