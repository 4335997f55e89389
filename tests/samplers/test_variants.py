"""Tests for repro.samplers.variants (BNS-1..4 and the registry)."""

import numpy as np
import pytest

from repro.samplers.aobpr import AOBPRSampler
from repro.samplers.base import ScoreRequest
from repro.samplers.bns import BayesianNegativeSampler, PosteriorOnlySampler
from repro.samplers.dns import DynamicNegativeSampler
from repro.samplers.priors import OccupationPrior, OraclePrior, UniformPrior
from repro.samplers.rns import RandomNegativeSampler
from repro.samplers.variants import (
    WarmStartSampler,
    make_bns,
    make_bns_occupation_prior,
    make_bns_oracle,
    make_bns_uninformative_prior,
    make_bns_warm_lambda,
    make_bns_warm_start,
    make_sampler,
)
from repro.train.schedule import WarmStartLambda


class TestFactories:
    def test_make_bns_defaults(self):
        sampler = make_bns()
        assert sampler.n_candidates == 5
        assert sampler.weight_schedule.value(0) == 5.0

    def test_bns1_schedule(self):
        sampler = make_bns_warm_lambda()
        assert isinstance(sampler.weight_schedule, WarmStartLambda)
        assert sampler.name == "BNS-1"

    def test_bns2_structure(self):
        sampler = make_bns_warm_start(warmup_epochs=4)
        assert isinstance(sampler, WarmStartSampler)
        assert isinstance(sampler.warmup_sampler, RandomNegativeSampler)
        assert isinstance(sampler.main_sampler, BayesianNegativeSampler)

    def test_bns3_uniform_prior(self):
        sampler = make_bns_uninformative_prior()
        assert isinstance(sampler.prior, UniformPrior)
        assert sampler.name == "BNS-3"

    def test_bns4_occupation_prior(self):
        sampler = make_bns_occupation_prior()
        assert isinstance(sampler.prior, OccupationPrior)
        assert sampler.name == "BNS-4"

    def test_oracle_prior(self):
        sampler = make_bns_oracle()
        assert isinstance(sampler.prior, OraclePrior)


class TestRegistry:
    @pytest.mark.parametrize(
        "name, expected_type",
        [
            ("rns", RandomNegativeSampler),
            ("dns", DynamicNegativeSampler),
            ("aobpr", AOBPRSampler),
            ("bns", BayesianNegativeSampler),
            ("bns-posterior", PosteriorOnlySampler),
            ("BNS", BayesianNegativeSampler),  # case-insensitive
            ("bns-2", WarmStartSampler),
        ],
    )
    def test_lookup(self, name, expected_type):
        assert isinstance(make_sampler(name), expected_type)

    def test_kwargs_forwarded(self):
        sampler = make_sampler("dns", n_candidates=9)
        assert sampler.n_candidates == 9

    def test_bns_none_candidates(self):
        sampler = make_sampler("bns-oracle", n_candidates=None)
        assert sampler.n_candidates is None

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown sampler"):
            make_sampler("made-up")


class TestWarmStartSampler:
    @pytest.fixture
    def bound(self, tiny_dataset, tiny_model):
        sampler = make_bns_warm_start(warmup_epochs=3)
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        return sampler

    def test_warmup_epochs_validated(self):
        with pytest.raises(ValueError):
            make_bns_warm_start(warmup_epochs=-1)

    def test_delegation_switches(self, bound):
        # The delegated score request names the active sampler: RNS asks
        # for nothing, BNS for the score block.
        bound.on_epoch_start(0)
        assert bound.score_request is ScoreRequest.NONE
        bound.on_epoch_start(2)
        assert bound.score_request is ScoreRequest.NONE
        bound.on_epoch_start(3)
        assert bound.score_request is ScoreRequest.FULL_BLOCK

    def test_zero_warmup_starts_on_main(self, tiny_dataset, tiny_model):
        sampler = make_bns_warm_start(warmup_epochs=0)
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        sampler.on_epoch_start(0)
        assert sampler.score_request is ScoreRequest.FULL_BLOCK

    def test_samples_through_active(self, bound, tiny_dataset, tiny_model):
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)[:2]
        scores = tiny_model.scores(user)
        bound.on_epoch_start(0)
        out_warm = bound.sample_for_user(user, pos, scores)
        bound.on_epoch_start(10)
        out_main = bound.sample_for_user(user, pos, scores)
        assert out_warm.shape == out_main.shape == pos.shape

    def test_both_children_bound(self, bound, tiny_dataset):
        assert bound.warmup_sampler.dataset is tiny_dataset
        assert bound.main_sampler.dataset is tiny_dataset
