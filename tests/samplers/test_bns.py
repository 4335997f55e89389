"""Tests for repro.samplers.bns — the paper's Algorithm 1."""

import numpy as np
import pytest

from repro.core.empirical import empirical_cdf_at
from repro.core.risk import conditional_sampling_risk
from repro.core.unbiasedness import unbias
from repro.samplers.base import ScoreRequest
from repro.samplers.bns import BayesianNegativeSampler, PosteriorOnlySampler
from repro.samplers.priors import OraclePrior, UniformPrior
from repro.samplers.variants import make_sampler
from repro.train.loss import informativeness
from repro.train.schedule import WarmStartLambda


@pytest.fixture
def bound(tiny_dataset, tiny_model):
    sampler = BayesianNegativeSampler(n_candidates=5, weight=5.0)
    sampler.bind(tiny_dataset, tiny_model, seed=0)
    return sampler


def batch_negatives(sampler, dataset, model, epoch):
    """Negatives for one fixed mixed batch at ``epoch``, sampler seed 3."""
    sampler.bind(dataset, model, seed=3)
    sampler.on_epoch_start(epoch)
    rng = np.random.default_rng(8)
    users = rng.choice(dataset.trainable_users(), size=64).astype(np.int64)
    pos = np.array(
        [rng.choice(dataset.train.items_of(int(u))) for u in users], dtype=np.int64
    )
    return sampler.sample_batch(users, pos, model.scores_batch(np.unique(users)))


class TestConstruction:
    def test_candidate_count_validated(self):
        with pytest.raises(ValueError):
            BayesianNegativeSampler(n_candidates=0)

    def test_none_means_full_set(self):
        sampler = BayesianNegativeSampler(n_candidates=None)
        assert sampler.n_candidates is None

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            BayesianNegativeSampler(weight=-1.0)

    def test_schedule_weight_accepted(self, tiny_dataset, tiny_model):
        """A schedule at epoch 0 acts as its first value, λ = 10."""
        scheduled = batch_negatives(
            BayesianNegativeSampler(weight=WarmStartLambda()),
            tiny_dataset, tiny_model, epoch=0,
        )
        fixed = batch_negatives(
            BayesianNegativeSampler(weight=10.0), tiny_dataset, tiny_model, epoch=0
        )
        other = batch_negatives(
            BayesianNegativeSampler(weight=0.5), tiny_dataset, tiny_model, epoch=0
        )
        assert np.array_equal(scheduled, fixed)
        assert not np.array_equal(scheduled, other)

    def test_default_prior_is_popularity(self):
        from repro.samplers.priors import PopularityPrior

        sampler = BayesianNegativeSampler()
        assert isinstance(sampler.prior, PopularityPrior)

    def test_needs_scores(self):
        assert BayesianNegativeSampler.score_request is not ScoreRequest.NONE


class TestSchedule:
    def test_epoch_updates_weight(self, tiny_dataset, tiny_model):
        """BNS-1 at epoch e draws what a fixed λ = schedule.value(e) draws
        on the same seed and block."""
        schedule = make_sampler("bns-1").weight_schedule
        drawn = {}
        for epoch in (0, 50, 100):
            drawn[epoch] = batch_negatives(
                make_sampler("bns-1"), tiny_dataset, tiny_model, epoch
            )
            fixed = BayesianNegativeSampler(weight=schedule.value(epoch))
            assert np.array_equal(
                drawn[epoch], batch_negatives(fixed, tiny_dataset, tiny_model, epoch)
            )
        assert not np.array_equal(drawn[0], drawn[100])


class TestSampling:
    def test_requires_scores(self, bound):
        with pytest.raises(ValueError, match="score vector"):
            bound.sample_for_user(0, np.asarray([1]), None)

    def test_one_per_positive(self, bound, tiny_dataset, tiny_model):
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)
        out = bound.sample_for_user(user, pos, tiny_model.scores(user))
        assert out.shape == pos.shape

    def test_avoids_positives(self, bound, tiny_dataset, tiny_model):
        for user in map(int, tiny_dataset.trainable_users()[:6]):
            pos = tiny_dataset.train.items_of(user)
            scores = tiny_model.scores(user)
            out = bound.sample_for_user(user, np.repeat(pos, 10), scores)
            assert not set(pos.tolist()).intersection(out.tolist())

    def test_empty_positives(self, bound, tiny_model):
        out = bound.sample_for_user(0, np.empty(0, dtype=np.int64), tiny_model.scores(0))
        assert out.size == 0

    def test_implements_eq32_argmin(self, tiny_dataset, tiny_model):
        """The sampled item must be the risk-argmin over the candidate set.

        Verified by re-running the selection with the same RNG stream and
        recomputing Eq. 32 by hand from first principles.
        """
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)[:3]
        scores = tiny_model.scores(user)
        weight = 5.0

        sampler = BayesianNegativeSampler(n_candidates=7, weight=weight)
        sampler.bind(tiny_dataset, tiny_model, seed=42)
        chosen = sampler.sample_for_user(user, pos, scores)

        # Replay: same seed → same candidate matrix.
        replay = BayesianNegativeSampler(n_candidates=7, weight=weight)
        replay.bind(tiny_dataset, tiny_model, seed=42)
        candidates = replay.candidate_matrix(user, pos.size, 7)

        negative_scores = scores[tiny_dataset.train.negative_mask(user)]
        cdf = empirical_cdf_at(negative_scores, scores[candidates])
        prior = replay.prior.fn_prob(user, candidates)
        posterior = unbias(cdf, prior)
        info = informativeness(scores[pos][:, None], scores[candidates])
        risk = conditional_sampling_risk(info, posterior, weight)
        expected = candidates[np.arange(pos.size), np.argmin(risk, axis=1)]
        assert np.array_equal(chosen, expected)

    def test_oracle_prior_avoids_false_negatives(self, tiny_dataset, tiny_model):
        """With the oracle prior and moderate λ, BNS should essentially
        never sample a held-out test positive."""
        sampler = BayesianNegativeSampler(
            n_candidates=10, weight=1.0, prior=OraclePrior()
        )
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        fn_hits = total = 0
        for user in map(int, tiny_dataset.evaluable_users()[:10]):
            pos = tiny_dataset.train.items_of(user)
            if pos.size == 0:
                continue
            scores = tiny_model.scores(user)
            out = sampler.sample_for_user(user, np.repeat(pos, 5), scores)
            fn_mask = tiny_dataset.false_negative_mask(user)
            fn_hits += fn_mask[out].sum()
            total += out.size
        assert total > 0
        assert fn_hits / total < 0.02

    def test_full_candidate_set(self, tiny_dataset, tiny_model):
        """n_candidates=None uses all of I⁻_u (the optimal sampler h*)."""
        sampler = BayesianNegativeSampler(n_candidates=None, weight=5.0)
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)[:2]
        scores = tiny_model.scores(user)
        out = sampler.sample_for_user(user, pos, scores)
        # Deterministic: rerunning yields the identical argmin choice.
        again = sampler.sample_for_user(user, pos, scores)
        assert np.array_equal(out, again)

    def test_higher_weight_prefers_harder_negatives(self, tiny_dataset, tiny_model):
        """Raising λ shifts selection toward high-score (informative) items."""
        user = int(tiny_dataset.trainable_users()[0])
        pos = np.repeat(tiny_dataset.train.items_of(user)[:1], 400)
        scores = tiny_model.scores(user)
        means = {}
        for weight in (0.1, 15.0):
            sampler = BayesianNegativeSampler(n_candidates=5, weight=weight)
            sampler.bind(tiny_dataset, tiny_model, seed=7)
            out = sampler.sample_for_user(user, pos, scores)
            means[weight] = scores[out].mean()
        assert means[15.0] > means[0.1]


class TestPosteriorOnly:
    def test_eq35_argmax_unbias(self, tiny_dataset, tiny_model):
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)[:3]
        scores = tiny_model.scores(user)

        sampler = PosteriorOnlySampler(n_candidates=6)
        sampler.bind(tiny_dataset, tiny_model, seed=11)
        chosen = sampler.sample_for_user(user, pos, scores)

        replay = PosteriorOnlySampler(n_candidates=6)
        replay.bind(tiny_dataset, tiny_model, seed=11)
        candidates = replay.candidate_matrix(user, pos.size, 6)
        negative_scores = scores[tiny_dataset.train.negative_mask(user)]
        cdf = empirical_cdf_at(negative_scores, scores[candidates])
        prior = replay.prior.fn_prob(user, candidates)
        posterior = unbias(cdf, prior)
        expected = candidates[np.arange(pos.size), np.argmax(posterior, axis=1)]
        assert np.array_equal(chosen, expected)

    def test_requires_scores(self, tiny_dataset, tiny_model):
        sampler = PosteriorOnlySampler()
        sampler.bind(tiny_dataset, tiny_model, seed=0)
        with pytest.raises(ValueError, match="score vector"):
            sampler.sample_for_user(0, np.asarray([1]), None)

    def test_selects_lower_scored_than_dns(self, tiny_dataset, tiny_model):
        """Posterior-only chases unbiasedness → lower scores than DNS picks."""
        from repro.samplers.dns import DynamicNegativeSampler

        user = int(tiny_dataset.trainable_users()[0])
        pos = np.zeros(500, dtype=np.int64)
        scores = tiny_model.scores(user)
        posterior = PosteriorOnlySampler(n_candidates=5)
        dns = DynamicNegativeSampler(n_candidates=5)
        posterior.bind(tiny_dataset, tiny_model, seed=3)
        dns.bind(tiny_dataset, tiny_model, seed=3)
        posterior_mean = scores[posterior.sample_for_user(user, pos, scores)].mean()
        dns_mean = scores[dns.sample_for_user(user, pos, scores)].mean()
        assert posterior_mean < dns_mean
