"""Tests for repro.serve.service — including the serving acceptance bar:

served ``top_k(user, k)`` is bitwise-identical to the offline
evaluator's ``top_k_items_batch`` list for every user, tie order
included, both before and after an interaction-append invalidation.
"""

import threading

import numpy as np
import pytest

from repro.data.registry import load_dataset
from repro.eval.topk import top_k_items_batch
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization
from repro.models.persistence import save_model
from repro.serve import RankingService


@pytest.fixture(scope="module")
def tiny():
    return load_dataset("tiny", seed=0)


@pytest.fixture()
def model(tiny):
    return MatrixFactorization(tiny.n_users, tiny.n_items, n_factors=8, seed=1)


def offline_top_k(model, train, k):
    """The evaluator's exact pipeline: score, mask seen, canonical top-K."""
    users = np.arange(train.n_users, dtype=np.int64)
    block = np.asarray(model.scores_batch(users), dtype=np.float64).copy()
    rows, cols = train.positives_in_rows(users)
    block[rows, cols] = -np.inf
    return top_k_items_batch(block, k)


def assert_serves_offline_lists(service, model, k):
    ids, lengths = offline_top_k(model, service.train, k)
    for user in range(service.train.n_users):
        served = service.top_k(user, k)
        expected = ids[user, : lengths[user]]
        assert np.array_equal(served, expected), f"user {user} diverged"
        assert served.dtype == np.int64


class TestBitwiseParity:
    """The acceptance criterion of the serving layer."""

    @pytest.mark.parametrize("cache_k", [0, 16])
    @pytest.mark.parametrize("coalesce", [False, True])
    def test_served_equals_offline_before_and_after_append(
        self, tiny, model, cache_k, coalesce
    ):
        service = RankingService(
            model, tiny.train, cache_k=cache_k, coalesce=coalesce
        )
        if cache_k:
            service.warmup()
        assert_serves_offline_lists(service, model, k=10)

        # Append interactions (including each touched user's current #1
        # recommendation, so the served list MUST change) and re-check
        # parity against the updated matrix.
        ids, _ = offline_top_k(model, service.train, 10)
        users = np.asarray([0, 0, 3], dtype=np.int64)
        items = np.asarray([ids[0, 0], ids[0, 1], ids[3, 0]], dtype=np.int64)
        service.add_interactions(users, items)
        assert_serves_offline_lists(service, model, k=10)

    def test_ties_served_in_canonical_order(self, tiny):
        # A constant-score model makes every item a tie: the canonical
        # order (descending score, ascending id) must yield ascending
        # unseen item ids.
        class Constant:
            n_users = tiny.n_users
            n_items = tiny.n_items

            def scores_batch(self, users):
                return np.zeros((len(users), self.n_items))

        service = RankingService(Constant(), tiny.train, cache_k=8, coalesce=False)
        service.warmup()
        for user in (0, 1, 2):
            seen = set(tiny.train.items_of(user).tolist())
            expected = [i for i in range(tiny.n_items) if i not in seen][:5]
            assert np.array_equal(service.top_k(user, 5), expected)


class TestCacheBehaviour:
    def test_warm_requests_hit_the_cache(self, tiny, model):
        service = RankingService(model, tiny.train, cache_k=16, coalesce=False)
        assert service.warmup() == tiny.n_users
        assert service.n_cached_users == tiny.n_users
        service.top_k(0, 10)
        service.top_k(1, 10)
        assert service.stats.cache_hits == 2
        assert service.stats.cache_misses == 0
        assert service.stats.hit_rate == 1.0

    def test_miss_populates_cache(self, tiny, model):
        service = RankingService(model, tiny.train, cache_k=16, coalesce=False)
        first = service.top_k(5, 10)
        second = service.top_k(5, 10)
        assert np.array_equal(first, second)
        assert service.stats.cache_misses == 1
        assert service.stats.cache_hits == 1
        # The miss scored once; the hit did not score again.
        assert service.stats.scored_users == 1

    def test_request_wider_than_cache_bypasses(self, tiny, model):
        service = RankingService(model, tiny.train, cache_k=4, coalesce=False)
        service.warmup()
        ids, lengths = offline_top_k(model, tiny.train, 12)
        got = service.top_k(2, 12)
        assert np.array_equal(got, ids[2, : lengths[2]])

    def test_append_invalidates_only_touched_users(self, tiny, model):
        service = RankingService(model, tiny.train, cache_k=16, coalesce=False)
        service.warmup()
        scored_before = service.stats.scored_users
        touched = service.add_interactions([3], [7])
        assert touched == 1
        service.top_k(0, 10)  # untouched user: still a hit
        assert service.stats.cache_hits == 1
        service.top_k(3, 10)  # touched user: strict mode -> recompute
        assert service.stats.cache_misses == 1
        assert service.stats.scored_users == scored_before + 1

    def test_cache_disabled_scores_every_request(self, tiny, model):
        service = RankingService(model, tiny.train, cache_k=0, coalesce=False)
        assert service.warmup() == 0
        service.top_k(0, 10)
        service.top_k(0, 10)
        assert service.stats.cache_hits == 0
        assert service.stats.scored_users == 2


class TestStalenessMode:
    def test_stale_entries_served_with_fresh_items_hidden(self, tiny, model):
        service = RankingService(
            model, tiny.train, cache_k=16, refresh_every=100, coalesce=False
        )
        service.warmup()
        before = service.top_k(0, 10)
        service.add_interactions([0], [before[0]])
        stale = service.top_k(0, 10)
        # Stale read: the old ranking with the newly seen item struck
        # out (never re-served), backfilled from the deeper cache prefix.
        # With a frozen model that equals the fresh ranking exactly.
        assert before[0] not in stale
        ids, lengths = offline_top_k(model, service.train, 10)
        assert np.array_equal(stale, ids[0, : lengths[0]])
        assert service.stats.cache_hits == 2  # both reads were cache hits
        assert service.stats.scored_users == tiny.n_users  # warmup only

    def test_refresh_stale_restores_exactness(self, tiny, model):
        service = RankingService(
            model, tiny.train, cache_k=16, refresh_every=100, coalesce=False
        )
        service.warmup()
        ids, _ = offline_top_k(model, tiny.train, 10)
        service.add_interactions([0], [ids[0, 0]])
        assert service.refresh_stale() == 1
        assert_serves_offline_lists(service, model, k=10)

    def test_stale_entry_expires_into_recompute(self, tiny, model):
        service = RankingService(
            model, tiny.train, cache_k=16, refresh_every=2, coalesce=False
        )
        service.warmup()
        service.add_interactions([0], [1])
        service.top_k(0, 10)  # request 1: stale hit
        service.top_k(0, 10)  # request 2: window expired -> miss+recompute
        assert service.stats.cache_misses == 1
        assert_serves_offline_lists(service, model, k=10)


class TestBatchAndConcurrency:
    def test_top_k_many_matches_scalar(self, tiny, model):
        service = RankingService(model, tiny.train, cache_k=16, coalesce=False)
        users = [5, 0, 5, 9]
        batched = service.top_k_many(users, k=10)
        reference = RankingService(model, tiny.train, cache_k=0, coalesce=False)
        for user, got in zip(users, batched):
            assert np.array_equal(got, reference.top_k(user, 10))

    def test_top_k_many_single_gemm_for_misses(self, tiny, model):
        service = RankingService(model, tiny.train, cache_k=16, coalesce=False)
        service.top_k_many([1, 2, 3, 2], k=10)
        # Three unique missing users -> one block of three scored rows.
        assert service.stats.scored_users == 3
        assert service.stats.requests == 4

    def test_concurrent_coalesced_requests_are_exact(self, tiny, model):
        service = RankingService(
            model, tiny.train, cache_k=0, coalesce=True, max_wait=0.05
        )
        ids, lengths = offline_top_k(model, tiny.train, 10)
        users = list(range(tiny.n_users)) * 2
        results = {}
        errors = []
        barrier = threading.Barrier(8)

        def client(worker, share):
            barrier.wait()
            try:
                for user in share:
                    results[(worker, user)] = service.top_k(user, 10)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        shares = [users[i::8] for i in range(8)]
        threads = [
            threading.Thread(target=client, args=(worker, share))
            for worker, share in enumerate(shares)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        for (_, user), got in results.items():
            assert np.array_equal(got, ids[user, : lengths[user]])
        assert service.coalescer_stats.requests == len(users)


class TestValidationAndCheckpoints:
    def test_universe_mismatch_rejected(self, tiny, model):
        other = load_dataset("tiny", seed=0).train
        bad = MatrixFactorization(tiny.n_users + 1, tiny.n_items, 4, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            RankingService(bad, other)

    def test_out_of_range_user_rejected(self, tiny, model):
        service = RankingService(model, tiny.train, cache_k=0, coalesce=False)
        with pytest.raises(IndexError):
            service.top_k(tiny.n_users, 5)
        with pytest.raises(IndexError):
            service.top_k(-1, 5)
        with pytest.raises(IndexError):
            service.top_k_many([0, tiny.n_users], 5)

    def test_bad_k_rejected(self, tiny, model):
        service = RankingService(model, tiny.train, cache_k=0, coalesce=False)
        with pytest.raises(ValueError):
            service.top_k(0, 0)

    @pytest.mark.parametrize("kind", ["mf", "biased_mf"])
    def test_from_checkpoint_mf_family(self, tiny, tmp_path, kind):
        cls = {
            "mf": MatrixFactorization,
            "biased_mf": BiasedMatrixFactorization,
        }[kind]
        trained = cls(tiny.n_users, tiny.n_items, n_factors=8, seed=3)
        path = tmp_path / "model.npz"
        save_model(trained, path)
        service = RankingService.from_checkpoint(
            path, tiny.train, cache_k=8, coalesce=False
        )
        assert_serves_offline_lists(service, trained, k=8)

    def test_from_checkpoint_mf_requires_train(self, tiny, tmp_path):
        trained = MatrixFactorization(tiny.n_users, tiny.n_items, 8, seed=3)
        path = tmp_path / "model.npz"
        save_model(trained, path)
        with pytest.raises(ValueError, match="stores no interactions"):
            RankingService.from_checkpoint(path)

    def test_from_checkpoint_lightgcn_rebuilds_graph(self, tiny, tmp_path):
        trained = LightGCN(tiny.train, n_factors=8, n_layers=1, seed=3)
        path = tmp_path / "model.npz"
        save_model(trained, path)
        service = RankingService.from_checkpoint(path, cache_k=8, coalesce=False)
        assert service.train.n_interactions == tiny.train.n_interactions
        assert_serves_offline_lists(service, trained, k=8)


def _score_fault(user, times=99, action="raise"):
    """A plan that fails scoring for ``user`` at the serve.score seam."""
    from repro.reliability import FaultInjector, FaultPlan, FaultSpec

    return FaultInjector(
        FaultPlan(
            [
                FaultSpec(
                    site="serve.score",
                    key=str(user),
                    action=action,
                    times=times,
                )
            ]
        )
    )


def popularity_fallback(train, user, k):
    """Most popular unseen items, ties by id: the deterministic fallback."""
    order = np.argsort(-train.item_popularity, kind="stable")
    seen = set(train.items_of(user).tolist())
    return [item for item in order.tolist() if item not in seen][:k]


class TestGracefulDegradation:
    def test_scoring_failure_served_by_popularity_fallback(self, tiny, model):
        service = RankingService(
            model, tiny.train, coalesce=False, fault_injector=_score_fault(0)
        )
        served = service.top_k(0, 5)
        assert served.tolist() == popularity_fallback(tiny.train, 0, 5)
        assert service.stats.degraded == 1
        assert service.stats.degraded_popularity == 1
        assert service.stats.scoring_failures == 1

    def test_fallback_never_recommends_seen_items(self, tiny, model):
        service = RankingService(
            model,
            tiny.train,
            coalesce=False,
            fault_injector=_score_fault(1),
        )
        served = service.top_k(1, tiny.n_items)
        seen = set(tiny.train.items_of(1).tolist())
        assert not seen.intersection(served.tolist())

    def test_stale_cache_preferred_over_popularity(self, tiny, model):
        service = RankingService(
            model, tiny.train, coalesce=False, refresh_every=2
        )
        fresh = service.top_k(0, 5)  # populates the cache
        service._faults = _score_fault(0)
        service.add_interactions([0], [int(fresh[0])])  # invalidate user 0
        service._cache.advance()
        service._cache.advance()  # expire the staleness window
        served = service.top_k(0, 5)
        # The expired entry is peeked: the old list minus the now-seen
        # item, backfilled from deeper cached entries.
        assert service.stats.degraded_stale == 1
        assert int(fresh[0]) not in served.tolist()
        assert served.tolist()[:4] == fresh.tolist()[1:]

    def test_breaker_opens_after_consecutive_failures(self, tiny, model):
        service = RankingService(
            model,
            tiny.train,
            coalesce=False,
            cache_k=0,
            breaker_threshold=2,
            fault_injector=_score_fault(0),
        )
        service.top_k(0, 5)
        service.top_k(0, 5)
        assert service.breaker.state == "open"
        # Breaker-open requests degrade without touching the scorer.
        service.top_k(0, 5)
        assert service.stats.scoring_failures == 2
        assert service.stats.degraded == 3
        assert service.breaker.rejections == 1

    def test_healthy_users_unaffected_by_anothers_faults(self, tiny, model):
        service = RankingService(
            model,
            tiny.train,
            coalesce=False,
            breaker_threshold=10,
            fault_injector=_score_fault(0),
        )
        service.top_k(0, 5)  # degraded
        clean = RankingService(model, tiny.train, coalesce=False)
        assert np.array_equal(service.top_k(1, 5), clean.top_k(1, 5))

    def test_degraded_serving_off_reraises(self, tiny, model):
        from repro.reliability import FaultInjected

        service = RankingService(
            model,
            tiny.train,
            coalesce=False,
            degraded_serving=False,
            fault_injector=_score_fault(0),
        )
        with pytest.raises(FaultInjected):
            service.top_k(0, 5)
        assert service.stats.degraded == 0

    def test_top_k_many_degrades_only_the_batch(self, tiny, model):
        service = RankingService(
            model,
            tiny.train,
            coalesce=False,
            breaker_threshold=10,
            fault_injector=_score_fault(2),
        )
        results = service.top_k_many([0, 1, 2], 5)
        assert len(results) == 3
        for served in results:
            assert served.size > 0
        # One batch gemm failed, so all three members of it degraded.
        assert service.stats.degraded == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("broken", ["all-nan", "one-nan", "one-inf"])
    @pytest.mark.parametrize("coalesce", [False, True])
    def test_non_finite_scores_degrade(self, tiny, model, broken, coalesce):
        """A NaN or +inf score is a scoring failure, as in the evaluator:
        never ranked, never cached, and the breaker hears of it."""
        unseen = np.setdiff1d(np.arange(tiny.n_items), tiny.train.items_of(0))
        if broken == "all-nan":
            model.item_factors[:] = np.nan
        elif broken == "one-nan":
            model.item_factors[unseen[0]] = np.nan
        else:  # every term of the dot product +inf
            model.item_factors[unseen[0]] = np.copysign(np.inf, model.user_factors[0])
            assert np.isposinf(model.scores(0)[unseen[0]])
        service = RankingService(model, tiny.train, coalesce=coalesce)
        served = service.top_k(0, 64)
        assert served.tolist() == popularity_fallback(tiny.train, 0, 64)
        assert service.stats.degraded == 1
        assert service.stats.degraded_popularity == 1
        assert service.stats.scoring_failures == 1
        assert 0 not in service._cache

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_scores_reraise_without_degraded_serving(self, tiny, model):
        from repro.eval.protocol import NonFiniteScoresError

        model.item_factors[:] = np.nan
        service = RankingService(
            model, tiny.train, coalesce=False, degraded_serving=False
        )
        with pytest.raises(NonFiniteScoresError, match="user 0"):
            service.top_k(0, 10)
        assert service.stats.scoring_failures == 1

    def test_coalesced_path_degrades_too(self, tiny, model):
        service = RankingService(
            model,
            tiny.train,
            max_wait=0.0,
            breaker_threshold=10,
            fault_injector=_score_fault(0),
        )
        served = service.top_k(0, 5)
        assert served.size > 0
        assert service.stats.degraded == 1


class TestHealth:
    def test_healthy_snapshot(self, tiny, model):
        service = RankingService(model, tiny.train, coalesce=False)
        service.warmup()
        service.top_k(0, 5)
        health = service.health()
        assert health.status == "ok"
        assert health.breaker_state == "closed"
        assert health.breaker_opens == 0
        assert health.checkpoint_age_seconds >= 0.0
        assert health.checkpoint_path is None
        assert health.n_cached_users == tiny.n_users
        assert health.requests == 1
        assert health.cache_hit_rate == 1.0
        assert health.degraded_rate == 0.0

    def test_degraded_snapshot(self, tiny, model):
        service = RankingService(
            model,
            tiny.train,
            coalesce=False,
            cache_k=0,
            breaker_threshold=1,
            fault_injector=_score_fault(0),
        )
        service.top_k(0, 5)
        health = service.health()
        assert health.status == "degraded"
        assert health.breaker_state == "open"
        assert health.breaker_opens == 1
        assert health.degraded_rate == 1.0
        # The snapshot carries the full stats copy for dashboards, and
        # it is a copy — mutating the live service does not change it.
        service.top_k(0, 5)
        assert health.stats.degraded == 1

    def test_from_checkpoint_records_path(self, tiny, tmp_path):
        trained = MatrixFactorization(tiny.n_users, tiny.n_items, 8, seed=3)
        path = tmp_path / "model.npz"
        save_model(trained, path)
        service = RankingService.from_checkpoint(
            path, tiny.train, coalesce=False
        )
        assert service.health().checkpoint_path == str(path)
