"""CDF-estimator contracts: exact parity, DKW accuracy, staleness.

Three invariant families pin the estimator subsystem:

* **ExactCDF bitwise parity** — the default pipeline (no ``cdf`` argument,
  full score block) must keep producing the exact negatives the
  pre-estimator implementation produced.  Golden negatives were captured
  from that implementation under pinned seeds and are asserted verbatim.
* **SubsampledCDF statistics** — the Monte-Carlo CDF must converge to the
  exact one as ``s`` grows and respect the Dvoretzky–Kiefer–Wolfowitz
  uniform error bound.
* **CachedCDF staleness** — cached references must be served unchanged for
  exactly ``refresh_every`` dispatches, then rebuilt from the live model;
  everything deterministic under a bound seed.
"""

import numpy as np
import pytest

from repro.data.registry import load_dataset
from repro.models.mf import MatrixFactorization
from repro.samplers.base import ScoreRequest, group_batch_by_user
from repro.samplers.bns import BayesianNegativeSampler, PosteriorOnlySampler
from repro.samplers.cdf import (
    CachedCDF,
    CDFEstimator,
    ExactCDF,
    SubsampledCDF,
    _sort_negative_rows,
    make_cdf,
)
from repro.samplers.variants import make_sampler


def pinned_setup(dataset_name):
    """The exact (dataset, model, batch) the golden negatives were drawn on."""
    dataset = load_dataset(dataset_name, seed=0)
    model = MatrixFactorization(
        dataset.n_users, dataset.n_items, n_factors=8, seed=3
    )
    rng = np.random.default_rng(99)
    users = rng.choice(dataset.trainable_users(), size=32, replace=True).astype(
        np.int64
    )
    pos = np.array(
        [rng.choice(dataset.train.items_of(int(u))) for u in users], dtype=np.int64
    )
    return dataset, model, users, pos


#: Negatives produced by the pre-estimator BNS pipeline (sampler seed 7,
#: epoch 0) on :func:`pinned_setup` — the bitwise-compatibility anchor for
#: the default configuration (ExactCDF, full score block).
GOLDEN_NEGATIVES = {
    ("tiny", "bns"): [
        58, 57, 1, 36, 0, 38, 25, 18, 59, 1, 15, 20, 58, 9, 46, 37,
        22, 22, 13, 55, 55, 22, 41, 16, 22, 33, 34, 27, 27, 39, 36, 52,
    ],
    ("tiny", "bns-posterior"): [
        34, 57, 1, 40, 51, 59, 38, 18, 34, 9, 10, 2, 58, 40, 52, 37,
        20, 10, 43, 42, 55, 11, 41, 26, 22, 33, 8, 43, 27, 35, 21, 52,
    ],
    ("ml-100k-small", "bns"): [
        127, 200, 189, 116, 144, 274, 156, 123, 215, 159, 45, 11, 229, 182,
        129, 60, 96, 66, 69, 126, 193, 101, 142, 83, 8, 55, 28, 192, 44,
        301, 60, 296,
    ],
    ("ml-100k-small", "bns-posterior"): [
        121, 33, 241, 74, 242, 43, 270, 294, 76, 110, 59, 144, 274, 10,
        288, 269, 108, 294, 236, 263, 259, 285, 193, 75, 115, 211, 165,
        204, 244, 241, 112, 248,
    ],
}


#: Negatives of both Bayesian samplers on :func:`pinned_setup` ("tiny",
#: sampler seed 7, epoch 0) along the two routes ``GOLDEN_NEGATIVES``
#: does not cover: ``"one-row"`` is the trainer's batch-size-1 route, one
#: ``sample_for_user`` call per batch row in batch order (handed the
#: user's ``model.scores`` row when the estimator is exact, ``None`` when
#: it is sparse); ``"batch"`` is one ``sample_batch`` call in sparse mode.
#: Keyed by ``(route, sampler, cdf)``.
ROUTE_GOLDENS = {
    ("one-row", "bns", "exact"): [
        58, 52, 35, 50, 2, 34, 11, 52, 15, 33, 37, 37, 42, 16,
        43, 58, 11, 36, 33, 1, 33, 22, 8, 51, 46, 11, 36, 27,
        27, 58, 15, 13,
    ],
    ("one-row", "bns", "subsampled:64"): [
        58, 30, 35, 39, 2, 30, 11, 52, 33, 33, 37, 37, 42, 16,
        43, 58, 11, 36, 52, 1, 62, 22, 8, 51, 46, 24, 36, 27,
        27, 58, 39, 62,
    ],
    ("one-row", "bns", "cached:3"): [
        58, 52, 35, 50, 2, 30, 11, 52, 15, 33, 37, 37, 42, 16,
        43, 58, 11, 36, 33, 1, 33, 22, 8, 51, 46, 11, 36, 27,
        27, 58, 15, 62,
    ],
    ("batch", "bns", "subsampled:64"): [
        58, 57, 1, 36, 30, 38, 25, 18, 59, 1, 15, 20, 58, 9, 46,
        37, 22, 22, 13, 55, 55, 22, 58, 16, 22, 33, 34, 27, 27,
        39, 21, 52,
    ],
    ("batch", "bns", "cached:3"): [
        58, 57, 1, 36, 0, 38, 25, 18, 59, 1, 15, 20, 58, 9, 46,
        37, 22, 22, 13, 55, 55, 22, 41, 16, 22, 33, 34, 27, 27,
        39, 36, 52,
    ],
    ("one-row", "bns-posterior", "exact"): [
        13, 52, 35, 50, 2, 59, 45, 8, 15, 33, 22, 9, 42, 13, 43,
        58, 11, 10, 33, 9, 33, 43, 57, 25, 51, 13, 36, 27, 56,
        30, 15, 20,
    ],
    ("one-row", "bns-posterior", "subsampled:64"): [
        13, 52, 35, 50, 2, 59, 45, 8, 15, 33, 6, 9, 42, 13, 43,
        58, 11, 10, 33, 9, 33, 43, 57, 48, 51, 13, 36, 27, 56,
        30, 15, 20,
    ],
    ("one-row", "bns-posterior", "cached:3"): [
        13, 52, 35, 50, 2, 59, 45, 8, 15, 33, 22, 9, 42, 13, 43,
        58, 11, 10, 33, 9, 33, 43, 57, 25, 51, 13, 36, 27, 56,
        30, 15, 20,
    ],
    ("batch", "bns-posterior", "subsampled:64"): [
        34, 57, 1, 40, 51, 59, 38, 18, 34, 9, 10, 2, 58, 40, 52,
        37, 20, 10, 43, 42, 55, 11, 41, 26, 22, 33, 8, 27, 27,
        35, 21, 52,
    ],
    ("batch", "bns-posterior", "cached:3"): [
        34, 57, 1, 40, 51, 59, 38, 18, 34, 9, 10, 2, 58, 40, 52,
        37, 20, 10, 43, 42, 55, 11, 41, 26, 22, 33, 8, 43, 27,
        35, 21, 52,
    ],
}


# ---------------------------------------------------------------------- #
# ExactCDF: bitwise parity with the pre-estimator pipeline
# ---------------------------------------------------------------------- #


class TestExactParity:
    @pytest.mark.parametrize("dataset_name", ["tiny", "ml-100k-small"])
    @pytest.mark.parametrize("sampler_name", ["bns", "bns-posterior"])
    def test_default_pipeline_matches_golden(self, dataset_name, sampler_name):
        dataset, model, users, pos = pinned_setup(dataset_name)
        sampler = make_sampler(sampler_name)
        sampler.bind(dataset, model, seed=7)
        sampler.on_epoch_start(0)
        scores = model.scores_batch(np.unique(users))
        negatives = sampler.sample_batch(users, pos, scores)
        assert negatives.tolist() == GOLDEN_NEGATIVES[(dataset_name, sampler_name)]

    @pytest.mark.parametrize("sampler_name", ["bns", "bns-posterior"])
    def test_explicit_exact_equals_default(self, sampler_name):
        """``cdf="exact"`` is the default — same draws, same negatives."""
        dataset, model, users, pos = pinned_setup("tiny")
        explicit = make_sampler(sampler_name, cdf="exact")
        explicit.bind(dataset, model, seed=7)
        explicit.on_epoch_start(0)
        scores = model.scores_batch(np.unique(users))
        negatives = explicit.sample_batch(users, pos, scores)
        assert negatives.tolist() == GOLDEN_NEGATIVES[("tiny", sampler_name)]

    def test_exact_cdf_values_match_reference_formula(self, tiny_dataset):
        """Eq. 16 spelled out by hand: rank among sorted negative scores."""
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=1
        )
        sampler = BayesianNegativeSampler()
        sampler.bind(tiny_dataset, model, seed=0)
        user = int(tiny_dataset.trainable_users()[0])
        scores = model.scores(user)
        candidates = sampler.candidate_matrix(user, 3, 4)
        cdf_values = sampler.cdf.cdf_for_user(
            sampler, user, scores[candidates], scores
        )
        negatives = tiny_dataset.train.negative_items(user)
        reference = np.sort(scores[negatives])
        expected = (
            np.searchsorted(reference, scores[candidates], side="right")
            / negatives.size
        )
        assert np.array_equal(cdf_values, expected)

    def test_exact_requires_scores(self, tiny_dataset):
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=4, seed=0
        )
        sampler = BayesianNegativeSampler()
        sampler.bind(tiny_dataset, model, seed=0)
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)[:2]
        with pytest.raises(ValueError, match="score"):
            sampler.sample_for_user(user, pos, None)
        with pytest.raises(ValueError, match="score"):
            sampler.sample_batch(np.repeat(user, 2), pos, None)


class TestRouteGoldens:
    """The one-row and sparse batch routes draw the pinned negatives."""

    @pytest.mark.parametrize(
        "route, sampler_name, spec",
        sorted(ROUTE_GOLDENS),
        ids=["-".join(key) for key in sorted(ROUTE_GOLDENS)],
    )
    def test_route_matches_golden(self, route, sampler_name, spec):
        dataset, model, users, pos = pinned_setup("tiny")
        sampler = make_sampler(sampler_name, cdf=spec)
        sampler.bind(dataset, model, seed=7)
        sampler.on_epoch_start(0)
        if route == "batch":
            negatives = sampler.sample_batch(users, pos, None).tolist()
        else:
            negatives = []
            for row, user in enumerate(users.tolist()):
                scores = model.scores(user) if spec == "exact" else None
                drawn = sampler.sample_for_user(user, pos[row : row + 1], scores)
                negatives.append(int(drawn[0]))
        assert negatives == ROUTE_GOLDENS[(route, sampler_name, spec)]


class TestSortNegativeRows:
    """The in-place mask-and-sort that ExactCDF and CachedCDF share."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_prefixes_equal_sorted_negative_scores(self, dtype, micro_dataset):
        model = MatrixFactorization(
            micro_dataset.n_users, micro_dataset.n_items, n_factors=4, seed=3,
            dtype=dtype,
        )
        users = np.array([0, 2, 3])
        block = model.scores_batch(users)
        # A +inf negative score ties with the +inf padding; it must still
        # land inside its row's prefix.
        block[1, micro_dataset.train.negative_items(2)[0]] = np.inf
        scores = block.copy()
        counts = _sort_negative_rows(micro_dataset.train, users, block)
        assert block.dtype == np.dtype(dtype)
        for row, user in enumerate(users.tolist()):
            negatives = micro_dataset.train.negative_items(user)
            assert counts[row] == negatives.size
            assert np.array_equal(
                block[row, : counts[row]], np.sort(scores[row][negatives])
            )
            assert np.all(np.isinf(block[row, counts[row] :]))


# ---------------------------------------------------------------------- #
# Score-request protocol
# ---------------------------------------------------------------------- #


class TestScoreRequestProtocol:
    def test_estimator_decides_request(self):
        assert BayesianNegativeSampler().score_request is ScoreRequest.FULL_BLOCK
        assert (
            BayesianNegativeSampler(cdf="subsampled").score_request
            is ScoreRequest.SPARSE
        )
        assert (
            PosteriorOnlySampler(cdf="cached").score_request is ScoreRequest.SPARSE
        )

    def test_needs_scores_derived(self):
        # A sampler needs scores iff its request is not NONE — per
        # instance, and at class level for the class default.
        sparse = BayesianNegativeSampler(cdf="subsampled:16")
        assert sparse.score_request is not ScoreRequest.NONE
        assert make_sampler("rns").score_request is ScoreRequest.NONE
        assert BayesianNegativeSampler.score_request is not ScoreRequest.NONE

    def test_make_cdf_specs(self):
        assert isinstance(make_cdf(None), ExactCDF)
        assert isinstance(make_cdf("exact"), ExactCDF)
        sub = make_cdf("subsampled:77")
        assert isinstance(sub, SubsampledCDF) and sub.n_samples == 77
        assert make_cdf("subsampled").n_samples == SubsampledCDF().n_samples
        cached = make_cdf("cached:9")
        assert isinstance(cached, CachedCDF) and cached.refresh_every == 9
        passthrough = SubsampledCDF(5)
        assert make_cdf(passthrough) is passthrough

    @pytest.mark.parametrize(
        "bad", ["unknown", "subsampled:x", "exact:3", 3.5]
    )
    def test_make_cdf_rejects(self, bad):
        with pytest.raises((ValueError, TypeError)):
            make_cdf(bad)

    def test_variant_factories_accept_cdf(self):
        for name in ["bns", "bns-1", "bns-3", "bns-4", "bns-oracle"]:
            sampler = make_sampler(name, cdf="subsampled:8")
            assert sampler.score_request is ScoreRequest.SPARSE
        warm = make_sampler("bns-2", cdf="cached:5")
        assert isinstance(warm.main_sampler.cdf, CachedCDF)

    def test_full_candidate_set_requires_exact(self):
        """n_candidates=None is inherently O(n_items): sparse estimators
        are refused up front instead of running slower than exact."""
        with pytest.raises(ValueError, match="full candidate set"):
            BayesianNegativeSampler(n_candidates=None, cdf="subsampled:64")
        with pytest.raises(ValueError, match="full candidate set"):
            PosteriorOnlySampler(n_candidates=None, cdf="cached:5")
        # The exact estimator keeps supporting the optimal sampler h*.
        assert BayesianNegativeSampler(n_candidates=None).n_candidates is None

    def test_non_bns_sampler_rejects_cdf_clearly(self):
        """`--cdf` on a non-BNS sampler must explain itself, not dump a
        bare unexpected-keyword TypeError."""
        with pytest.raises(ValueError, match="BNS family"):
            make_sampler("rns", cdf="exact")
        with pytest.raises(ValueError, match="cdf"):
            make_sampler("dns", cdf="subsampled:8")
        # A bad cdf *value* on a BNS sampler keeps its own diagnosis.
        with pytest.raises(TypeError, match="spec string"):
            make_sampler("bns", cdf=3.5)


# ---------------------------------------------------------------------- #
# Sparse modes: parity, validity, end-to-end sanity
# ---------------------------------------------------------------------- #


SPARSE_SPECS = ["subsampled:64", "cached:3"]


class TestSparseModes:
    @pytest.mark.parametrize("spec", SPARSE_SPECS)
    @pytest.mark.parametrize("sampler_name", ["bns", "bns-posterior"])
    def test_scalar_batch_parity(self, spec, sampler_name, tiny_dataset):
        """The RNG-parity contract extends to sparse estimators."""
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=3
        )
        batch_rng = np.random.default_rng(17)
        users = batch_rng.choice(
            tiny_dataset.trainable_users(), size=48, replace=True
        ).astype(np.int64)
        pos = np.array(
            [batch_rng.choice(tiny_dataset.train.items_of(int(u))) for u in users],
            dtype=np.int64,
        )
        scalar = make_sampler(sampler_name, cdf=spec)
        batched = make_sampler(sampler_name, cdf=spec)
        scalar.bind(tiny_dataset, model, seed=5)
        batched.bind(tiny_dataset, model, seed=5)
        groups = group_batch_by_user(users)
        expected = np.empty(users.size, dtype=np.int64)
        for _, user, rows in groups.iter_groups():
            expected[rows] = scalar.sample_for_user(user, pos[rows], None)
        actual = batched.sample_batch(users, pos, None)
        if spec.startswith("cached"):
            # Cached references are rebuilt by gemv (scalar) vs one gemm
            # block (batched); the last-ulp divergence is documented, so
            # cross-path agreement is near-total, not contractual.
            assert np.mean(expected == actual) >= 0.9
        else:
            assert np.array_equal(expected, actual)

    @pytest.mark.parametrize("spec", SPARSE_SPECS)
    def test_never_samples_positive_and_is_deterministic(self, spec, tiny_dataset):
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=3
        )
        batch_rng = np.random.default_rng(23)
        users = batch_rng.choice(
            tiny_dataset.trainable_users(), size=64, replace=True
        ).astype(np.int64)
        pos = np.array(
            [batch_rng.choice(tiny_dataset.train.items_of(int(u))) for u in users],
            dtype=np.int64,
        )
        first = make_sampler("bns", cdf=spec)
        second = make_sampler("bns", cdf=spec)
        first.bind(tiny_dataset, model, seed=11)
        second.bind(tiny_dataset, model, seed=11)
        out_first = first.sample_batch(users, pos, None)
        out_second = second.sample_batch(users, pos, None)
        assert np.array_equal(out_first, out_second)
        for user, item in zip(users.tolist(), out_first.tolist()):
            assert not tiny_dataset.train.contains(user, item)

    def test_sparse_accepts_full_block_gather(self, tiny_dataset):
        """A provided score block is used for gathers instead of the model."""
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=3
        )
        users = np.repeat(tiny_dataset.trainable_users()[:4], 3).astype(np.int64)
        rng = np.random.default_rng(0)
        pos = np.array(
            [rng.choice(tiny_dataset.train.items_of(int(u))) for u in users],
            dtype=np.int64,
        )
        sampler = make_sampler("bns", cdf="cached:4")
        sampler.bind(tiny_dataset, model, seed=2)
        scores = model.scores_batch(np.unique(users))
        negatives = sampler.sample_batch(users, pos, scores)
        assert negatives.shape == users.shape

    def test_subsample_spawn_leaves_candidate_stream_untouched(self, tiny_dataset):
        """Binding a sparse estimator must not consume the sampler stream:
        the candidate draws stay identical to the exact-mode draws."""
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=3
        )
        exact = BayesianNegativeSampler()
        sparse = BayesianNegativeSampler(cdf="subsampled:32")
        exact.bind(tiny_dataset, model, seed=21)
        sparse.bind(tiny_dataset, model, seed=21)
        user = int(tiny_dataset.trainable_users()[0])
        assert np.array_equal(
            exact.candidate_matrix(user, 4, 5), sparse.candidate_matrix(user, 4, 5)
        )


# ---------------------------------------------------------------------- #
# SubsampledCDF: convergence + DKW bound
# ---------------------------------------------------------------------- #


class TestSubsampledStatistics:
    def _exact_and_estimate(self, tiny_dataset, n_samples, seed):
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=1
        )
        sampler = BayesianNegativeSampler(cdf=SubsampledCDF(n_samples))
        sampler.bind(tiny_dataset, model, seed=seed)
        user = int(tiny_dataset.trainable_users()[0])
        scores = model.scores(user)
        negatives = tiny_dataset.train.negative_items(user)
        # Query the CDF at every negative item: the sup over the support.
        candidates = negatives[None, :]
        estimated = sampler.cdf.cdf_for_user(
            sampler, user, scores[candidates], scores
        )
        reference = np.sort(scores[negatives])
        exact = (
            np.searchsorted(reference, scores[candidates], side="right")
            / negatives.size
        )
        return float(np.abs(estimated - exact).max())

    def test_dkw_bound_holds(self, tiny_dataset):
        """sup|F̂_s − F| ≤ DKW ε at 20 independent seeds (δ=0.05 each; the
        chance of even one designed-size excursion across all seeds is
        ~0.64, so tolerate a single violation to keep the test sharp but
        not flaky)."""
        n_samples = 128
        delta = 0.05
        epsilon = np.sqrt(np.log(2.0 / delta) / (2.0 * n_samples))
        violations = sum(
            self._exact_and_estimate(tiny_dataset, n_samples, seed) > epsilon
            for seed in range(20)
        )
        assert violations <= 1

    def test_error_shrinks_with_sample_size(self, tiny_dataset):
        """Mean sup-error over seeds decreases as s grows (convergence to
        ExactCDF as s → |I⁻_u| in probability)."""
        errors = {
            s: np.mean(
                [self._exact_and_estimate(tiny_dataset, s, seed) for seed in range(8)]
            )
            for s in (16, 128, 1024)
        }
        assert errors[128] < errors[16]
        assert errors[1024] < errors[128]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SubsampledCDF(0)
        with pytest.raises(ValueError):
            CachedCDF(0)


# ---------------------------------------------------------------------- #
# CachedCDF: the staleness contract
# ---------------------------------------------------------------------- #


class TestCachedStaleness:
    def _bound_sampler(self, tiny_dataset, refresh_every):
        model = MatrixFactorization(
            tiny_dataset.n_users, tiny_dataset.n_items, n_factors=6, seed=2
        )
        sampler = BayesianNegativeSampler(cdf=CachedCDF(refresh_every))
        sampler.bind(tiny_dataset, model, seed=3)
        return model, sampler

    def test_reference_frozen_within_window_refreshed_after(self, tiny_dataset):
        model, sampler = self._bound_sampler(tiny_dataset, refresh_every=3)
        estimator = sampler.cdf
        user = int(tiny_dataset.trainable_users()[0])
        first = estimator._reference_for(sampler, user)
        # Mutate the model: a fresh computation would now differ.
        model.user_factors[user] += 1.0
        for _ in range(2):
            estimator.advance()
            served = estimator._reference_for(sampler, user)
            assert served is first  # same object: no recomputation
        estimator.advance()  # third dispatch since the stamp → stale
        refreshed = estimator._reference_for(sampler, user)
        assert refreshed is not first
        negatives = tiny_dataset.train.negative_items(user)
        assert np.array_equal(refreshed, np.sort(model.scores(user)[negatives]))

    def test_refresh_boundary_via_sampling(self, tiny_dataset):
        """Through the public API: dispatches within one window rank
        candidates against one frozen reference even as the model moves."""
        model, sampler = self._bound_sampler(tiny_dataset, refresh_every=2)
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)[:1]
        users = np.repeat(user, 1)
        sampler.sample_batch(users, pos, None)  # dispatch 1: fills cache
        stamp_before = sampler.cdf._stamp[user]
        model.user_factors[user] += 0.5
        sampler.sample_batch(users, pos, None)  # dispatch 2: within window
        assert sampler.cdf._stamp[user] == stamp_before
        sampler.sample_batch(users, pos, None)  # dispatch 3: window expired
        assert sampler.cdf._stamp[user] > stamp_before

    def test_deterministic_under_bound_seed(self, tiny_dataset):
        model_a, sampler_a = self._bound_sampler(tiny_dataset, refresh_every=2)
        model_b, sampler_b = self._bound_sampler(tiny_dataset, refresh_every=2)
        rng = np.random.default_rng(31)
        users = rng.choice(
            tiny_dataset.trainable_users(), size=24, replace=True
        ).astype(np.int64)
        pos = np.array(
            [rng.choice(tiny_dataset.train.items_of(int(u))) for u in users],
            dtype=np.int64,
        )
        for _ in range(4):
            out_a = sampler_a.sample_batch(users, pos, None)
            out_b = sampler_b.sample_batch(users, pos, None)
            assert np.array_equal(out_a, out_b)

    def test_bind_resets_state(self, tiny_dataset):
        model, sampler = self._bound_sampler(tiny_dataset, refresh_every=5)
        user = int(tiny_dataset.trainable_users()[0])
        pos = tiny_dataset.train.items_of(user)[:1]
        sampler.sample_batch(np.repeat(user, 1), pos, None)
        assert sampler.cdf.step > 0
        sampler.bind(tiny_dataset, model, seed=3)
        assert sampler.cdf.step == 0
        assert sampler.cdf._sorted == {}


# ---------------------------------------------------------------------- #
# Estimator interface hygiene
# ---------------------------------------------------------------------- #


def test_estimator_is_abstract():
    with pytest.raises(TypeError):
        CDFEstimator()


def test_estimator_refuses_second_sampler(tiny_dataset):
    """Stateful estimators key caches by user id only — sharing one
    instance across samplers would serve wrong-model references."""
    model_a = MatrixFactorization(
        tiny_dataset.n_users, tiny_dataset.n_items, n_factors=4, seed=0
    )
    model_b = MatrixFactorization(
        tiny_dataset.n_users, tiny_dataset.n_items, n_factors=4, seed=1
    )
    shared = CachedCDF(100)
    first = BayesianNegativeSampler(cdf=shared)
    first.bind(tiny_dataset, model_a, seed=0)
    # Re-binding the same sampler is legal (trainer construction).
    first.bind(tiny_dataset, model_a, seed=0)
    second = BayesianNegativeSampler(cdf=shared)
    with pytest.raises(ValueError, match="already bound"):
        second.bind(tiny_dataset, model_b, seed=0)


def test_repr_round_trip():
    assert repr(ExactCDF()) == "ExactCDF()"
    assert repr(CachedCDF(7)) == "CachedCDF(refresh_every=7)"
