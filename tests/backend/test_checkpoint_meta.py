"""Checkpoint dtype metadata (format v2) and its load guards."""

import numpy as np
import pytest

from repro.data.interactions import InteractionMatrix
from repro.eval.topk import top_k_items_batch
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization
from repro.models.persistence import load_model, save_model
from repro.serve.service import RankingService
from repro.utils.rng import make_rng


@pytest.fixture()
def interactions():
    rng = make_rng(5)
    return InteractionMatrix(
        12, 30, rng.integers(12, size=80), rng.integers(30, size=80)
    )


def _reference_top_k(model, train, k):
    """The saved model's top-``k`` lists through the evaluator's pipeline."""
    users = np.arange(model.n_users)
    block = model.scores_batch(users)
    rows, cols = train.positives_in_rows(users)
    block[rows, cols] = -np.inf
    ids, lengths = top_k_items_batch(block, k)
    return [ids[user, : lengths[user]] for user in users]


def _models(interactions, **kwargs):
    return [
        MatrixFactorization(12, 30, 4, seed=3, **kwargs),
        BiasedMatrixFactorization(12, 30, 4, seed=3, **kwargs),
        LightGCN(interactions, n_factors=4, n_layers=1, seed=3, **kwargs),
    ]


class TestMetadataRoundTrip:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_dtype_round_trips(self, tmp_path, interactions, dtype):
        for model in _models(interactions, dtype=dtype):
            path = tmp_path / f"{type(model).__name__}.npz"
            save_model(model, path)
            with np.load(path, allow_pickle=False) as archive:
                assert str(archive["dtype"]) == dtype
                assert "backend" not in archive
                assert int(archive["version"]) == 2
            loaded = load_model(path)
            assert loaded.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(
                loaded.user_factors, model.user_factors
            )

    def test_explicit_matching_dtype_accepted(self, tmp_path, interactions):
        model = MatrixFactorization(12, 30, 4, seed=3, dtype="float32")
        path = tmp_path / "m.npz"
        save_model(model, path)
        loaded = load_model(path, dtype="float32")
        assert loaded.dtype == np.dtype(np.float32)


class TestMismatchGuards:
    def test_float32_checkpoint_cannot_warm_start_float64(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3, dtype="float32")
        path = tmp_path / "m.npz"
        save_model(model, path)
        with pytest.raises(ValueError, match="float32.*float64"):
            load_model(path, dtype="float64")

    def test_float64_checkpoint_cannot_warm_start_float32(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3)
        path = tmp_path / "m.npz"
        save_model(model, path)
        with pytest.raises(ValueError, match="float64.*float32"):
            load_model(path, dtype="float32")

    def test_serving_passthrough_enforces_the_guard(
        self, tmp_path, interactions
    ):
        model = LightGCN(
            interactions, n_factors=4, n_layers=1, seed=3, dtype="float32"
        )
        path = tmp_path / "m.npz"
        save_model(model, path)
        with pytest.raises(ValueError, match="float32"):
            RankingService.from_checkpoint(path, dtype="float64")
        service = RankingService.from_checkpoint(path, dtype="float32")
        assert service.model.dtype == np.dtype(np.float32)

    def test_corrupted_dtype_array_rejected(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3, dtype="float32")
        path = tmp_path / "m.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as archive:
            payload = dict(archive)
        # Claim float64 while the arrays stay float32: the per-array
        # validation must catch the inconsistency.
        payload["dtype"] = "float64"
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="user_factors"):
            load_model(path)


class TestLegacyArchives:
    def test_v1_archive_loads_as_float64_numpy(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3)
        path = tmp_path / "m.npz"
        # A v1 archive: no dtype/backend keys at all.
        np.savez(
            path,
            kind="mf",
            version=1,
            user_factors=model.user_factors,
            item_factors=model.item_factors,
        )
        loaded = load_model(path)
        assert loaded.dtype == np.dtype(np.float64)
        np.testing.assert_array_equal(loaded.user_factors, model.user_factors)

    def test_v1_archive_rejects_float32_expectation(self, tmp_path):
        model = MatrixFactorization(12, 30, 4, seed=3)
        path = tmp_path / "m.npz"
        np.savez(
            path,
            kind="mf",
            version=1,
            user_factors=model.user_factors,
            item_factors=model.item_factors,
        )
        with pytest.raises(ValueError, match="float64"):
            load_model(path, dtype="float32")

    @pytest.mark.parametrize("recorded", ["numpy", "torch"])
    def test_v2_archive_with_backend_key_serves_saved_rankings(
        self, tmp_path, interactions, recorded
    ):
        # Archives written while models took a compute-backend option
        # carry a `backend` provenance entry; loading ignores it.
        for model in _models(interactions):
            path = tmp_path / f"{type(model).__name__}.npz"
            save_model(model, path)
            with np.load(path, allow_pickle=False) as archive:
                payload = dict(archive)
            payload["backend"] = recorded
            np.savez(path, **payload)

            expected = _reference_top_k(model, interactions, 5)
            loaded = load_model(path)
            assert type(loaded) is type(model)
            reloaded = _reference_top_k(loaded, interactions, 5)
            service = RankingService.from_checkpoint(path, interactions)
            for user, ranked in enumerate(expected):
                np.testing.assert_array_equal(reloaded[user], ranked)
                np.testing.assert_array_equal(service.top_k(user, 5), ranked)
