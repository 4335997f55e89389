"""Tests for repro.data.synthetic."""

import hashlib

import numpy as np
import pytest

from repro.data.popularity import fit_zipf_exponent, gini_coefficient
from repro.data.registry import load_dataset
from repro.data.synthetic import (
    PRESETS,
    CalibrationPreset,
    LatentFactorGenerator,
)


@pytest.fixture(scope="module")
def small_preset():
    return CalibrationPreset(
        name="unit",
        n_users=40,
        n_items=60,
        n_interactions=900,
        n_factors=6,
        n_occupations=4,
    )


@pytest.fixture(scope="module")
def generated(small_preset):
    return LatentFactorGenerator(small_preset, seed=11).generate_with_truth()


class TestPresetValidation:
    def test_rejects_overfull_matrix(self):
        with pytest.raises(ValueError, match="capacity"):
            CalibrationPreset(name="x", n_users=2, n_items=2, n_interactions=5)

    def test_rejects_bad_occupation_strength(self):
        with pytest.raises(ValueError, match="occupation_strength"):
            CalibrationPreset(
                name="x",
                n_users=5,
                n_items=5,
                n_interactions=5,
                occupation_strength=1.5,
            )

    def test_paper_presets_match_table1(self):
        assert PRESETS["ml-100k"].n_users == 943
        assert PRESETS["ml-100k"].n_items == 1682
        assert PRESETS["ml-100k"].n_interactions == 100_000
        assert PRESETS["ml-1m"].n_users == 6040
        assert PRESETS["yahoo-r3"].n_items == 1000

    def test_scaled_reduces_universe(self):
        scaled = PRESETS["ml-100k"].scaled(0.2)
        assert scaled.n_users < 943
        assert scaled.n_items < 1682
        assert scaled.name.endswith("-small")

    def test_scaled_keeps_capacity_bound(self):
        scaled = PRESETS["ml-100k"].scaled(0.05)
        assert scaled.n_interactions <= scaled.n_users * scaled.n_items // 2

    def test_scaled_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            PRESETS["ml-100k"].scaled(0.0)


class TestGeneration:
    def test_exact_interaction_count(self, generated, small_preset):
        log, _ = generated
        assert log.n_events == small_preset.n_interactions

    def test_no_duplicate_pairs(self, generated):
        log, _ = generated
        pairs = set(zip(log.user_ids.tolist(), log.item_ids.tolist()))
        assert len(pairs) == log.n_events

    def test_every_user_active(self, generated):
        log, _ = generated
        counts = np.bincount(log.user_ids, minlength=log.n_users)
        assert counts.min() >= 1

    def test_occupations_present(self, generated, small_preset):
        log, _ = generated
        assert log.user_occupations is not None
        assert log.n_occupations <= small_preset.n_occupations
        assert len(log.occupation_names) == small_preset.n_occupations

    def test_ratings_on_five_point_scale(self, generated):
        log, _ = generated
        assert log.ratings.min() >= 1.0
        assert log.ratings.max() <= 5.0

    def test_reproducible_from_seed(self, small_preset):
        a = LatentFactorGenerator(small_preset, seed=5).generate()
        b = LatentFactorGenerator(small_preset, seed=5).generate()
        assert np.array_equal(a.user_ids, b.user_ids)
        assert np.array_equal(a.item_ids, b.item_ids)

    def test_different_seeds_differ(self, small_preset):
        a = LatentFactorGenerator(small_preset, seed=5).generate()
        b = LatentFactorGenerator(small_preset, seed=6).generate()
        assert not (
            np.array_equal(a.user_ids, b.user_ids)
            and np.array_equal(a.item_ids, b.item_ids)
        )


class TestPlantedStructure:
    def test_popularity_long_tail(self, generated):
        """The Zipf exposure must produce a visibly skewed popularity."""
        log, _ = generated
        popularity = np.bincount(log.item_ids, minlength=log.n_items)
        assert gini_coefficient(popularity) > 0.25

    def test_affinity_drives_selection(self, generated):
        """Interacted items should have above-average affinity for the user."""
        log, truth = generated
        affinity = truth.affinity
        assert affinity is not None
        chosen_mean = affinity[log.user_ids, log.item_ids].mean()
        assert chosen_mean > affinity.mean() + 0.01

    def test_occupation_signal(self, generated):
        """Users sharing an occupation should have more-similar factors."""
        log, truth = generated
        occupations = log.user_occupations
        factors = truth.user_factors
        normalized = factors / np.linalg.norm(factors, axis=1, keepdims=True)
        similarity = normalized @ normalized.T
        same = occupations[:, None] == occupations[None, :]
        off_diag = ~np.eye(len(occupations), dtype=bool)
        same_mean = similarity[same & off_diag].mean()
        cross_mean = similarity[~same & off_diag].mean()
        assert same_mean > cross_mean

    def test_degrees_heavy_tailed(self, generated):
        """Log-normal degrees: the most active user far exceeds the median.

        The ceiling is capped at 80% of the catalogue, so on this small
        preset a 2x ratio is already diagnostic of the heavy tail.
        """
        log, _ = generated
        counts = np.bincount(log.user_ids, minlength=log.n_users)
        assert counts.max() >= 2 * np.median(counts)


class TestDegreeCalibration:
    def test_match_total_exact(self, rng):
        degrees = np.asarray([5, 5, 5, 5], dtype=np.int64)
        out = LatentFactorGenerator._match_total(degrees, 23, cap=30, rng=rng)
        assert out.sum() == 23

    def test_match_total_decrease(self, rng):
        degrees = np.asarray([5, 5, 5, 5], dtype=np.int64)
        out = LatentFactorGenerator._match_total(degrees, 9, cap=30, rng=rng)
        assert out.sum() == 9
        assert out.min() >= 1

    def test_match_total_infeasible(self, rng):
        degrees = np.asarray([1, 1], dtype=np.int64)
        with pytest.raises(RuntimeError, match="calibrate"):
            LatentFactorGenerator._match_total(degrees, 1, cap=1, rng=rng)


def _digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


#: sha256 of ``load_dataset(name, seed=0)``'s train and test pairs.
PINNED_SPLITS = {
    "tiny": (
        "afdb874d618a4a85a6ca4c1048baa7a0a348211014ded834a33f6cf08c37ae33",
        "8e419fd1d09cac35f5090a479a391d5f23ed351f08fa389eb003cd927617e718",
    ),
    "ml-100k-small": (
        "9268fd8c03083f25b0c814fe01f02d4f7f8fec8cc33bab40d2808aecd84cabf3",
        "04c05afd363a22b2620769f94c6369b0d96eb0c939899a5eac9cd16f58659d3f",
    ),
    "yahoo-r3-small": (
        "e350a29baa826c7849a34dc66ae08982da04186e91bbec074fbaeab58a946d84",
        "9433e411941cf361f99eb3d345374159d38d4f6b64c6f6adce0e9c55624db332",
    ),
}


class TestPinnedOutput:
    """The generator's exact output, pinned by sha256.

    Run keys, goldens and cached results all assume a preset and a seed
    always give the same log, so any change to the generator's draws or
    their order fails here first.  Re-pin only in a commit of its own that
    says why the data changed.
    """

    @pytest.mark.parametrize("name", sorted(PINNED_SPLITS))
    def test_preset_split_pairs(self, name):
        train_sha, test_sha = PINNED_SPLITS[name]
        dataset = load_dataset(name, seed=0)
        assert _digest(*dataset.train.pairs()) == train_sha
        assert _digest(*dataset.test.pairs()) == test_sha

    def test_catalog16k_shaped_log(self):
        """The shape of perfbench's catalog16k workload (no dense affinity)."""
        preset = CalibrationPreset(
            name="catalog16k",
            n_users=400,
            n_items=16_000,
            n_interactions=6_000,
            n_factors=16,
        )
        log = LatentFactorGenerator(preset, seed=0).generate()
        assert _digest(
            log.user_ids, log.item_ids, log.ratings, log.user_occupations
        ) == "5aab93ad05e38c165dd18f863f3c3487379fc35442b812830cc9cf4a4f257373"
