"""Tests for repro.data.registry."""

import numpy as np
import pytest

from repro.data.registry import available_datasets, dataset_from_log, load_dataset
from repro.data.synthetic import PRESETS


class TestAvailableDatasets:
    def test_contains_paper_datasets(self):
        names = available_datasets()
        for name in ("ml-100k", "ml-1m", "yahoo-r3", "tiny"):
            assert name in names

    def test_contains_small_variants(self):
        names = available_datasets()
        assert "ml-100k-small" in names
        assert "yahoo-r3-small" in names

    def test_sorted(self):
        names = available_datasets()
        assert list(names) == sorted(names)


class TestLoadDataset:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("imaginary")

    def test_tiny_loads(self):
        dataset = load_dataset("tiny", seed=0)
        assert dataset.n_users == 32
        assert dataset.n_items == 64

    def test_split_fraction(self):
        dataset = load_dataset("tiny", seed=0, test_fraction=0.3)
        total = dataset.train.n_interactions + dataset.test.n_interactions
        fraction = dataset.test.n_interactions / total
        assert 0.2 < fraction < 0.4

    def test_reproducible(self):
        a = load_dataset("tiny", seed=3)
        b = load_dataset("tiny", seed=3)
        assert a.train == b.train and a.test == b.test

    def test_seed_matters(self):
        a = load_dataset("tiny", seed=3)
        b = load_dataset("tiny", seed=4)
        assert a.train != b.train

    def test_occupations_flow_through(self):
        dataset = load_dataset("tiny", seed=0)
        assert dataset.has_occupations

    def test_synthetic_name_tagged(self):
        dataset = load_dataset("tiny", seed=0)
        assert dataset.name.startswith("synthetic:")

    def test_real_files_preferred(self, tmp_path):
        data = tmp_path / "ml-100k"
        data.mkdir()
        lines = []
        for user in range(1, 11):
            for item in range(1, 6):
                lines.append(f"{user}\t{item * user}\t4\t0")
        (data / "u.data").write_text("\n".join(lines) + "\n")
        dataset = load_dataset("ml-100k", seed=0, data_dir=tmp_path)
        assert dataset.name == "ml-100k"  # not synthetic:
        assert dataset.n_users == 943

    def test_small_variant_stays_synthetic_beside_real_files(self, tmp_path):
        data = tmp_path / "ml-100k"
        data.mkdir()
        (data / "u.data").write_text("1\t1\t4\t0\n2\t2\t3\t0\n")
        dataset = load_dataset("ml-100k-small", seed=0, data_dir=tmp_path)
        assert dataset.name.startswith("synthetic:")
        assert dataset.train == load_dataset("ml-100k-small", seed=0).train

    def test_env_data_dir(self, tmp_path, monkeypatch):
        data = tmp_path / "ml-100k"
        data.mkdir()
        lines = [f"{u}\t{u}\t5\t0" for u in range(1, 21)]
        (data / "u.data").write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        dataset = load_dataset("ml-100k", seed=0)
        assert dataset.name == "ml-100k"

    def test_corrupt_real_files_fall_back(self, tmp_path):
        data = tmp_path / "ml-100k"
        data.mkdir()
        (data / "u.data").write_text("not\tparsable\n")
        dataset = load_dataset("ml-100k-small", seed=0, data_dir=tmp_path)
        assert dataset.name.startswith("synthetic:")


class TestDatasetFromLog:
    def test_matches_preset_counts(self):
        from repro.data.synthetic import LatentFactorGenerator

        preset = PRESETS["ml-100k"].scaled(0.1)
        log = LatentFactorGenerator(preset, seed=0).generate()
        dataset = dataset_from_log(log, seed=0)
        total = dataset.train.n_interactions + dataset.test.n_interactions
        assert total == preset.n_interactions
