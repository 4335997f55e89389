"""Tests for repro.experiments.config."""

import pytest

from repro.experiments.config import RunSpec, scale_preset


class TestScalePreset:
    def test_known_scales(self):
        assert scale_preset("bench").dataset_suffix == "-small"
        assert scale_preset("paper").epochs == 100
        assert scale_preset("paper").batch_size == 1
        assert scale_preset("unit").epochs <= 5

    def test_unknown_scale(self):
        with pytest.raises(KeyError, match="unknown scale"):
            scale_preset("huge")


class TestRunSpec:
    def test_defaults(self):
        spec = RunSpec()
        assert spec.model == "mf"
        assert spec.sampler == "bns"
        assert spec.ks == (5, 10, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(epochs=0)
        with pytest.raises(ValueError):
            RunSpec(model="svd")
        with pytest.raises(ValueError):
            RunSpec(lr=0.0)

    def test_frozen(self):
        spec = RunSpec()
        with pytest.raises(AttributeError):
            spec.epochs = 5

    def test_sampler_options(self):
        spec = RunSpec(sampler_kwargs=(("n_candidates", 7),))
        assert spec.sampler_options == {"n_candidates": 7}

    def test_label(self):
        assert RunSpec().label() == "ml-100k-small/mf/bns"

    def test_hashable_for_sweeps(self):
        assert len({RunSpec(), RunSpec(), RunSpec(seed=1)}) == 2


class TestSublinearKnobs:
    def test_cdf_folds_into_sampler_options(self):
        spec = RunSpec(cdf="subsampled:128")
        assert spec.sampler_options == {"cdf": "subsampled:128"}
        # The explicit field wins over a kwargs entry.
        spec = RunSpec(sampler_kwargs=(("cdf", "exact"),), cdf="cached:5")
        assert spec.sampler_options["cdf"] == "cached:5"

    def test_defaults_leave_options_untouched(self):
        assert RunSpec().sampler_options == {}
        assert RunSpec().cdf is None
