"""Tests for the run-key content address."""

import hashlib
import json

import pytest

from repro.experiments.config import RunSpec
from repro.experiments.engine import EngineRequest, run_key
from repro.experiments.engine.request import canonical_payload

SPEC = RunSpec(dataset="tiny", sampler="bns", epochs=3, batch_size=16, seed=0)


class TestRunKey:
    def test_stable_across_instances(self):
        a = EngineRequest(SPEC)
        b = EngineRequest(
            RunSpec(dataset="tiny", sampler="bns", epochs=3, batch_size=16, seed=0)
        )
        assert run_key(a) == run_key(b)

    def test_hex_sha256(self):
        key = run_key(EngineRequest(SPEC))
        assert len(key) == 64
        assert int(key, 16) >= 0

    def test_every_spec_field_matters(self):
        base = run_key(EngineRequest(SPEC))
        from dataclasses import replace

        changed = [
            replace(SPEC, dataset="ml-100k-small"),
            replace(SPEC, model="lightgcn", batch_size=32),
            replace(SPEC, sampler="rns"),
            replace(SPEC, sampler_kwargs=(("n_candidates", 3),)),
            replace(SPEC, epochs=4),
            replace(SPEC, batch_size=8),
            replace(SPEC, lr=0.02),
            replace(SPEC, reg=0.02),
            replace(SPEC, n_factors=16),
            replace(SPEC, seed=1),
            replace(SPEC, ks=(5,)),
            replace(SPEC, cdf="subsampled:32"),
        ]
        keys = {run_key(EngineRequest(spec)) for spec in changed}
        assert base not in keys
        assert len(keys) == len(changed)

    def test_run_options_matter(self):
        base = run_key(EngineRequest(SPEC))
        assert run_key(EngineRequest(SPEC, record_sampling_quality=True)) != base
        assert run_key(EngineRequest(SPEC, distribution_epochs=(0, 2))) != base
        assert run_key(EngineRequest(SPEC, evaluate=False)) != base
        assert run_key(EngineRequest(SPEC, dataset_seed=7)) != base

    def test_default_dataset_seed_is_spec_seed(self):
        # An explicit dataset_seed equal to the spec seed is the same run.
        assert run_key(EngineRequest(SPEC, dataset_seed=SPEC.seed)) == run_key(
            EngineRequest(SPEC)
        )

    def test_non_jsonable_sampler_kwarg_rejected(self):
        spec = RunSpec(
            dataset="tiny", sampler="bns", sampler_kwargs=(("prior", object()),)
        )
        with pytest.raises(TypeError, match="content-address"):
            run_key(EngineRequest(spec))

    def test_canonical_payload_is_plain_json(self):
        import json

        payload = canonical_payload(
            EngineRequest(SPEC, distribution_epochs=(0, 1))
        )
        round_tripped = json.loads(json.dumps(payload, sort_keys=True))
        assert round_tripped == payload
        assert payload["format_version"] >= 1


class TestVersionInAddress:
    def test_library_version_participates(self, monkeypatch):
        import repro

        base = run_key(EngineRequest(SPEC))
        assert canonical_payload(EngineRequest(SPEC))["library_version"] == (
            repro.__version__
        )
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        assert run_key(EngineRequest(SPEC)) != base


#: Three requests and the exact JSON their run key hashes, with
#: ``VERSION`` standing for ``repro.__version__``.  Any change to the
#: canonicalization that moves a key fails here, not only in a golden.
PINNED_REQUESTS = {
    "default_spec": (
        EngineRequest(RunSpec()),
        '{"dataset_seed": 0, "distribution_epochs": [], "evaluate": true, '
        '"format_version": 4, "library_version": VERSION, '
        '"record_sampling_quality": false, "spec": {"batch_size": 16, '
        '"cdf": null, "dataset": "ml-100k-small", "dtype": "float64", '
        '"epochs": 30, "ks": [5, 10, 20], "lr": 0.01, "model": "mf", '
        '"n_factors": 32, "reg": 0.01, "sampler": "bns", '
        '"sampler_kwargs": [], "seed": 0}}',
    ),
    "lightgcn_every_option": (
        EngineRequest(
            RunSpec(
                dataset="tiny",
                model="lightgcn",
                sampler="bns",
                sampler_kwargs=(("weight", 2.5), ("n_candidates", 8)),
                epochs=4,
                batch_size=128,
                lr=0.005,
                reg=0.001,
                n_factors=16,
                seed=3,
                ks=(10, 20),
                cdf="subsampled:64",
                dtype="float32",
            ),
            dataset_seed=11,
            record_sampling_quality=True,
            distribution_epochs=(0, 3),
        ),
        '{"dataset_seed": 11, "distribution_epochs": [0, 3], "evaluate": true, '
        '"format_version": 4, "library_version": VERSION, '
        '"record_sampling_quality": true, "spec": {"batch_size": 128, '
        '"cdf": "subsampled:64", "dataset": "tiny", "dtype": "float32", '
        '"epochs": 4, "ks": [10, 20], "lr": 0.005, "model": "lightgcn", '
        '"n_factors": 16, "reg": 0.001, "sampler": "bns", '
        '"sampler_kwargs": [["n_candidates", 8], ["weight", 2.5]], "seed": 3}}',
    ),
    "training_only": (
        EngineRequest(
            RunSpec(dataset="ml-100k-small", sampler="dns", epochs=100, batch_size=1),
            evaluate=False,
        ),
        '{"dataset_seed": 0, "distribution_epochs": [], "evaluate": false, '
        '"format_version": 4, "library_version": VERSION, '
        '"record_sampling_quality": false, "spec": {"batch_size": 1, '
        '"cdf": null, "dataset": "ml-100k-small", "dtype": "float64", '
        '"epochs": 100, "ks": [5, 10, 20], "lr": 0.01, "model": "mf", '
        '"n_factors": 32, "reg": 0.01, "sampler": "dns", '
        '"sampler_kwargs": [], "seed": 0}}',
    ),
}


class TestPinnedRunKeys:
    """Run keys by value: the canonical JSON byte for byte, and the key
    as its sha256."""

    @staticmethod
    def _expected(name: str) -> str:
        import repro

        return PINNED_REQUESTS[name][1].replace(
            "VERSION", json.dumps(repro.__version__)
        )

    @pytest.mark.parametrize("name", sorted(PINNED_REQUESTS))
    def test_canonical_json(self, name):
        request = PINNED_REQUESTS[name][0]
        canonical = json.dumps(
            canonical_payload(request), sort_keys=True, allow_nan=False
        )
        assert canonical == self._expected(name)

    @pytest.mark.parametrize("name", sorted(PINNED_REQUESTS))
    def test_run_key_is_sha256_of_canonical_json(self, name):
        expected = hashlib.sha256(self._expected(name).encode("utf-8")).hexdigest()
        assert run_key(PINNED_REQUESTS[name][0]) == expected
