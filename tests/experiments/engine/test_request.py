"""Tests for the run-key content address."""

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
