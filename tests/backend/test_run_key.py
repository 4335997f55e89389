"""Run-key coverage of the dtype field (the R003 contract).

float32 is statistically — not bitwise — equivalent to float64, so a
cached float64 payload must never be served for a float32 request: the
field must be in the manifest, in the canonical payload, and therefore
in the key.
"""

from repro.experiments.config import RunSpec
from repro.experiments.engine.request import (
    CACHE_FORMAT_VERSION,
    KEYED_SPEC_FIELDS,
    EngineRequest,
    canonical_payload,
    run_key,
)


def test_manifest_lists_dtype():
    assert "dtype" in KEYED_SPEC_FIELDS
    assert "backend" not in KEYED_SPEC_FIELDS


def test_canonical_payload_carries_dtype():
    payload = canonical_payload(EngineRequest(RunSpec(dataset="tiny")))
    assert payload["spec"]["dtype"] == "float64"
    assert "backend" not in payload["spec"]


def test_dtype_changes_the_key():
    base = run_key(EngineRequest(RunSpec(dataset="tiny")))
    f32_key = run_key(EngineRequest(RunSpec(dataset="tiny", dtype="float32")))
    assert base != f32_key


def test_format_version_bumped_for_the_schema_change():
    # v2 keys hash a spec with a `backend` field; v3 specs have none, and
    # v3 keys hash the sampling-threshold and eval-path fields v4 dropped,
    # so older payloads must stay unreachable rather than be mis-read.
    assert CACHE_FORMAT_VERSION >= 4
