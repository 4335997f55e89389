"""Engine requests and their content addresses.

A cached run is only reusable if its key covers *everything* that can
change the payload: every :class:`~repro.experiments.config.RunSpec` field
(dataset, model, sampler + kwargs, CDF estimator, training knobs, seed)
plus the run options (which recorders are attached, whether evaluation
runs).  :func:`run_key` therefore hashes the canonical JSON of the whole
request, prefixed with a format version so a payload-schema change
invalidates old caches wholesale instead of mis-reading them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.experiments.config import RunSpec

__all__ = [
    "CACHE_FORMAT_VERSION",
    "KEYED_REQUEST_FIELDS",
    "KEYED_SPEC_FIELDS",
    "EngineRequest",
    "run_key",
    "canonical_payload",
]

#: Bump whenever the request canonicalization or the payload schema
#: changes; old cache entries become unreachable (new keys + new store
#: subdirectory) rather than silently mis-read.  v2: ``RunSpec`` grew
#: ``backend``/``dtype``.  v3: ``RunSpec.backend`` was removed (numpy is
#: the only compute path).  v4: ``RunSpec.batched_sampling_min_batch``,
#: ``EngineRequest.eval_batched`` and ``EngineRequest.eval_chunk_users``
#: were removed (the batch size routes sampling; one evaluator path).
CACHE_FORMAT_VERSION = 4

#: Run-key coverage manifests — the introspection hook for ``repro lint``
#: rule R003 and for :func:`_check_key_coverage` below.  Every dataclass
#: field of :class:`~repro.experiments.config.RunSpec` (resp.
#: :class:`EngineRequest`) must be listed in the matching tuple; the lint
#: rule pins the tuples to the dataclass definitions *statically* (a new
#: field fails ``repro lint`` on its own line) and the runtime guard pins
#: them to the live dataclasses, so the manifest can neither lag nor lie.
KEYED_SPEC_FIELDS: Tuple[str, ...] = (
    "dataset",
    "model",
    "sampler",
    "sampler_kwargs",
    "epochs",
    "batch_size",
    "lr",
    "reg",
    "n_factors",
    "seed",
    "ks",
    "cdf",
    "dtype",
)
KEYED_REQUEST_FIELDS: Tuple[str, ...] = (
    "spec",
    "dataset_seed",
    "record_sampling_quality",
    "distribution_epochs",
    "evaluate",
)


@dataclass(frozen=True)
class EngineRequest:
    """One unit of work: a spec plus the options that shape its payload."""

    spec: RunSpec
    #: Seed used to generate/split the dataset.  ``None`` means the spec's
    #: own seed (the default protocol).  ``run_replicated(fixed_dataset=
    #: True)`` pins it to the base seed while the spec seed varies.
    dataset_seed: Optional[int] = None
    #: Attach a TNR/INF recorder (Fig. 4) and include its series.
    record_sampling_quality: bool = False
    #: Epochs at which to snapshot TN/FN score distributions (Fig. 1).
    distribution_epochs: Tuple[int, ...] = ()
    #: Run the final ranking evaluation (off for training-only artifacts).
    evaluate: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "distribution_epochs",
            tuple(int(e) for e in self.distribution_epochs),
        )

    @property
    def resolved_dataset_seed(self) -> int:
        """The seed the dataset is actually built with."""
        return self.spec.seed if self.dataset_seed is None else int(self.dataset_seed)


def _jsonable_scalar(value, context: str):
    """Validate a sampler-kwarg value is canonically JSON-serializable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable_scalar(item, context) for item in value]
    raise TypeError(
        f"{context}: cannot content-address value of type "
        f"{type(value).__name__} ({value!r}); use JSON-scalar sampler kwargs"
    )


_COVERAGE_CHECKED = False


def _check_key_coverage() -> None:
    """Assert the manifests match the live dataclasses (once per process).

    ``repro lint`` enforces the same equality statically; this runtime
    guard covers code paths that bypass lint (installed packages, REPL
    experimentation) so a drifted manifest fails fast instead of hashing
    an incomplete key.
    """
    global _COVERAGE_CHECKED
    if _COVERAGE_CHECKED:
        return
    for cls, manifest, name in (
        (RunSpec, KEYED_SPEC_FIELDS, "KEYED_SPEC_FIELDS"),
        (EngineRequest, KEYED_REQUEST_FIELDS, "KEYED_REQUEST_FIELDS"),
    ):
        actual = {f.name for f in fields(cls)}
        declared = set(manifest)
        if actual != declared:
            missing = sorted(actual - declared)
            stale = sorted(declared - actual)
            raise RuntimeError(
                f"run-key coverage manifest {name} is out of sync with "
                f"{cls.__name__}: missing={missing} stale={stale}; fold "
                "new fields into canonical_payload and update the manifest"
            )
    _COVERAGE_CHECKED = True


def canonical_payload(request: EngineRequest) -> dict:
    """The exact dict that is hashed into the run key (stable ordering)."""
    _check_key_coverage()
    # Read field by field from the manifest, which the coverage check
    # pins to RunSpec's fields: asdict would deep-copy every value.
    spec_fields = {name: getattr(request.spec, name) for name in KEYED_SPEC_FIELDS}
    spec_fields["sampler_kwargs"] = [
        [str(name), _jsonable_scalar(value, f"sampler_kwargs[{name!r}]")]
        for name, value in sorted(request.spec.sampler_kwargs)
    ]
    spec_fields["ks"] = [int(k) for k in request.spec.ks]
    import repro

    return {
        "format_version": CACHE_FORMAT_VERSION,
        # The library version participates in the address: a release that
        # changes training/eval numerics must not serve stale payloads.
        # (Uncommitted dev edits still hit old entries — use --no-cache or
        # `repro cache clear` in that loop.)
        "library_version": repro.__version__,
        "spec": spec_fields,
        "dataset_seed": request.resolved_dataset_seed,
        "record_sampling_quality": bool(request.record_sampling_quality),
        "distribution_epochs": list(request.distribution_epochs),
        "evaluate": bool(request.evaluate),
    }


def run_key(request: EngineRequest) -> str:
    """SHA-256 content address of a request (hex, filesystem-safe)."""
    blob = json.dumps(canonical_payload(request), sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
