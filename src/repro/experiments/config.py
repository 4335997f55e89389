"""Experiment configuration objects.

A :class:`RunSpec` pins everything one training run needs — dataset, model,
sampler and hyper-parameters — as an immutable value object, so sweeps are
plain lists of specs and results are attributable to an exact
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.backend import DTYPE_NAMES
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["RunSpec", "Scale", "scale_preset"]

#: Accepted values of the ``scale`` argument across the harness.
Scale = str

_SCALES = ("unit", "bench", "paper")


@dataclass(frozen=True)
class ScalePreset:
    """Dataset/epoch/LR scaling of one harness scale.

    The bench scale compensates for its far smaller SGD-step budget
    (scaled dataset × vectorized batches) with a higher learning rate, so
    models reach the trained regime where the paper's effects live.
    """

    dataset_suffix: str
    epochs: int
    batch_size: int
    lightgcn_batch_size: int
    lr: float


_PRESETS: Dict[str, ScalePreset] = {
    # Seconds-per-run configuration for unit tests (pair with the 'tiny'
    # dataset).
    "unit": ScalePreset(
        dataset_suffix="", epochs=4, batch_size=16, lightgcn_batch_size=32, lr=0.05
    ),
    # Small synthetic datasets, vectorized batches: minutes for everything.
    "bench": ScalePreset(
        dataset_suffix="-small",
        epochs=50,
        batch_size=16,
        lightgcn_batch_size=64,
        lr=0.02,
    ),
    # The paper's setup: full universes, 100 epochs, b=1 for MF.
    "paper": ScalePreset(
        dataset_suffix="", epochs=100, batch_size=1, lightgcn_batch_size=128, lr=0.01
    ),
}


def scale_preset(scale: Scale) -> ScalePreset:
    """Resolve a scale name to its preset (raises on unknown names)."""
    if scale not in _PRESETS:
        raise KeyError(f"unknown scale {scale!r}; use one of {_SCALES}")
    return _PRESETS[scale]


@dataclass(frozen=True)
class RunSpec:
    """Everything that defines one (dataset, model, sampler) training run."""

    dataset: str = "ml-100k-small"
    model: str = "mf"
    sampler: str = "bns"
    sampler_kwargs: Tuple[Tuple[str, object], ...] = ()
    epochs: int = 30
    batch_size: int = 16
    lr: float = 0.01
    reg: float = 0.01
    n_factors: int = 32
    seed: int = 0
    ks: Tuple[int, ...] = (5, 10, 20)
    #: Eq. 16 CDF-estimator spec for BNS-family samplers — ``None`` keeps
    #: the sampler default (exact); ``"exact"``, ``"subsampled[:s]"`` or
    #: ``"cached[:T]"`` select an estimator (see ``repro.samplers.cdf``).
    #: Only meaningful for samplers that accept a ``cdf`` parameter.
    cdf: Optional[str] = None
    #: Override for ``TrainingConfig.batched_sampling_min_batch`` (the
    #: scalar-fallback threshold of the sampling pipeline); ``None`` keeps
    #: the trainer default.
    batched_sampling_min_batch: Optional[int] = None
    #: Parameter/score dtype policy: ``"float64"`` (exact, the default)
    #: or ``"float32"`` (fast — statistically equivalent numerics).
    dtype: str = "float64"

    def __post_init__(self) -> None:
        check_positive(self.epochs, "epochs")
        check_positive(self.batch_size, "batch_size")
        check_positive(self.lr, "lr")
        check_non_negative(self.reg, "reg")
        check_positive(self.n_factors, "n_factors")
        if self.batched_sampling_min_batch is not None:
            check_positive(
                self.batched_sampling_min_batch, "batched_sampling_min_batch"
            )
        if self.model not in ("mf", "lightgcn"):
            raise ValueError(f"model must be 'mf' or 'lightgcn', got {self.model!r}")
        if self.dtype not in DTYPE_NAMES:
            raise ValueError(
                f"dtype must be one of {DTYPE_NAMES}, got {self.dtype!r}"
            )

    @property
    def sampler_options(self) -> dict:
        """``sampler_kwargs`` as a plain dict, with :attr:`cdf` folded in.

        The explicit ``cdf`` field wins over a ``cdf`` entry in
        ``sampler_kwargs`` so sweeps can override one spec's estimator by
        ``replace(spec, cdf=...)`` without touching the kwargs tuple.
        """
        options = dict(self.sampler_kwargs)
        if self.cdf is not None:
            options["cdf"] = self.cdf
        return options

    def with_sampler(self, sampler: str, **kwargs) -> "RunSpec":
        """A copy of this spec with a different sampler configuration.

        The sampler configuration is replaced *wholesale*: ``cdf`` is
        reset along with ``sampler_kwargs`` (a CDF estimator chosen for a
        BNS spec must not leak into the baselines of a sweep — non-BNS
        samplers reject it).  Pass ``cdf=...`` in ``kwargs`` to give the
        new sampler its own estimator.
        """
        return replace(
            self,
            sampler=sampler,
            sampler_kwargs=tuple(sorted(kwargs.items())),
            cdf=None,
        )

    def label(self) -> str:
        """Short human-readable tag for tables and logs."""
        return f"{self.dataset}/{self.model}/{self.sampler}"
