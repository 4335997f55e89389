"""Name-based dataset resolution with real-file preference.

``load_dataset("ml-100k", seed=7)`` returns an :class:`ImplicitDataset`:

1. if the real MovieLens/Yahoo files are found (under ``data_dir`` or the
   ``REPRO_DATA_DIR`` environment variable), they are parsed;
2. otherwise the calibrated synthetic generator produces an equivalent log
   (:mod:`repro.data.synthetic`).

Either way the log is converted to implicit feedback and split 80/20, the
paper's protocol.  Scaled-down variants (``"<name>-small"``, ``"tiny"``)
exist so tests and benchmarks stay fast.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.data.dataset import ImplicitDataset
from repro.data.movielens import load_ml100k, load_ml1m
from repro.data.ratings import RatingLog
from repro.data.splits import random_holdout_split
from repro.data.synthetic import PRESETS, CalibrationPreset, LatentFactorGenerator
from repro.data.yahoo import load_yahoo_r3
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_rng

__all__ = ["available_datasets", "load_dataset", "dataset_from_log"]

_LOGGER = get_logger("data.registry")

PathLike = Union[str, Path]

_REAL_LOADERS: Dict[str, Callable[[Path], RatingLog]] = {
    "ml-100k": load_ml100k,
    "ml-1m": load_ml1m,
    "yahoo-r3": load_yahoo_r3,
}

#: A deliberately small preset for unit tests and examples.  The strong
#: affinity weight / low latent rank keep the planted preference signal
#: learnable at this scale, so the paper's order relation (FN scores above
#: TN scores, Eq. 6) holds on the fixture across seeds.
_TINY = CalibrationPreset(
    name="tiny",
    n_users=32,
    n_items=64,
    n_interactions=480,
    n_factors=4,
    n_occupations=4,
    affinity_weight=5.0,
    popularity_exponent=1.1,
)

_SMALL_SCALE = 0.18


def _presets() -> Dict[str, CalibrationPreset]:
    presets = dict(PRESETS)
    for name, preset in PRESETS.items():
        presets[name + "-small"] = preset.scaled(_SMALL_SCALE)
    presets["tiny"] = _TINY
    return presets


def available_datasets() -> tuple:
    """Sorted names accepted by :func:`load_dataset`."""
    return tuple(sorted(_presets()))


def load_dataset(
    name: str,
    seed: SeedLike = 0,
    *,
    test_fraction: float = 0.2,
    data_dir: Optional[PathLike] = None,
) -> ImplicitDataset:
    """Resolve a dataset by name.

    Parameters
    ----------
    name:
        One of :func:`available_datasets`.
    seed:
        Drives both synthetic generation and the train/test split.
    test_fraction:
        Held-out fraction (paper: 0.2).
    data_dir:
        Directory containing real dataset subdirectories (``ml-100k/``,
        ``ml-1m/``, ``yahoo-r3/``).  Defaults to ``$REPRO_DATA_DIR``.
    """
    presets = _presets()
    if name not in presets:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(available_datasets())}"
        )
    rng = as_rng(seed)

    log = _try_load_real(name, data_dir)
    if log is None:
        preset = presets[name]
        _LOGGER.info("generating synthetic dataset for %s", name)
        log = LatentFactorGenerator(preset, seed=rng).generate()

    return dataset_from_log(log, test_fraction=test_fraction, seed=rng)


def dataset_from_log(
    log: RatingLog,
    *,
    test_fraction: float = 0.2,
    seed: SeedLike = None,
) -> ImplicitDataset:
    """Convert a rating log to an implicit dataset with an 80/20 split."""
    interactions = log.to_implicit()
    train, test = random_holdout_split(
        interactions, test_fraction=test_fraction, seed=seed
    )
    return ImplicitDataset(
        train,
        test,
        name=log.name,
        user_occupations=log.user_occupations,
        occupation_names=log.occupation_names,
    )


def _try_load_real(name: str, data_dir: Optional[PathLike]) -> Optional[RatingLog]:
    """Parse real files when present; ``None`` means fall back to synthetic."""
    base = name[:-len("-small")] if name.endswith("-small") else name
    loader = _REAL_LOADERS.get(base)
    if loader is None:
        return None
    root = Path(data_dir) if data_dir is not None else _env_data_dir()
    if root is None:
        return None
    candidate = root / base
    if not candidate.is_dir():
        return None
    try:
        log = loader(candidate)
    except (FileNotFoundError, ValueError) as exc:
        _LOGGER.warning("failed to parse real %s at %s: %s", base, candidate, exc)
        return None
    if name.endswith("-small"):
        _LOGGER.info(
            "real files found for %s but a -small variant was requested; "
            "using synthetic scaling instead",
            base,
        )
        return None
    _LOGGER.info("loaded real dataset %s from %s", base, candidate)
    return log


def _env_data_dir() -> Optional[Path]:
    value = os.environ.get("REPRO_DATA_DIR")
    return Path(value) if value else None
