"""Datasets for implicit collaborative filtering.

The central type is :class:`repro.data.interactions.InteractionMatrix`, a
CSR-backed binary user-item matrix.  :class:`repro.data.dataset.ImplicitDataset`
pairs a train and a test matrix (the paper's 80/20 protocol) plus optional
side information (user occupations, used by the BNS-4 prior).

Datasets are obtained through :func:`repro.data.registry.load_dataset`,
which transparently prefers real MovieLens / Yahoo!-R3 files when present on
disk and otherwise produces a calibrated synthetic equivalent
(:mod:`repro.data.synthetic`).
"""

from repro.data.dataset import DatasetStatistics, ImplicitDataset
from repro.data.interactions import InteractionMatrix
from repro.data.ratings import RatingLog
from repro.data.registry import available_datasets, load_dataset
from repro.data.splits import random_holdout_split
from repro.data.synthetic import CalibrationPreset, LatentFactorGenerator

__all__ = [
    "CalibrationPreset",
    "DatasetStatistics",
    "ImplicitDataset",
    "InteractionMatrix",
    "LatentFactorGenerator",
    "RatingLog",
    "available_datasets",
    "load_dataset",
    "random_holdout_split",
]
