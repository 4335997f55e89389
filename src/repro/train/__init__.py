"""Pairwise training engine.

The trainer implements the outer loop of the paper's Algorithm 1: iterate
epochs, form mini-batches of positive pairs, let the negative sampler pick
``j`` for each ``(u, i)``, then take a BPR gradient step.  Optimizers
(plain SGD for MF, Adam for LightGCN), learning-rate/λ schedules, and an
observer-style callback protocol live here as well.
"""

from repro.train.callbacks import Callback, EpochStats
from repro.train.loss import bpr_loss, informativeness, log_sigmoid, sigmoid
from repro.train.optimizer import SGD, Adam, Optimizer, aggregate_rows
from repro.train.schedule import ConstantSchedule, Schedule, StepDecay, WarmStartLambda
from repro.train.trainer import Trainer, TrainingConfig, TrainingDivergedError

__all__ = [
    "Adam",
    "Callback",
    "ConstantSchedule",
    "EpochStats",
    "Optimizer",
    "SGD",
    "Schedule",
    "StepDecay",
    "Trainer",
    "TrainingConfig",
    "TrainingDivergedError",
    "WarmStartLambda",
    "aggregate_rows",
    "bpr_loss",
    "informativeness",
    "log_sigmoid",
    "sigmoid",
]
