"""Recommendation models (the paper's §IV substrates).

Three score models are provided, all trained with the pairwise BPR
objective (Eq. 1) via hand-derived analytic gradients on NumPy arrays:

* :class:`repro.models.mf.MatrixFactorization` — classic MF (Koren et al.),
  the paper's primary model;
* :class:`repro.models.biased_mf.BiasedMatrixFactorization` — MF plus an
  item bias;
* :class:`repro.models.lightgcn.LightGCN` — linear graph convolution over
  the user-item bipartite graph (He et al., SIGIR 2020) with an exact
  backward pass through the propagation operator.

Each supplies its factor tables and its train step to the
:class:`repro.models.base.ScoreModel` interface consumed by samplers, the
trainer, and the evaluator; the scoring methods are written once, there.
"""

from repro.models.base import ScoreModel
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.graph import normalized_adjacency
from repro.models.init import normal_init, xavier_init
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization
from repro.models.persistence import load_model, save_model

__all__ = [
    "BiasedMatrixFactorization",
    "LightGCN",
    "MatrixFactorization",
    "ScoreModel",
    "load_model",
    "normal_init",
    "normalized_adjacency",
    "save_model",
    "xavier_init",
]
