"""Evaluation: ranking metrics and sampling-quality metrics.

Two families, matching the paper's §IV-A4:

* **Recommendation performance** — Precision@K, Recall@K, NDCG@K (the
  Table II metrics) plus HitRate, MAP, MRR and AUC, computed by the
  full-ranking protocol of :class:`repro.eval.protocol.Evaluator`
  (train positives excluded from rankings, averaged over test users);
* **Sampling quality** — the true-negative rate TNR (Eq. 33) and the
  signed informativeness INF (Eq. 34) of the negatives a sampler actually
  drew during each epoch (:mod:`repro.eval.sampling_quality`), and the
  TN/FN score-distribution tracker behind Fig. 1
  (:mod:`repro.eval.distribution`).
"""

from repro.eval.distribution import ScoreDistributionRecorder, score_snapshot
from repro.eval.diversity import recommendation_footprint
from repro.eval.protocol import Evaluator, NonFiniteScoresError, score_block
from repro.eval.ranking import (
    auc,
    auc_block,
    average_precision_at_k,
    hit_rate_at_k,
    ndcg_at_k,
    precision_at_k,
    ranking_metrics_block,
    recall_at_k,
    reciprocal_rank,
    reciprocal_rank_block,
)
from repro.eval.sampling_quality import SamplingQualityRecorder, false_negative_flags
from repro.eval.significance import (
    PairedComparison,
    paired_bootstrap_test,
    paired_sign_test,
)
from repro.eval.topk import top_k_items, top_k_items_batch

__all__ = [
    "Evaluator",
    "NonFiniteScoresError",
    "PairedComparison",
    "SamplingQualityRecorder",
    "ScoreDistributionRecorder",
    "auc",
    "auc_block",
    "average_precision_at_k",
    "false_negative_flags",
    "hit_rate_at_k",
    "recommendation_footprint",
    "ndcg_at_k",
    "paired_bootstrap_test",
    "paired_sign_test",
    "precision_at_k",
    "ranking_metrics_block",
    "recall_at_k",
    "reciprocal_rank",
    "reciprocal_rank_block",
    "score_block",
    "score_snapshot",
    "top_k_items",
    "top_k_items_batch",
]
