"""InfoNCE loss with analytic gradients.

For an anchor ``a``, positive ``p`` and negatives ``n_1..n_K`` (all
``d``-vectors), with similarities ``s_x = a·x / τ``:

    L = −log  exp(s_p) / (exp(s_p) + Σ_k exp(s_k))
      = −s_p + logsumexp(s_p, s_1, …, s_K).

With softmax weights ``w`` over ``{p, n_1..n_K}``:

    ∂L/∂a   = [(w_p − 1)·p + Σ_k w_k·n_k] / τ
    ∂L/∂p   = (w_p − 1)·a / τ
    ∂L/∂n_k = w_k·a / τ

``w_k`` — a negative's softmax weight — is the exact contrastive analogue
of the paper's ``info(j)``: the gradient magnitude that negative
contributes, largest for negatives most similar to the anchor.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["info_nce_loss", "info_nce_gradients"]


def _similarities(
    anchor: np.ndarray, positive: np.ndarray, negatives: np.ndarray, temperature: float
) -> Tuple[np.ndarray, np.ndarray]:
    anchor = np.asarray(anchor, dtype=np.float64).ravel()
    positive = np.asarray(positive, dtype=np.float64).ravel()
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if positive.shape != anchor.shape:
        raise ValueError(
            f"anchor and positive must share a shape, got {anchor.shape} vs "
            f"{positive.shape}"
        )
    if negatives.shape[1] != anchor.size:
        raise ValueError(
            f"negatives must be (K, {anchor.size}), got {negatives.shape}"
        )
    s_pos = float(anchor @ positive) / temperature
    s_neg = (negatives @ anchor) / temperature
    return s_pos, s_neg


def _softmax_weights(s_pos: float, s_neg: np.ndarray) -> Tuple[float, np.ndarray]:
    logits = np.concatenate([[s_pos], s_neg])
    logits -= logits.max()
    exp = np.exp(logits)
    weights = exp / exp.sum()
    return float(weights[0]), weights[1:]


def info_nce_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: np.ndarray,
    temperature: float = 0.5,
) -> float:
    """The InfoNCE loss value for one (anchor, positive, negatives) tuple."""
    check_positive(temperature, "temperature")
    s_pos, s_neg = _similarities(anchor, positive, negatives, temperature)
    logits = np.concatenate([[s_pos], s_neg])
    max_logit = logits.max()
    return float(-s_pos + max_logit + np.log(np.exp(logits - max_logit).sum()))


def info_nce_gradients(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: np.ndarray,
    temperature: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(∂L/∂a, ∂L/∂p, ∂L/∂negatives)`` for one InfoNCE term."""
    check_positive(temperature, "temperature")
    anchor = np.asarray(anchor, dtype=np.float64).ravel()
    positive = np.asarray(positive, dtype=np.float64).ravel()
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    s_pos, s_neg = _similarities(anchor, positive, negatives, temperature)
    w_pos, w_neg = _softmax_weights(s_pos, s_neg)
    grad_anchor = ((w_pos - 1.0) * positive + w_neg @ negatives) / temperature
    grad_positive = (w_pos - 1.0) * anchor / temperature
    grad_negatives = np.outer(w_neg, anchor) / temperature
    return grad_anchor, grad_positive, grad_negatives
