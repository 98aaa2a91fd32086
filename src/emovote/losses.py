"""Cross-entropy and focal losses with uniform or prior-based class weights.

Four training configurations come out of this module: {CE, focal} crossed
with {uniform, prior} weights. Prior weights are total/per-class counts
computed on the training split; they enter the loss as per-sample
multiplicative factors applied before the batch mean, without renormalizing
the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tensor, clamp_min, gather_rows, log, mul, neg, pow_const, tmean
from .data import check_fields

PROB_EPS = 1e-7


def uniform_weights(n_classes: int) -> tuple[float, ...]:
    return (1.0,) * n_classes


def prior_weights(class_counts) -> tuple[float, ...]:
    """w_j = N / N_j from per-class training counts; every count must be > 0."""
    counts = np.asarray(class_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("class_counts must be a non-empty 1D sequence")
    if (counts <= 0).any():
        bad = np.flatnonzero(counts <= 0).tolist()
        raise ValueError(f"prior weights undefined: zero count for class index(es) {bad}")
    total = int(counts.sum())
    return tuple(float(total / n) for n in counts)


@dataclass(frozen=True)
class LossConfig:
    """Loss kind plus its hyperparameters; gamma is ignored for kind == 'ce'.

    ``class_weights[j]`` multiplies the loss of every sample labelled j.
    """

    kind: str = "ce"  # "ce" | "focal"
    gamma: float = 0.0
    class_weights: tuple[float, ...] = uniform_weights(8)

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ("ce", "focal"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if any(w <= 0 for w in self.class_weights):
            raise ValueError("class weights must be positive")


def ce_loss(true_probs: Tensor, sample_weights) -> Tensor:
    """Mean over the batch of -w_i * log(p_i); p_i clamped at 1e-7 below."""
    if true_probs.size == 0:
        raise ValueError("ce_loss: empty batch")
    w = Tensor(np.asarray(sample_weights, dtype=true_probs.dtype))
    p = clamp_min(true_probs, PROB_EPS)
    return tmean(neg(mul(w, log(p))))


def focal_loss(true_probs: Tensor, gamma: float, sample_weights) -> Tensor:
    """Mean over the batch of -w_i * (1 - p_i)^gamma * log(p_i).

    gamma == 0 takes the cross-entropy code path so the reduction is exact
    (bitwise), not merely numerically close.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return ce_loss(true_probs, sample_weights)
    if true_probs.size == 0:
        raise ValueError("focal_loss: empty batch")
    w = Tensor(np.asarray(sample_weights, dtype=true_probs.dtype))
    p = clamp_min(true_probs, PROB_EPS)
    # through the module, so that a tracer patching autodiff.sub sees the call
    modulation = pow_const(autodiff.sub(Tensor(np.ones((), p.dtype)), p), gamma)
    return tmean(neg(mul(w, mul(modulation, log(p)))))


def compute_loss(probs: Tensor, labels, config: LossConfig) -> Tensor:
    """Batch loss from [B, C] class probabilities and integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ValueError(f"expected probs [B, C] and one label per row, got {probs.shape}, {labels.shape}")
    true_p = gather_rows(probs, labels)
    w = np.asarray(config.class_weights, dtype=probs.dtype)[labels]
    if config.kind == "focal":
        return focal_loss(true_p, config.gamma, w)
    return ce_loss(true_p, w)
