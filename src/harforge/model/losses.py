"""Hierarchical focal classification loss.

Per sample and per taxonomy level the loss is a focal reshaping of the
softmax cross-entropy: with ce the cross-entropy and p = exp(-ce) the
probability assigned to the true class,

    focal(ce) = alpha * (1 - p)^gamma * ce

so confidently-correct samples are damped and hard ones keep their weight.
The two levels are combined as lambda1 * L1 + lambda2 * L2 where each level
is averaged over the batch first.

All logit math subtracts the row maximum before exponentiating, so the
values are stable for any finite logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class LossConfig:
    """Level weights and the focal shape parameters."""

    lambda1: float = 0.3
    lambda2: float = 1.0
    alpha: float = 2.0
    gamma: float = 2.0

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "alpha", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def cross_entropy(logits: np.ndarray, labels) -> np.ndarray | float:
    """Softmax cross-entropy.

    Accepts a single logit row with an int label (returns a float) or a
    (batch, classes) matrix with a label vector (returns a batch vector).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 1:
        label = int(labels)
        if not 0 <= label < logits.shape[0]:
            raise ValueError(f"label {label} outside [0, {logits.shape[0]})")
        return float(-log_softmax(logits)[label])
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"labels shape {labels.shape} != ({logits.shape[0]},)")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label outside the class range")
    rows = np.arange(logits.shape[0])
    return -log_softmax(logits)[rows, labels]


def focal_transform(ce, alpha: float = 2.0, gamma: float = 2.0):
    """Reshape a cross-entropy value: alpha * (1 - exp(-ce))^gamma * ce."""
    ce_arr = np.asarray(ce, dtype=np.float64)
    if np.any(ce_arr < 0):
        raise ValueError("cross-entropy values must be non-negative")
    if gamma == 0.0:
        out = alpha * ce_arr
    else:
        out = alpha * (1.0 - np.exp(-ce_arr)) ** gamma * ce_arr
    return float(out) if np.isscalar(ce) else out


def focal_grad_wrt_ce(ce, alpha: float, gamma: float):
    """d focal / d ce.

    With p = exp(-ce): alpha * [(1-p)^gamma + ce * gamma * (1-p)^(gamma-1) * p].
    The second term has a finite limit of 0 as p -> 1 for gamma > 0 (and for
    gamma >= 1 it vanishes identically there), so it is forced to 0 at p = 1
    rather than letting (1-p)^(gamma-1) blow up.
    """
    ce_arr = np.asarray(ce, dtype=np.float64)
    if gamma == 0.0:
        out = np.full_like(ce_arr, alpha)
    else:
        p = np.exp(-ce_arr)
        one_minus = 1.0 - p
        term1 = one_minus**gamma
        safe = np.where(one_minus > 0.0, one_minus, 1.0)
        term2 = np.where(
            one_minus > 0.0, ce_arr * gamma * safe ** (gamma - 1.0) * p, 0.0
        )
        out = alpha * (term1 + term2)
    return float(out) if np.isscalar(ce) else out


def hierarchical_loss(level1_loss: float, level2_loss: float, config: LossConfig) -> float:
    """Weighted sum of the two already-reduced level losses."""
    return config.lambda1 * level1_loss + config.lambda2 * level2_loss


def hierarchical_focal_loss(
    logits1: np.ndarray,
    logits2: np.ndarray,
    labels1: np.ndarray,
    labels2: np.ndarray,
    config: LossConfig = LossConfig(),
):
    """Total training loss for a batch.

    Returns (total, parts) where parts holds the reduced per-level focal
    losses and the per-sample cross-entropies, which the backward pass and
    the training log both reuse.
    """
    ce1 = cross_entropy(logits1, labels1)
    ce2 = cross_entropy(logits2, labels2)
    f1 = focal_transform(ce1, config.alpha, config.gamma)
    f2 = focal_transform(ce2, config.alpha, config.gamma)
    l1 = float(np.mean(f1))
    l2 = float(np.mean(f2))
    total = hierarchical_loss(l1, l2, config)
    parts = {"level1": l1, "level2": l2, "ce1": ce1, "ce2": ce2}
    return total, parts


def hierarchical_focal_loss_grads(
    logits1: np.ndarray,
    logits2: np.ndarray,
    labels1: np.ndarray,
    labels2: np.ndarray,
    config: LossConfig = LossConfig(),
):
    """Loss plus d total / d logits for both heads."""
    total, parts = hierarchical_focal_loss(logits1, logits2, labels1, labels2, config)
    batch = logits1.shape[0]
    scale = 1.0 / batch

    def level_grad(logits, labels, ce, lam):
        probs = softmax(logits)
        onehot = np.zeros_like(probs)
        onehot[np.arange(batch), labels] = 1.0
        dce = focal_grad_wrt_ce(ce, config.alpha, config.gamma)
        return lam * scale * dce[:, None] * (probs - onehot)

    dlogits1 = level_grad(logits1, np.asarray(labels1), parts["ce1"], config.lambda1)
    dlogits2 = level_grad(logits2, np.asarray(labels2), parts["ce2"], config.lambda2)
    return total, dlogits1, dlogits2, parts
