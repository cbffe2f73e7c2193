"""Metrics and evaluation reports for the hierarchical classifier.

Macro F1 averages per-class F1 over the classes that actually occur in the
predictions or the labels; a class absent from both is excluded rather than
counted as a free zero. The one-vs-rest ROC AUC is computed per class with
the rank statistic (tied scores share credit) and macro-averaged over the
classes present in the labels.

Synthetic (oversampled) windows never enter evaluation: they are filtered
out before any metric is computed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .core import ActivityTaxonomy, csv_text, json_text
from .dataset import WindowSet
from .model import ModelParams, predict, windows_to_arrays

TREND_HEADER = ("width", "split", "metric", "value")


class UndefinedMetricError(ValueError):
    """The metric has no defined value for this input (e.g. one-class AUC)."""


def accuracy(preds: Sequence[int], labels: Sequence[int]) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ValueError("predictions and labels must be equal-length and non-empty")
    return float((preds == labels).mean())


def _class_counts(preds: Sequence[int], labels: Sequence[int], n_classes: int):
    """True positives, false positives and false negatives of each class,
    read off the label -> prediction count matrix."""
    counts = confusion_matrix(preds, labels, n_classes)
    tp = np.diag(counts)
    return tp, counts.sum(axis=0) - tp, counts.sum(axis=1) - tp


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _class_scores(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray):
    """Per-class precision, recall and F1 with 0/0 ratios defined as 0."""
    precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    return precision, recall, _ratio(2 * precision * recall, precision + recall)


def precision_recall_f1(
    preds: Sequence[int], labels: Sequence[int], n_classes: int
) -> list[dict]:
    """Per-class precision/recall/F1 with 0/0 ratios defined as 0."""
    tp, fp, fn = _class_counts(preds, labels, n_classes)
    precision, recall, f1 = _class_scores(tp, fp, fn)
    return [
        {
            "class": c,
            "support": int(tp[c] + fn[c]),
            "precision": float(precision[c]),
            "recall": float(recall[c]),
            "f1": float(f1[c]),
        }
        for c in range(n_classes)
    ]


def macro_f1(preds: Sequence[int], labels: Sequence[int], n_classes: int) -> float:
    """Mean per-class F1 over classes present in predictions or labels."""
    if np.size(preds) == 0:
        raise ValueError("cannot score an empty prediction set")
    tp, fp, fn = _class_counts(preds, labels, n_classes)
    # a class is present when it is predicted or labelled at least once
    present = tp + fp + fn > 0
    if not present.any():
        raise ValueError("no classes present")
    return float(np.mean(_class_scores(tp, fp, fn)[2][present]))


def micro_f1(preds: Sequence[int], labels: Sequence[int], n_classes: int) -> float:
    """Globally pooled F1; for single-label classification this equals accuracy."""
    tp, fp, fn = _class_counts(preds, labels, n_classes)
    denom = 2 * tp.sum() + fp.sum() + fn.sum()
    return float(2 * tp.sum() / denom) if denom > 0 else 0.0


def binary_auc_rank(scores: Sequence[float], positive: Sequence[bool]) -> float:
    """ROC AUC of a score column via the rank-sum statistic.

    Tied scores receive their average rank, which credits ties as half
    concordant.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both positive and negative samples")
    order = np.argsort(scores, kind="mergesort")
    _, first, size = np.unique(scores[order], return_index=True, return_counts=True)
    # average rank of each tie group, 1-based
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + (first + size - 1)) + 1.0, size)
    rank_sum = ranks[positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_auc_ovr(probs: np.ndarray, labels: Sequence[int]) -> float:
    """One-vs-rest ROC AUC, macro-averaged over classes present in labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ValueError("probs must be (n, classes) aligned with labels")
    present = sorted(set(int(c) for c in labels))
    if len(present) < 2:
        raise UndefinedMetricError("AUC is undefined with a single class present")
    per_class = [binary_auc_rank(probs[:, c], labels == c) for c in present]
    return float(np.mean(per_class))


def confusion_matrix(
    preds: Sequence[int],
    labels: Sequence[int],
    n_classes: int,
    row_normalize: bool = False,
) -> np.ndarray:
    """Counts (or row-normalized rates) of label -> prediction pairs."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    matrix = np.zeros((n_classes, n_classes))
    np.add.at(matrix, (labels.astype(np.int64), preds.astype(np.int64)), 1)
    if row_normalize:
        sums = matrix.sum(axis=1, keepdims=True)
        matrix = np.divide(matrix, sums, out=np.zeros_like(matrix), where=sums > 0)
    return matrix


def hierarchy_consistency(
    preds_l1: Sequence[int],
    preds_l2: Sequence[int],
    taxonomy: ActivityTaxonomy,
) -> float:
    """Fraction of windows whose level-2 prediction rolls up to the
    predicted level-1 class."""
    preds_l1 = np.asarray(preds_l1)
    preds_l2 = np.asarray(preds_l2)
    if preds_l1.shape != preds_l2.shape or preds_l1.size == 0:
        raise ValueError("prediction arrays must be equal-length and non-empty")
    l1_names = taxonomy.level1_classes
    l2_names = taxonomy.level2_classes
    l1_index = {name: i for i, name in enumerate(l1_names)}
    rollup = np.array(
        [l1_index[taxonomy.level1_of(name)] for name in l2_names], dtype=np.int64
    )
    return float((rollup[preds_l2] == preds_l1).mean())


@dataclass
class EvalReport:
    """All headline numbers for one (width, split) evaluation."""

    width: int
    split: str
    n_windows: int
    accuracy_l1: float
    macro_f1_l1: float
    micro_f1_l1: float
    auc_l1: float | None
    accuracy_l2: float
    macro_f1_l2: float
    micro_f1_l2: float
    auc_l2: float | None
    hierarchy_consistency: float
    confusion_l1: list[list[float]] = field(default_factory=list)
    confusion_l2: list[list[float]] = field(default_factory=list)
    per_class_l1: list[dict] = field(default_factory=list)
    per_class_l2: list[dict] = field(default_factory=list)


def evaluate_run(
    params: ModelParams,
    windows: WindowSet,
    taxonomy: ActivityTaxonomy,
    *,
    width: int = 0,
    split: str = "",
) -> EvalReport:
    """Score a trained model on already-normalized windows.

    Synthetic windows are dropped first. AUC entries are None when fewer
    than two classes are present at that level.
    """
    real = windows.select(~windows.synthetic)
    if not len(real):
        raise ValueError("no real windows to evaluate")
    x, y1, y2 = windows_to_arrays(real, taxonomy)
    preds = predict(params, x)
    n1 = len(taxonomy.level1_classes)
    n2 = len(taxonomy.level2_classes)

    def safe_auc(probs, labels):
        try:
            return roc_auc_ovr(probs, labels)
        except UndefinedMetricError:
            return None

    return EvalReport(
        width=width,
        split=split,
        n_windows=len(real),
        accuracy_l1=accuracy(preds.pred1, y1),
        macro_f1_l1=macro_f1(preds.pred1, y1, n1),
        micro_f1_l1=micro_f1(preds.pred1, y1, n1),
        auc_l1=safe_auc(preds.probs1, y1),
        accuracy_l2=accuracy(preds.pred2, y2),
        macro_f1_l2=macro_f1(preds.pred2, y2, n2),
        micro_f1_l2=micro_f1(preds.pred2, y2, n2),
        auc_l2=safe_auc(preds.probs2, y2),
        hierarchy_consistency=hierarchy_consistency(preds.pred1, preds.pred2, taxonomy),
        confusion_l1=confusion_matrix(preds.pred1, y1, n1, row_normalize=True).tolist(),
        confusion_l2=confusion_matrix(preds.pred2, y2, n2, row_normalize=True).tolist(),
        per_class_l1=precision_recall_f1(preds.pred1, y1, n1),
        per_class_l2=precision_recall_f1(preds.pred2, y2, n2),
    )


def report_to_json(report: EvalReport) -> str:
    return json_text(asdict(report))


def confusion_to_csv(matrix: Sequence[Sequence[float]], class_names: Sequence[str]) -> str:
    """Rows are true classes, columns predicted classes."""
    return csv_text(
        ["true\\pred", *class_names],
        ([name, *(repr(float(v)) for v in row)] for name, row in zip(class_names, matrix)),
    )


def trend_csv(rows: Sequence[tuple[int, str, str, float]]) -> str:
    """width,split,metric,value rows for cross-width comparisons."""
    return csv_text(
        TREND_HEADER,
        ([str(width), split, metric, repr(float(value))] for width, split, metric, value in rows),
    )
