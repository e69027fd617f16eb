"""Evaluation metrics: per-class PRF, micro-averaged ROC/PR AUC, pipeline accuracy.

AUCs flatten the (sample, class) pairs one-vs-rest. Both curves and both
areas come from one threshold sweep: a single descending sort and the
cumulative true/false positive counts at the end of each tie group. ROC
area is the trapezoid under the ROC points, so a tie group is one straight
segment and ties earn half credit. PR area is the step-wise sum over recall
increments (no interpolation). Pipeline metrics treat the four heads
jointly: exact-match accuracy, at-least-k partial accuracy, and the mean of
per-model accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .discretize import TARGET_NAMES


@dataclass
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns predicted classes."""

    counts: np.ndarray

    @classmethod
    def from_labels(cls, y_true: Sequence[int], y_pred: Sequence[int], n_classes: int) -> "ConfusionMatrix":
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        if y_true.shape != y_pred.shape:
            raise ValueError("y_true and y_pred must share length")
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(counts, (y_true, y_pred), 1)
        return cls(counts=counts)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class ClasswiseReport:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    accuracy: float
    zero_division_flags: list[str] = field(default_factory=list)


def per_class_prf(cm: ConfusionMatrix) -> ClasswiseReport:
    """Per-class precision/recall/F1 with macro and micro aggregates.

    Zero denominators yield 0 and are flagged rather than raising, since
    rare classes can receive no predictions at small sample sizes.
    """
    counts = cm.counts
    if counts.size == 0 or cm.n_classes < 2:
        raise ValueError("confusion matrix must cover at least 2 classes")

    tp = np.diag(counts).astype(float)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    flags: list[str] = []

    precision = np.zeros(cm.n_classes)
    recall = np.zeros(cm.n_classes)
    f1 = np.zeros(cm.n_classes)
    for c in range(cm.n_classes):
        if tp[c] + fp[c] > 0:
            precision[c] = tp[c] / (tp[c] + fp[c])
        else:
            flags.append(f"precision[{c}]")
        if tp[c] + fn[c] > 0:
            recall[c] = tp[c] / (tp[c] + fn[c])
        else:
            flags.append(f"recall[{c}]")
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
        else:
            flags.append(f"f1[{c}]")

    total = counts.sum()
    micro_tp = tp.sum()
    micro = micro_tp / total if total > 0 else 0.0

    return ClasswiseReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=counts.sum(axis=1),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        micro_precision=float(micro),
        micro_recall=float(micro),
        micro_f1=float(micro),
        accuracy=float(micro),
        zero_division_flags=flags,
    )


def _flatten_ovr(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or len(labels) != probs.shape[0]:
        raise ValueError("probs must be (n_samples, n_classes) aligned with labels")
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1.0
    return probs.ravel(), onehot.ravel()


def _threshold_sweep(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (true, false) positive counts at each threshold, highest first.

    One stable descending sort of the one-vs-rest scores. A threshold sits at
    the last index of each tie group, so a tie group is one step of both
    curves. Index 0 is the threshold above every score, (0, 0); the last
    entries are the positive and negative totals.
    """
    scores, positive = _flatten_ovr(probs, labels)
    order = np.argsort(-scores, kind="mergesort")
    scores = scores[order]
    # a tie group ends where the next score differs, and the last score ends one
    ends = np.flatnonzero(np.append(scores[1:] != scores[:-1], len(scores) > 0))
    tp = np.concatenate([[0.0], np.cumsum(positive[order])[ends]])
    fp = np.concatenate([[0.0], ends + 1.0]) - tp
    return tp, fp


def roc_auc_micro(probs: np.ndarray, labels: np.ndarray) -> float:
    """Micro-average ROC AUC: the trapezoid area under the ROC points.

    The probability that a random positive outscores a random negative,
    ties counting one half. The trapezoids are summed in counts, which is
    exact, so the one division is the only rounding.
    """
    tp, fp = _threshold_sweep(probs, labels)
    if tp[-1] == 0 or fp[-1] == 0:
        raise ValueError("need at least one positive and one negative pair")
    return float(np.trapezoid(tp, fp) / (tp[-1] * fp[-1]))


def pr_auc_micro(probs: np.ndarray, labels: np.ndarray) -> float:
    """Micro-average PR AUC: sum of (R_i - R_{i-1}) * P_i over score thresholds."""
    tp, fp = _threshold_sweep(probs, labels)
    if tp[-1] == 0:
        raise ValueError("need at least one positive pair")
    return float((np.diff(tp / tp[-1]) * (tp[1:] / (tp[1:] + fp[1:]))).sum())


def roc_curve_points(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(fpr, tpr) points of the micro-average ROC curve, for plotting."""
    tp, fp = _threshold_sweep(probs, labels)
    return np.column_stack([fp / fp[-1], tp / tp[-1]])


def pr_curve_points(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(recall, precision) points of the micro-average PR curve; precision starts at 1."""
    tp, fp = _threshold_sweep(probs, labels)
    precision = np.concatenate([[1.0], tp[1:] / (tp[1:] + fp[1:])])
    return np.column_stack([tp / tp[-1], precision])


@dataclass
class PipelineReport:
    """Joint accuracy of the four heads on one evaluation set."""

    exact_match_accuracy: float
    at_least_k: dict[int, float]              # k in 1..4
    per_model_accuracy: dict[str, float]
    average_pipeline_accuracy: float
    n_samples: int

    def as_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "exact_match_accuracy": self.exact_match_accuracy,
            "at_least_k": {str(k): v for k, v in self.at_least_k.items()},
            "per_model_accuracy": dict(self.per_model_accuracy),
            "average_pipeline_accuracy": self.average_pipeline_accuracy,
        }


def pipeline_metrics(
    predictions: Mapping[str, Sequence[int]],
    labels: Mapping[str, Sequence[int]],
) -> PipelineReport:
    """Exact-match, at-least-k and average accuracy over the four targets."""
    missing = set(TARGET_NAMES) - set(predictions) | set(TARGET_NAMES) - set(labels)
    if missing:
        raise ValueError(f"missing targets: {sorted(missing)}")

    pred = {t: np.asarray(predictions[t], dtype=np.int64) for t in TARGET_NAMES}
    true = {t: np.asarray(labels[t], dtype=np.int64) for t in TARGET_NAMES}
    lengths = {len(v) for v in pred.values()} | {len(v) for v in true.values()}
    if len(lengths) != 1:
        raise ValueError("prediction and label vectors must share length")
    n = lengths.pop()
    if n < 1:
        raise ValueError("need at least one sample")

    correct = np.stack([pred[t] == true[t] for t in TARGET_NAMES])  # (4, n)
    n_correct = correct.sum(axis=0)

    per_model = {t: float(correct[i].mean()) for i, t in enumerate(TARGET_NAMES)}
    at_least = {k: float((n_correct >= k).mean()) for k in (1, 2, 3, 4)}

    return PipelineReport(
        exact_match_accuracy=at_least[4],
        at_least_k=at_least,
        per_model_accuracy=per_model,
        average_pipeline_accuracy=float(np.mean(list(per_model.values()))),
        n_samples=n,
    )


def average_pipeline_accuracy(per_model: Sequence[float]) -> float:
    """Unweighted mean of the individual model accuracies."""
    if len(per_model) == 0:
        raise ValueError("need at least one accuracy")
    return float(np.mean(np.asarray(per_model, dtype=float)))
