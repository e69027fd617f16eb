"""End-to-end glue: label, split, train and evaluate the four targets.

Bin edges are fitted once on the full training corpus, since they define
the ground-truth classes. The labeled corpus then gets one stratified
train/val/test split and one encoder fitted on its training rows; train,
val and test are encoded once each and shared by the four heads, which
differ only in their label column, network and seed. So every test row is
held out from all four heads, and the saved artifact carries one encoder.
``evaluate_predictions`` scores given probabilities; ``evaluate_models`` predicts first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .discretize import TARGET_NAMES, BinSpec, assign_classes, fit_bins
from .encode import EncodedBatch, EncoderSpec, encode, fit_encoder
from .ingest import Dataset, SplitResult, SplitSpec, stratified_split
from .metrics import (
    ClasswiseReport,
    ConfusionMatrix,
    PipelineReport,
    per_class_prf,
    pipeline_metrics,
    pr_auc_micro,
    pr_curve_points,
    roc_auc_micro,
    roc_curve_points,
)
from .nnet import Network, TargetModel, TrainConfig, TrainReport, forward, predict, train


def fit_all_bins(target_values: Mapping[str, np.ndarray]) -> dict[str, BinSpec]:
    """Quantile bins per target at the registry's class counts."""
    return {name: fit_bins(target_values[name], name) for name in TARGET_NAMES}


def label_dataset(
    dataset: Dataset,
    target_values: Mapping[str, np.ndarray],
    bins: Mapping[str, BinSpec],
) -> Dataset:
    """Attach discretized class labels for every target."""
    return dataset.with_labels({
        name: assign_classes(target_values[name], bins[name]) for name in TARGET_NAMES
    })


@dataclass
class EncodedSplit:
    """The one split of a labeled corpus, encoded once for all four heads."""

    split: SplitResult
    encoder: EncoderSpec
    batches: tuple[EncodedBatch, EncodedBatch, EncodedBatch]   # train, val, test; no labels


@dataclass
class TrainedTarget:
    model: TargetModel
    report: TrainReport
    test: Dataset
    test_accuracy: float
    majority_baseline: float


def train_target(
    data: EncodedSplit,
    target: str,
    bins: BinSpec,
    cfg: TrainConfig,
    hidden: tuple[int, ...] = (256, 128, 64),
) -> TrainedTarget:
    """Train one head on the shared batches; report held-out accuracy."""
    train_batch, val_batch, test_batch = (
        replace(batch, labels=part.labels[target]) for batch, part in zip(data.batches, data.split)
    )
    net = Network(data.encoder, n_classes=bins.n_classes, hidden=hidden, seed=cfg.seed)
    report = train(net, train_batch, val_batch, cfg)

    test_probs = forward(net, test_batch, mode="inference")
    test_acc = float((test_probs.argmax(axis=1) == test_batch.labels).mean())
    counts = np.bincount(train_batch.labels, minlength=bins.n_classes)
    majority = int(counts.argmax())
    baseline = float((test_batch.labels == majority).mean())

    model = TargetModel(
        target=target,
        net=net,
        encoder=data.encoder,
        bins=bins,
        train_summary=report.summary(),
    )
    return TrainedTarget(
        model=model,
        report=report,
        test=data.split.test,
        test_accuracy=test_acc,
        majority_baseline=baseline,
    )


def train_all(
    dataset: Dataset,
    target_values: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    hidden: tuple[int, ...] = (256, 128, 64),
    split_seed: int = 0,
) -> tuple[dict[str, TargetModel], dict[str, TrainedTarget]]:
    """Fit bins, split and encode once, then train the four heads with per-target seeds."""
    bins = fit_all_bins(target_values)
    labeled = label_dataset(dataset, target_values, bins)
    split = stratified_split(labeled, SplitSpec(seed=split_seed))
    encoder = fit_encoder(split.train)
    data = EncodedSplit(split, encoder, tuple(encode(part.records, encoder) for part in split))

    models: dict[str, TargetModel] = {}
    details: dict[str, TrainedTarget] = {}
    for i, target in enumerate(TARGET_NAMES):
        trained = train_target(data, target, bins[target], replace(cfg, seed=cfg.seed + i), hidden)
        models[target] = trained.model
        details[target] = trained
    return models, details


@dataclass
class TargetEvaluation:
    target: str
    n_classes: int
    accuracy: float
    classwise: ClasswiseReport
    roc_auc: float
    pr_auc: float
    confusion: ConfusionMatrix
    roc_points: np.ndarray
    pr_points: np.ndarray


@dataclass
class EvaluationReport:
    per_target: dict[str, TargetEvaluation]
    pipeline: PipelineReport

    def as_dict(self) -> dict:
        out: dict = {"models": {}, "pipeline": self.pipeline.as_dict()}
        for name, ev in self.per_target.items():
            out["models"][name] = {
                "classes": ev.n_classes,
                "accuracy": ev.accuracy,
                "macro_f1": ev.classwise.macro_f1,
                "roc_auc_micro": ev.roc_auc,
                "pr_auc_micro": ev.pr_auc,
                "per_class": [
                    {
                        "class": c,
                        "precision": float(ev.classwise.precision[c]),
                        "recall": float(ev.classwise.recall[c]),
                        "f1": float(ev.classwise.f1[c]),
                        "support": int(ev.classwise.support[c]),
                    }
                    for c in range(ev.n_classes)
                ],
            }
        return out


def evaluate_models(models: Mapping[str, TargetModel], labeled: Dataset) -> EvaluationReport:
    """:func:`evaluate_predictions` on the heads' predictions for the labeled records."""
    return evaluate_predictions(predict(dict(models), labeled.records)[1], labeled)


def evaluate_predictions(probs: Mapping[str, np.ndarray], labeled: Dataset) -> EvaluationReport:
    """Individual metrics per head plus the joint pipeline metrics, from (n, classes) probabilities."""
    per_target: dict[str, TargetEvaluation] = {}
    predictions: dict[str, np.ndarray] = {}
    labels: dict[str, np.ndarray] = {}

    for name in TARGET_NAMES:
        y_true = labeled.labels[name]
        p = probs[name]
        y_pred = p.argmax(axis=1)
        predictions[name] = y_pred
        labels[name] = y_true
        k = p.shape[1]
        cm = ConfusionMatrix.from_labels(y_true, y_pred, k)
        per_target[name] = TargetEvaluation(
            target=name,
            n_classes=k,
            accuracy=float((y_pred == y_true).mean()),
            classwise=per_class_prf(cm),
            roc_auc=roc_auc_micro(p, y_true),
            pr_auc=pr_auc_micro(p, y_true),
            confusion=cm,
            roc_points=roc_curve_points(p, y_true),
            pr_points=pr_curve_points(p, y_true),
        )

    return EvaluationReport(
        per_target=per_target,
        pipeline=pipeline_metrics(predictions, labels),
    )


def render_report(report: EvaluationReport) -> str:
    """Human-readable evaluation summary: classwise block, summary block, pipeline block."""
    lines = []
    lines.append(f"{'Model':<12} {'Class':>5} {'Precision':>10} {'Recall':>8} {'F1':>8} {'Support':>8}")
    for name, ev in report.per_target.items():
        for c in range(ev.n_classes):
            lines.append(
                f"{name:<12} {c:>5} {ev.classwise.precision[c]:>10.3f} "
                f"{ev.classwise.recall[c]:>8.3f} {ev.classwise.f1[c]:>8.3f} "
                f"{int(ev.classwise.support[c]):>8}"
            )
    lines.append("")
    lines.append(f"{'Model':<12} {'Classes':>7} {'Accuracy':>9} {'MacroF1':>8} {'ROC-AUC':>8} {'PR-AUC':>7}")
    for name, ev in report.per_target.items():
        lines.append(
            f"{name:<12} {ev.n_classes:>7} {ev.accuracy:>9.4f} {ev.classwise.macro_f1:>8.4f} "
            f"{ev.roc_auc:>8.4f} {ev.pr_auc:>7.4f}"
        )
    lines.append("")
    pipe = report.pipeline
    lines.append(f"pipeline samples: {pipe.n_samples}")
    for k in (1, 2, 3, 4):
        lines.append(f"at least {k}/4 correct: {100 * pipe.at_least_k[k]:.1f}%")
    lines.append(f"exact-match accuracy: {100 * pipe.exact_match_accuracy:.1f}%")
    lines.append(f"average pipeline accuracy: {100 * pipe.average_pipeline_accuracy:.2f}%")
    return "\n".join(lines) + "\n"
