"""End-to-end glue: label, split, train and evaluate the four targets.

Bin edges are fitted once on the full training corpus, since they define
the ground-truth classes. The labeled corpus then gets one stratified
train/val/test split and one encoder fitted on its training rows; train,
val and test are encoded once each and shared by the four heads, which
differ only in their label column, network and seed. So every test row is
held out from all four heads, and the saved artifact carries one encoder.

``train_all`` trains the four heads at once, each in its own worker
interpreter (``sys.executable``) with one BLAS thread; at these layer
widths a second BLAS thread buys nothing, while a second core running a
second head halves the wait. The job, what ``_fit`` reads of the split
(the encoder, the three encoded batches and each part's labels, but not its
records) and each head's target, bins and config, is pickled once and
written to every worker's stdin. Training one head is two steps: ``_fit``
computes the network, its report, the test accuracy and the majority
baseline, and ``_trained`` wraps those four values around the caller's own
encoder, test split and bins. A worker sends back ``_fit``'s four values as
a plain pickle on stdout, and the caller wraps them, so the heads share the
caller's objects in process and across processes alike.
``_fit`` trains in TRAIN_DTYPE (float32): it narrows the new network's params
and running statistics and the train batch's numeric matrix, and widens the
params and statistics back to float64 when ``train`` returns. So the
returned heads, the artifact and every prediction are float64, and the
per-epoch validation forward, which always computes in float64, selects the
epoch on the numbers the widened head serves.
A worker peaks at about 55 MB resident on the acceptance workload, and runs
under the caller's warning options and development mode. A worker's
exception is raised again in the caller, or, if it does not unpickle, a
RuntimeError carrying its traceback; every worker is reaped before
``train_all`` returns or raises.
``evaluate_predictions`` scores given probabilities; ``evaluate_models`` predicts first.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .discretize import TARGET_NAMES, BinSpec, assign_classes, fit_bins
from .encode import EncodedBatch, EncoderSpec, encode, fit_encoder
from .ingest import Dataset, SplitResult, SplitSpec, stratified_split
from .metrics import (
    ClasswiseReport,
    ConfusionMatrix,
    PipelineReport,
    micro_curves,
    per_class_prf,
    pipeline_metrics,
)
from .nnet import HIDDEN, Network, TargetModel, TrainConfig, TrainReport, forward, predict_probabilities, train

# what a head trains in; its params are widened to float64 when training ends
TRAIN_DTYPE = np.float32


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
    hidden: tuple[int, ...] = HIDDEN,
) -> TrainedTarget:
    """Train one head on the shared batches; report held-out accuracy."""
    return _trained(data, target, bins, *_fit(_fit_inputs(data), target, bins, cfg, hidden))


# what _fit reads of a split: its encoder, its three batches and each part's labels by target
_FitInputs = tuple[EncoderSpec, tuple[EncodedBatch, ...], tuple[dict[str, np.ndarray], ...]]


def _fit_inputs(data: EncodedSplit) -> _FitInputs:
    """The split without its records, which ``_fit`` never reads."""
    return data.encoder, data.batches, tuple(part.labels for part in data.split)


def _fit(inputs: _FitInputs, target: str, bins: BinSpec, cfg: TrainConfig,
         hidden: tuple[int, ...]) -> tuple[Network, TrainReport, float, float]:
    """What training one head computes: its network, report, test accuracy and majority baseline."""
    encoder, batches, labels = inputs
    train_batch, val_batch, test_batch = (
        replace(batch, labels=part_labels[target]) for batch, part_labels in zip(batches, labels)
    )
    net = Network(encoder, n_classes=bins.n_classes, hidden=hidden, seed=cfg.seed)
    _cast(net, TRAIN_DTYPE)
    train_batch = replace(train_batch, numeric_matrix=train_batch.numeric_matrix.astype(TRAIN_DTYPE))
    report = train(net, train_batch, val_batch, cfg)
    _cast(net, np.float64)

    test_probs = forward(net, test_batch, mode="inference")
    test_acc = float((test_probs.argmax(axis=1) == test_batch.labels).mean())
    counts = np.bincount(train_batch.labels, minlength=bins.n_classes)
    majority = int(counts.argmax())
    baseline = float((test_batch.labels == majority).mean())
    return net, report, test_acc, baseline


def _cast(net: Network, dtype) -> None:
    """Convert the network's params and running statistics to dtype."""
    for state in (net.params, net.running):
        for name, value in state.items():
            state[name] = value.astype(dtype)


def _trained(data: EncodedSplit, target: str, bins: BinSpec, net: Network, report: TrainReport,
             test_accuracy: float, majority_baseline: float) -> TrainedTarget:
    """A head's fitted values around the split's own encoder and test part, and the head's bins."""
    model = TargetModel(target=target, net=net, encoder=data.encoder, bins=bins,
                        train_summary=report.summary())
    return TrainedTarget(model=model, report=report, test=data.split.test,
                         test_accuracy=test_accuracy, majority_baseline=majority_baseline)


def encode_split(
    dataset: Dataset,
    target_values: Mapping[str, np.ndarray],
    split_seed: int = 0,
) -> tuple[dict[str, BinSpec], EncodedSplit]:
    """Fit the bins, label, make the one split and encode its three parts."""
    bins = fit_all_bins(target_values)
    labeled = label_dataset(dataset, target_values, bins)
    split = stratified_split(labeled, SplitSpec(seed=split_seed))
    encoder = fit_encoder(split.train)
    return bins, EncodedSplit(split, encoder, tuple(encode(part.records, encoder) for part in split))


def train_all(
    dataset: Dataset,
    target_values: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    hidden: tuple[int, ...] = HIDDEN,
    split_seed: int = 0,
) -> tuple[dict[str, TargetModel], dict[str, TrainedTarget]]:
    """Fit bins, split and encode once, then train the four heads with per-target seeds, one worker each."""
    bins, data = encode_split(dataset, target_values, split_seed)
    heads = [(target, bins[target], replace(cfg, seed=cfg.seed + i)) for i, target in enumerate(TARGET_NAMES)]
    details = _train_in_workers(data, heads, hidden)
    return {target: trained.model for target, trained in details.items()}, details


# --- training workers -------------------------------------------------------------

_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)
# SIGINT goes to the caller alone, which then kills its workers
_WORKER_MAIN = ("import signal; signal.signal(signal.SIGINT, signal.SIG_IGN); "
                "from respred.pipeline import _train_worker; _train_worker()")


def _train_in_workers(
    data: EncodedSplit,
    heads: list[tuple[str, BinSpec, TrainConfig]],
    hidden: tuple[int, ...],
) -> dict[str, TrainedTarget]:
    """``train_target(data, *head, hidden)`` for every head, with each ``_fit`` in its own worker process."""
    job = pickle.dumps((_fit_inputs(data), heads, hidden), pickle.HIGHEST_PROTOCOL)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (_PACKAGE_PARENT, os.environ.get("PYTHONPATH")))),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    # the caller's warning filters and development mode: a warning that is an error here is one there
    flags = [f"-W{option}" for option in sys.warnoptions] + (["-X", "dev"] if sys.flags.dev_mode else [])
    workers: list[subprocess.Popen] = []
    try:
        # every worker imports while the first one reads its job
        for i in range(len(heads)):
            workers.append(subprocess.Popen([sys.executable, *flags, "-c", _WORKER_MAIN, str(i)],
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env))
        for proc in workers:
            # a worker that is gone says why through its result, or its lack of one
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.write(job)
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
        return {target: _trained(data, target, bins, *_collect(proc, target))
                for proc, (target, bins, _) in zip(workers, heads)}
    finally:
        for proc in workers:
            proc.kill()            # a no-op for a worker that has exited
        for proc in workers:
            proc.wait()
            proc.stdout.close()
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()


def _collect(proc: subprocess.Popen, target: str) -> tuple[Network, TrainReport, float, float]:
    """One worker's ``_fit`` values, or its exception raised again here."""
    reply = proc.stdout.read()
    code = proc.wait()
    if not reply:
        raise RuntimeError(f"the training worker for {target} exited with code {code} and sent no result")
    status, *rest = pickle.loads(reply)
    if status == "ok":
        return rest[0]
    blob, worker_traceback = rest
    failure = RuntimeError(f"the training worker for {target} failed:\n{worker_traceback}")
    try:
        exc = pickle.loads(blob)
    except Exception:
        raise failure from None
    raise exc from failure


def _train_worker() -> None:
    """A worker's body: one head's job from stdin, its pickled ``_fit`` values to stdout."""
    out = sys.stdout.buffer
    sys.stdout = sys.stderr        # a stray print must not corrupt the reply
    try:
        inputs, heads, hidden = pickle.load(sys.stdin.buffer)
        target, bins, cfg = heads[int(sys.argv[1])]
        reply = pickle.dumps(("ok", _fit(inputs, target, bins, cfg, hidden)), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        try:
            blob = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        except Exception:
            blob = b""
        reply = pickle.dumps(("error", blob, traceback.format_exc()))
    out.write(reply)
    out.flush()


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
    return evaluate_predictions(predict_probabilities(dict(models), labeled.records), labeled)


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
        roc_auc, pr_auc, roc_points, pr_points = micro_curves(p, y_true)
        per_target[name] = TargetEvaluation(
            target=name,
            n_classes=k,
            accuracy=float((y_pred == y_true).mean()),
            classwise=per_class_prf(cm),
            roc_auc=roc_auc,
            pr_auc=pr_auc,
            confusion=cm,
            roc_points=roc_points,
            pr_points=pr_points,
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
