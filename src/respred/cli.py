"""Command-line entry point: synth, derive, train, evaluate, predict, simulate, serve.

Exit codes: 0 success, 2 flag/input validation error, 1 runtime failure.
``train``'s model flags and every command's output file paths are checked,
and ``evaluate``'s curve directory made, before any input is read.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import ingest, pipeline, service, simsynth
from .discretize import TARGET_NAMES
from .nnet import HIDDEN, TrainConfig, predict
from .targets import ResourceConfig, derive_tasks

TASK_ID = ingest.TASK_COLUMNS["task_id"]
TARGETS_CSV_HEADER = [TASK_ID, *TARGET_NAMES, "N_SCOUTS", "CPU_FILTER_FALLBACK"]


def _warn_rejected(report: ingest.ParseReport, rows: str) -> None:
    """Tell stderr how many of a CSV's rows were rejected, if any were."""
    if report.n_rejected:
        print(f"warning: rejected {report.n_rejected}/{report.n_rows} {rows} rows", file=sys.stderr)


def _write_targets_csv(path: Path, task_ids: list[str], values: dict[str, np.ndarray],
                       n_scouts: np.ndarray, fallback: np.ndarray) -> None:
    # .tolist() gives Python floats, which csv writes as repr(float)
    columns = [task_ids, *(values[t].tolist() for t in TARGET_NAMES),
               n_scouts.tolist(), fallback.astype(int).tolist()]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TARGETS_CSV_HEADER)
        writer.writerows(zip(*columns))


def _read_targets_csv(path: Path) -> dict[str, dict[str, float]]:
    """TASK_ID -> {target: value}; a bad value or id, a repeated id or an unreadable file is a SchemaError."""
    out: dict[str, dict[str, float]] = {}
    with path.open(newline="", encoding=ingest.CSV_ENCODING) as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in TARGETS_CSV_HEADER[:5] if c not in (reader.fieldnames or [])]
            if missing:
                raise ingest.SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                try:
                    task_id = ingest._parse_id(row[TASK_ID], TASK_ID)
                    if task_id in out:
                        raise ValueError(f"duplicate {TASK_ID} {task_id}")
                    out[task_id] = {t: ingest._parse_float(row[t], t) for t in TARGET_NAMES}
                except ValueError as exc:
                    raise ingest.SchemaError(f"{path} line {reader.line_num}: {exc}") from None
        except csv.Error as exc:
            raise ingest.SchemaError(f"{path}: {exc}") from None
    return out


def _aligned_targets(dataset: ingest.Dataset, by_task: dict[str, dict[str, float]]) -> dict[str, np.ndarray]:
    missing = [r.task_id for r in dataset.records if r.task_id not in by_task]
    if missing:
        raise ingest.SchemaError(f"{len(missing)} task(s) lack target rows, first: {missing[0]}")
    return {
        t: np.asarray([by_task[r.task_id][t] for r in dataset.records])
        for t in TARGET_NAMES
    }


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """A parser type: an integer of at least minimum (1 for counts and widths, 0 for seeds)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text!r}")
        return value
    return parse


def _widths(text: str) -> tuple[int, ...]:
    """--hidden: comma-separated layer widths, each at least 1."""
    return tuple(map(_int_at_least(1), text.split(",")))


def _finite(minimum: float, strict: bool = False) -> Callable[[str], float]:
    """A parser type: a finite number of at least minimum, or above it when strict."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not (math.isfinite(value) and (value > minimum if strict else value >= minimum)):
            raise argparse.ArgumentTypeError(f"must be finite and {'>' if strict else '>='} {minimum}, got {text!r}")
        return value
    return parse


def _check_output(path: str | None) -> None:
    """Refuse an output file that could not be written, before any work: a directory, or a path in none."""
    if path is None:
        return
    if Path(path).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not Path(path).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _parse_tasks(path: str) -> ingest.Dataset:
    dataset = ingest.parse_task_csv(path)
    _warn_rejected(dataset.report, "task")
    return dataset


def _parse_jobs(path: str) -> list[ingest.JobProfile]:
    jobs, report = ingest.parse_job_csv(path)
    _warn_rejected(report, "job")
    return jobs


def _load_labeled(tasks_path: str, targets_path: str, bins) -> tuple[ingest.Dataset, dict[str, np.ndarray]]:
    dataset = _parse_tasks(tasks_path)
    values = _aligned_targets(dataset, _read_targets_csv(Path(targets_path)))
    return pipeline.label_dataset(dataset, values, bins), values


def cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = simsynth.GeneratorSpec(seed=args.seed, n_tasks=args.n_tasks)
    synth = simsynth.generate(spec)
    ingest.write_task_csv(synth.dataset, out / "tasks.csv")
    ingest.write_job_csv(synth.jobs, out / "jobs.csv")
    n = len(synth.dataset)
    _write_targets_csv(out / "targets.csv", [r.task_id for r in synth.dataset.records], synth.targets,
                       np.zeros(n, dtype=int), np.zeros(n, dtype=bool))
    print(f"wrote {n} tasks, {len(synth.jobs)} jobs to {out}")
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    _check_output(args.out)
    jobs = _parse_jobs(args.jobs)
    cfg = ResourceConfig(margin=args.margin, min_ram_count=args.min_ram)
    by_task = ingest.group_by_task(jobs)
    task_ids = np.asarray(sorted(by_task))
    values, n_scouts, fallback = derive_tasks(by_task, task_ids.tolist(), cfg, all_jobs=args.all_jobs)
    keep = n_scouts > 0
    _write_targets_csv(Path(args.out), task_ids[keep].tolist(), {t: v[keep] for t, v in values.items()},
                       n_scouts[keep], fallback[keep])
    print(f"derived targets for {keep.sum()} tasks ({(~keep).sum()} skipped) -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    _check_output(args.out)
    dataset = _parse_tasks(args.data)
    values = _aligned_targets(dataset, _read_targets_csv(Path(args.targets)))
    cfg = TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )
    models, details = pipeline.train_all(dataset, values, cfg, hidden=args.hidden, split_seed=args.seed)

    for target, d in details.items():
        r = d.report
        print(f"{target}: epochs={len(r.train_loss)} stop={r.stop_reason} "
              f"best_val_acc={r.best_val_accuracy:.4f} test_acc={d.test_accuracy:.4f} "
              f"(majority {d.majority_baseline:.4f})")
        if not r.weights_trained:
            print(f"error: {target} training aborted ({r.stop_reason})", file=sys.stderr)
            return 1

    service.save_artifact(models, args.out, train_config=cfg)
    print(f"saved artifact -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_output(args.report_out)
    if args.curves_dir:
        Path(args.curves_dir).mkdir(parents=True, exist_ok=True)
    artifact = service.load_artifact(args.artifact)
    bins = {t: artifact.models[t].bins for t in TARGET_NAMES}
    labeled, _ = _load_labeled(args.data, args.targets, bins)
    report = pipeline.evaluate_models(artifact.models, labeled)

    text = pipeline.render_report(report)
    print(text, end="")
    if args.report_out:
        Path(args.report_out).write_text(
            json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
        )
    if args.curves_dir:
        curves = Path(args.curves_dir)
        for target, ev in report.per_target.items():
            np.savetxt(curves / f"roc_{target}.csv", ev.roc_points,
                       delimiter=",", header="fpr,tpr", comments="")
            np.savetxt(curves / f"pr_{target}.csv", ev.pr_points,
                       delimiter=",", header="recall,precision", comments="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    _check_output(args.out)
    artifact = service.load_artifact(args.artifact)
    if args.features:
        try:
            doc = service._json_loads(args.features)
        except ValueError:
            doc = None
        if not isinstance(doc, dict):
            raise service.ValidationError("--features must be a JSON object")
        response = service.predict_request(artifact, doc)
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    dataset = _parse_tasks(args.data)
    classes, _ = predict(artifact.models, dataset.records)
    with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([TASK_ID, *(f"{target}_CLASS" for target in TARGET_NAMES)])
        writer.writerows((rec.task_id, *cls) for rec, cls in zip(dataset.records, classes))
    print(f"wrote predictions for {len(dataset)} tasks -> {args.out}")
    return 0


def _broker_inputs(args: argparse.Namespace, artifact) -> simsynth.BrokerInputs:
    bins = {t: artifact.models[t].bins for t in TARGET_NAMES}
    labeled, values = _load_labeled(args.data, args.targets, bins)
    jobs_by_task = ingest.group_by_task(_parse_jobs(args.jobs)) if args.jobs else None
    return simsynth.BrokerInputs(
        records=labeled.records,
        true_classes=np.column_stack([labeled.labels[t] for t in TARGET_NAMES]),
        true_targets=values,
        bins=bins,
        jobs_by_task=jobs_by_task,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_output(args.report_out)
    if args.report_out:
        summary_path = Path(args.report_out).with_suffix(".txt")
        if summary_path == Path(args.report_out):
            raise service.ValidationError(
                f"--report-out {args.report_out}: the .txt summary beside it would overwrite it")
        _check_output(str(summary_path))
    artifact = service.load_artifact(args.model_dir)
    inputs = _broker_inputs(args, artifact)
    cfg = simsynth.SimConfig(seed=args.seed, ml_latency=args.ml_latency)

    def predictor(records):
        classes, _ = predict(artifact.models, records)
        return classes

    if args.mode == "both":
        result = simsynth.compare(inputs, cfg, predictor=predictor)
        doc = result.as_dict()
        summary = (
            f"scout mean turnaround: {result.scout.mean_turnaround_hours:.2f} h "
            f"(decision {result.scout.mean_decision_hours:.2f} h)\n"
            f"ml    mean turnaround: {result.ml.mean_turnaround_hours:.2f} h "
            f"(decision {result.ml.mean_decision_hours * 3600:.2f} s)\n"
            f"turnaround reduction:  {result.turnaround_reduction_hours:.2f} h\n"
        )
    else:
        predictor_arg = predictor if args.mode == "ml" else None
        report = simsynth.simulate(inputs, args.mode, cfg, predictor=predictor_arg)
        doc = report.as_dict()
        summary = (
            f"{args.mode} mean turnaround: {report.mean_turnaround_hours:.2f} h, "
            f"retries {report.failure_retries}, wasted {report.wasted_core_hours:.1f} core-h\n"
        )
    print(summary, end="")
    if args.report_out:
        Path(args.report_out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        summary_path.write_text(summary)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    artifact = service.load_artifact(args.artifact)
    if args.feedback_log:
        # a log that cannot be appended to stops the start, not every /feedback after it
        Path(args.feedback_log).open("a").close()
    svc = service.PredictionService(artifact, feedback_log=args.feedback_log)
    service.serve_forever(svc, args.bind)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respred",
        description="Task resource-requirement prediction and brokerage simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic task population")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-tasks", type=_int_at_least(0), default=10000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("derive", help="derive continuous targets from job profiles")
    p.add_argument("--jobs", required=True, help="job-profile CSV")
    p.add_argument("--out", required=True, help="targets CSV to write")
    p.add_argument("--margin", type=_finite(0), default=ResourceConfig.margin)
    p.add_argument("--min-ram", type=_finite(0), default=ResourceConfig.min_ram_count)
    p.add_argument("--all-jobs", action="store_true",
                   help="aggregate over all jobs instead of scout jobs")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("train", help="train the four classifiers and save an artifact")
    p.add_argument("--data", required=True, help="task CSV")
    p.add_argument("--targets", required=True, help="targets CSV (from derive or synth)")
    p.add_argument("--out", required=True, help="artifact file to write")
    # at a learning rate of 0 no weight moves
    p.add_argument("--learning-rate", type=_finite(0, strict=True), default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=_int_at_least(1), default=TrainConfig.batch_size)
    p.add_argument("--max-epochs", type=_int_at_least(1), default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=_int_at_least(1), default=TrainConfig.patience)
    p.add_argument("--hidden", type=_widths, default=HIDDEN)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="individual and pipeline metrics on a labeled set")
    p.add_argument("--artifact", required=True)
    p.add_argument("--data", required=True, help="task CSV")
    p.add_argument("--targets", required=True, help="targets CSV")
    p.add_argument("--report-out", help="JSON report path")
    p.add_argument("--curves-dir", help="directory for ROC/PR curve CSVs")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict classes for tasks")
    p.add_argument("--artifact", required=True)
    p.add_argument("--data", help="task CSV (batch mode)")
    p.add_argument("--out", help="predictions CSV (batch mode)")
    p.add_argument("--features", help="single-task JSON document")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="scout vs ml brokerage simulation")
    p.add_argument("--mode", choices=("scout", "ml", "both"), required=True)
    p.add_argument("--tasks", dest="data", required=True, help="task CSV")
    p.add_argument("--targets", required=True, help="targets CSV (ground truth)")
    p.add_argument("--jobs", help="job-profile CSV (required for scout mode)")
    p.add_argument("--model-dir", required=True,
                   help="artifact file (as --artifact elsewhere)")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--ml-latency", type=_finite(0), default=0.5)
    p.add_argument("--report-out", help="JSON report path, not ending in .txt (a .txt summary is written beside it)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve", help="run the prediction HTTP service")
    p.add_argument("--artifact", required=True)
    p.add_argument("--bind", help=f"host:port (default ${service.BIND_ENV_VAR} or {service.DEFAULT_BIND})")
    p.add_argument("--feedback-log", help="JSONL feedback log path")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "predict" and not args.features and not (args.data and args.out):
        parser.error("predict requires --features or both --data and --out")
    if args.command == "simulate" and args.mode in ("scout", "both") and not args.jobs:
        parser.error("scout-mode simulation requires --jobs")

    try:
        return args.func(args)
    except (service.ValidationError, ingest.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an OSError that names a file is about a path the user gave
        return 2 if isinstance(exc, OSError) and exc.filename is not None else 1


if __name__ == "__main__":
    sys.exit(main())
