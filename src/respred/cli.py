"""Command-line entry point: synth, derive, train, evaluate, predict, simulate, serve.

Exit codes: 0 success, 2 flag/input validation error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import ingest, pipeline, service, simsynth
from .discretize import TARGET_NAMES, classes_to_resource_classes
from .nnet import TrainConfig, predict
from .targets import ResourceConfig, aggregate_scouts

TARGETS_CSV_HEADER = ["TASK_ID", *TARGET_NAMES, "N_SCOUTS", "CPU_FILTER_FALLBACK"]


def _write_targets_csv(path: Path, rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TARGETS_CSV_HEADER)
        writer.writerows(rows)


def _read_targets_csv(path: Path) -> dict[str, dict[str, float]]:
    """TASK_ID -> {target: value}; a missing, non-numeric or non-finite value is a SchemaError."""
    out: dict[str, dict[str, float]] = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TARGETS_CSV_HEADER[:5] if c not in (reader.fieldnames or [])]
        if missing:
            raise ingest.SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            try:
                out[row["TASK_ID"]] = {t: ingest._parse_float(row[t], t) for t in TARGET_NAMES}
            except ValueError as exc:
                raise ingest.SchemaError(f"{path} line {reader.line_num}: {exc}") from None
    return out


def _aligned_targets(dataset: ingest.Dataset, by_task: dict[str, dict[str, float]]) -> dict[str, np.ndarray]:
    missing = [r.task_id for r in dataset.records if r.task_id not in by_task]
    if missing:
        raise ValueError(f"{len(missing)} task(s) lack target rows, first: {missing[0]}")
    return {
        t: np.asarray([by_task[r.task_id][t] for r in dataset.records])
        for t in TARGET_NAMES
    }


def _load_labeled(tasks_path: str, targets_path: str, bins) -> tuple[ingest.Dataset, dict[str, np.ndarray]]:
    dataset = ingest.parse_task_csv(tasks_path)
    values = _aligned_targets(dataset, _read_targets_csv(Path(targets_path)))
    return pipeline.label_dataset(dataset, values, bins), values


def cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = simsynth.GeneratorSpec(seed=args.seed, n_tasks=args.n_tasks)
    synth = simsynth.generate(spec)
    ingest.write_task_csv(synth.dataset, out / "tasks.csv")
    ingest.write_job_csv(synth.jobs, out / "jobs.csv")
    rows = [
        [rec.task_id] + [repr(float(synth.targets[t][i])) for t in TARGET_NAMES] + [0, 0]
        for i, rec in enumerate(synth.dataset.records)
    ]
    _write_targets_csv(out / "targets.csv", rows)
    print(f"wrote {len(synth.dataset)} tasks, {len(synth.jobs)} jobs to {out}")
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    jobs, report = ingest.parse_job_csv(args.jobs)
    if report.n_rejected:
        print(f"warning: rejected {report.n_rejected}/{report.n_rows} job rows", file=sys.stderr)
    cfg = ResourceConfig(margin=args.margin, min_ram_count=args.min_ram)
    by_task: dict[str, list] = {}
    for job in jobs:
        by_task.setdefault(job.task_id, []).append(job)

    rows = []
    skipped = 0
    for task_id in sorted(by_task):
        pool = by_task[task_id]
        scouts = pool if args.all_jobs else ([j for j in pool if j.is_scout] or pool)
        usable = [j for j in scouts if j.n_events_job >= 1 and j.end_time > j.start_time]
        if not usable:
            skipped += 1
            continue
        agg = aggregate_scouts(usable, cfg)
        t = agg.targets
        rows.append([task_id, repr(t.ram_count), repr(t.cpu_time), repr(t.io_intensity),
                     repr(t.walltime), agg.n_scouts, int(agg.cpu_fallback_all)])
    _write_targets_csv(Path(args.out), rows)
    print(f"derived targets for {len(rows)} tasks ({skipped} skipped) -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = ingest.parse_task_csv(args.data)
    values = _aligned_targets(dataset, _read_targets_csv(Path(args.targets)))
    cfg = TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )
    hidden = tuple(int(w) for w in args.hidden.split(","))
    models, details = pipeline.train_all(dataset, values, cfg, hidden=hidden, split_seed=args.seed)

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
        curves.mkdir(parents=True, exist_ok=True)
        for target, ev in report.per_target.items():
            np.savetxt(curves / f"roc_{target}.csv", ev.roc_points,
                       delimiter=",", header="fpr,tpr", comments="")
            np.savetxt(curves / f"pr_{target}.csv", ev.pr_points,
                       delimiter=",", header="recall,precision", comments="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    artifact = service.load_artifact(args.artifact)
    if args.features:
        doc = json.loads(args.features)
        response = service.predict_request(artifact, doc)
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    dataset = ingest.parse_task_csv(args.data)
    classes, _ = predict(artifact.models, dataset.records)
    with Path(args.out).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["TASK_ID"] + [ingest.CLASS_COLUMNS[t] for t in TARGET_NAMES])
        for rec, cls in zip(dataset.records, classes):
            d = cls.as_dict()
            writer.writerow([rec.task_id] + [d[t] for t in TARGET_NAMES])
    print(f"wrote predictions for {len(dataset)} tasks -> {args.out}")
    return 0


def _broker_inputs(args: argparse.Namespace, artifact) -> simsynth.BrokerInputs:
    bins = {t: artifact.models[t].bins for t in TARGET_NAMES}
    labeled, values = _load_labeled(args.data, args.targets, bins)
    jobs_by_task = None
    if args.jobs:
        jobs, _ = ingest.parse_job_csv(args.jobs)
        jobs_by_task = {}
        for job in jobs:
            jobs_by_task.setdefault(job.task_id, []).append(job)
    true_classes = classes_to_resource_classes({t: labeled.labels[t] for t in TARGET_NAMES})
    return simsynth.BrokerInputs(
        records=labeled.records,
        true_classes=true_classes,
        true_targets=values,
        bins=bins,
        jobs_by_task=jobs_by_task,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    artifact = service.load_artifact(_artifact_path(args.model_dir))
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
        out = Path(args.report_out)
        out.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        out.with_suffix(".txt").write_text(summary)
    return 0


def _artifact_path(model_dir: str) -> Path:
    path = Path(model_dir)
    if path.is_dir():
        return path / "artifact.rpa"
    return path


def cmd_serve(args: argparse.Namespace) -> int:
    artifact = service.load_artifact(args.artifact)
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
    p.add_argument("--n-tasks", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("derive", help="derive continuous targets from job profiles")
    p.add_argument("--jobs", required=True, help="job-profile CSV")
    p.add_argument("--out", required=True, help="targets CSV to write")
    p.add_argument("--margin", type=float, default=ResourceConfig.margin)
    p.add_argument("--min-ram", type=float, default=ResourceConfig.min_ram_count)
    p.add_argument("--all-jobs", action="store_true",
                   help="aggregate over all jobs instead of scout jobs")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("train", help="train the four classifiers and save an artifact")
    p.add_argument("--data", required=True, help="task CSV")
    p.add_argument("--targets", required=True, help="targets CSV (from derive or synth)")
    p.add_argument("--out", required=True, help="artifact file to write")
    p.add_argument("--learning-rate", type=float, default=5e-5)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=4)
    p.add_argument("--hidden", default="256,128,64")
    p.add_argument("--seed", type=int, default=0)
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
                   help="artifact file or directory containing artifact.rpa")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ml-latency", type=float, default=0.5)
    p.add_argument("--report-out", help="JSON report path (a .txt summary is written beside it)")
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
    except (service.ValidationError, ingest.SchemaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
