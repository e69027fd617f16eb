"""respred benchmark runner.

    python3 perfbench/run.py --workload {train,serve,replay} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all          # every workload, untraced then traced

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. A run prints its figures under the workload's own
names, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Each run also writes a result file (machine block included) under
``perfbench/out/runs`` and, when traced, its spans under
``perfbench/out/traces``. ``perfbench/compare.py`` compares two sets of
result files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("train", "serve", "replay")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int, default=10_000, help="generated tasks (smaller for smoke runs)")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="directory for results and traces")
    return parser.parse_args(argv)


def finite_metrics(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def run_one(args: argparse.Namespace, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from machine import machine_block
    from spans import Tracer, instrument

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = args.out / "work" / run_id
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(run_id) if args.trace else None
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, n_tasks=args.tasks, work=work, tracer=tracer)
    try:
        if tracer:
            with instrument(tracer):
                outcome = workloads.WORKLOADS[args.workload](ctx)
        else:
            outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        values = layers.layer_metrics(tracer.spans, outcome.passes, outcome.flops_per_step, outcome.http)
        metrics = finite_metrics(values, spec["per_layer"])
        trace_path = args.out / "traces" / f"{run_id}.jsonl"
        tracer.write(trace_path)
    else:
        metrics = finite_metrics(outcome.e2e, spec["end_to_end"])
        trace_path = None

    failed_frac = outcome.failed / outcome.attempted
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tasks": args.tasks, "machine": machine_block(),
        "correct": outcome.failed == 0, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": metrics,
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in outcome.reported.items()},
        "failed_frac": failed_frac, "detail": outcome.detail, "problems": outcome.problems,
        "trace_file": str(trace_path) if trace_path else None,
    }
    result_path = args.out / "runs" / f"{run_id}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for name, (value, unit) in outcome.reported.items():
        print(f"{args.workload:<7} {name:<28} {value:14.6g} {unit}")
    print(f"{args.workload:<7} {'failed_frac':<28} {failed_frac:14.6g} ratio")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"result: {result_path}")
    print(json.dumps({"correct": result["correct"], "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload untraced then traced, each in a fresh process; prints every metric."""
    status = 0
    for workload in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--tasks", str(args.tasks),
                   "--out", str(args.out)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} trace={trace} failed:\n{done.stderr}", file=sys.stderr)
                status = 1
                break
            path = next(line[len("result: "):] for line in done.stdout.splitlines() if line.startswith("result: "))
            results[trace] = json.loads(Path(path).read_text())
        if len(results) < 2:
            continue
        plain, traced = results[0], results[1]
        status |= not (plain["correct"] and traced["correct"])
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, {args.tasks} tasks)")
        for name, m in plain["reported"].items():
            print(f"  {name:<34} {m['value']:14.6g} {m['unit']}")
        print(f"  {'failed_frac':<34} {plain['failed_frac']:14.6g} ratio")
        for name, m in plain["metrics"].items():
            print(f"  e2e {name:<30} {m['value']:14.6g} {m['unit']}")
        for name, m in traced["metrics"].items():
            print(f"  layer {name:<28} {m['value']:14.6g} {m['unit']}")
        untraced_ms = plain["metrics"]["latency_p50_ms"]["value"]
        traced_ms = traced_metrics_latency(traced)
        print(f"  tracing overhead (latency_p50_ms, traced - untraced) {traced_ms - untraced_ms:+.6g} ms "
              f"({(traced_ms - untraced_ms) / untraced_ms:+.2%})")
    return status


def traced_metrics_latency(traced: dict) -> float:
    """The traced run's latency_p50_ms: pass time for batch workloads, /predict p50 for serve."""
    reported = traced["reported"]
    for key in ("train_s", "replay_s"):
        if key in reported:
            return reported[key]["value"] * 1e3
    return reported["predict_p50_ms"]["value"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "respred" / "__init__.py").is_file():
        print(f"error: no respred sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
