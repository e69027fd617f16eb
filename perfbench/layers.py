"""Per-layer metrics derived from one traced run.

Spans are grouped by the measured region they fall in: ``bench.pass`` (one
timed pass of a batch workload), ``bench.step_replay`` (the fixed train
steps replayed phase by phase) and ``bench.inproc`` (serve's in-process
calls). ``_s`` totals are per pass; ``_ms`` and ``_us`` figures are medians
per call. Set-up calls (``generate``, ``load_artifact``, ``save_artifact``)
count wherever they ran. A layer that the workload never enters reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Iterable, Optional

from spans import Span, descendants, layer_self_seconds, self_times

LAYERS = ("ingest", "targets", "discretize", "encode", "nnet", "metrics", "simsynth", "service", "pipeline")
TARGETS = ("RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME")
REGIONS = ("bench.pass", "bench.step_replay", "bench.inproc")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def train_step_flops(input_width: int, hidden: Iterable[int], n_out: int, rows: int) -> float:
    """Multiply-adds of one train step, counted from the layer shapes.

    Each dense layer costs 2*rows*fan_in*fan_out flops forward and twice
    that backward (weight and input gradients); element-wise work is left
    out, so the figure is a lower bound on the work done.
    """
    widths = [input_width, *hidden, n_out]
    matmul = sum(a * b for a, b in zip(widths, widths[1:]))
    return 6.0 * rows * matmul


def layer_metrics(
    spans: list[Span],
    n_passes: int,
    flops_per_step: Optional[float] = None,
    http: Optional[dict] = None,
) -> dict[str, float]:
    """Every per-layer metric, in the units BENCHMARK.json declares."""
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.name in REGIONS]
    region: dict[str, list[Span]] = {name: [] for name in REGIONS}
    for root in roots:
        region[root.name].extend(descendants(spans, root.id))
    in_regions = [s for name in REGIONS for s in region[name]]
    passes = max(n_passes, 1)
    selfs = self_times(spans)

    def named(name: str, pool: Iterable[Span] = in_regions) -> list[Span]:
        return [s for s in pool if s.name == name]

    def per_pass(name: str) -> float:
        return sum(s.seconds for s in named(name)) / passes

    def median_ms(items: list[Span]) -> float:
        return _median([s.seconds * 1e3 for s in items])

    def parent_name(s: Span) -> str:
        return by_id[s.parent].name if s.parent in by_id else ""

    replay_roots = {r.id for r in roots if r.name == "bench.step_replay"}

    def phase(name: str) -> list[Span]:
        """Calls the step replay makes itself, not the ones nested in its train_step."""
        return [s for s in region["bench.step_replay"] if s.name == name and s.parent in replay_roots]

    training = [s for s in in_regions if s.name == "nnet.train_step" and parent_name(s) == "nnet.train"]
    step_ms = median_ms(training)
    forward_train_ms = median_ms(phase("nnet.forward"))
    derive = [s for s in in_regions if s.name == "targets.derive" and parent_name(s) == "bench.derive"]

    out: dict[str, float] = {
        "ingest.parse_tasks_s": per_pass("ingest.parse_tasks"),
        "ingest.parse_jobs_s": per_pass("ingest.parse_jobs"),
        "ingest.split_s": per_pass("ingest.split"),
        "targets.derive_s": sum(s.seconds for s in derive) / passes,
        "targets.tasks_derived": len(derive) / passes,
        "discretize.fit_bins_s": per_pass("discretize.fit_bins"),
        "discretize.assign_s": per_pass("discretize.assign"),
        "encode.fit_s": per_pass("encode.fit"),
        "encode.batch_s": per_pass("encode.batch"),
        "encode.one_us": median_ms(named("encode.one")) * 1e3,
        "nnet.epochs": len([s for s in in_regions if s.name == "nnet.forward"
                            and parent_name(s) == "nnet.train"]) / passes,
        "nnet.steps": len(training) / passes,
        "nnet.train_step_ms": step_ms,
        "nnet.replay_step_ms": median_ms(phase("nnet.train_step")),
        "nnet.forward_train_ms": forward_train_ms,
        "nnet.backward_ms": max(median_ms(phase("nnet.loss_and_grads")) - forward_train_ms, 0.0),
        "nnet.adam_ms": median_ms(phase("nnet.adam")),
        "nnet.dropout_ms": median_ms(phase("nnet.dropout")),
        "nnet.val_forward_ms": median_ms([s for s in in_regions if s.name == "nnet.forward"
                                          and parent_name(s) == "nnet.train"]),
        "nnet.train_gflops": (flops_per_step / (step_ms * 1e6)) if flops_per_step and step_ms else 0.0,
        "nnet.predict_batch_s": median_ms(named("nnet.predict_batch")) / 1e3,
        "nnet.predict_one_us": median_ms(named("nnet.predict_one")) * 1e3,
        "metrics.evaluate_s": sum(selfs[s.id] for s in named("metrics.evaluate")) / 1e9 / passes,
        "simsynth.scout_sim_s": per_pass("simsynth.scout_sim"),
        "simsynth.ml_sim_s": per_pass("simsynth.ml_sim"),
        "simsynth.generate_s": sum(s.seconds for s in named("simsynth.generate", spans)),
        "service.predict_request_us": median_ms(named("service.predict_request")) * 1e3,
        "service.feedback_us": median_ms(named("service.feedback")) * 1e3,
        "service.load_artifact_ms": median_ms(named("service.load_artifact", spans)),
        "service.save_artifact_ms": median_ms(named("service.save_artifact", spans)),
    }
    http = http or {}
    in_process_ms = out["service.predict_request_us"] / 1e3
    out["service.http_overhead_ms"] = (
        http["predict_p50_ms"] - in_process_ms if http.get("predict_p50_ms") and in_process_ms else 0.0
    )
    for key in ("feedback_p50_ms", "send_lag_ms", "requests_sent", "requests_ok",
                "requests_4xx", "requests_5xx", "conn_errors"):
        out[f"service.{key}"] = float(http.get(key, 0.0))

    per_target: dict[str, float] = defaultdict(float)
    for s in named("pipeline.train_target"):
        per_target[s.attr] += s.seconds / passes
    for t in TARGETS:
        out[f"pipeline.train_target_s.{t}"] = per_target.get(t, 0.0)

    pass_spans = [s for s in roots if s.name == "bench.pass"]
    layer_self = layer_self_seconds(region["bench.pass"], selfs)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / passes
    pass_total = sum(r.seconds for r in pass_spans)
    covered = sum(v for k, v in layer_self.items() if k in LAYERS)
    out["trace.coverage"] = covered / pass_total if pass_total else 0.0
    out["trace.pass_s"] = _median([r.seconds for r in pass_spans])
    out["trace.spans"] = float(len(spans))
    return out
