"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Training-dependent criteria share one trained
pipeline (10^4 synthetic tasks), built on first use.
"""

import json
import math
import threading
import time
import urllib.request
from contextlib import contextmanager

import numpy as np
import pytest

from respred.discretize import ResourceClasses
from respred.encode import embed_dim, encode
from respred.ingest import JobProfile
from respred.metrics import (
    ConfusionMatrix,
    per_class_prf,
    pipeline_metrics,
    pr_auc_micro,
    roc_auc_micro,
)
from respred.nnet import (
    Network,
    TrainConfig,
    class_weight_vector,
    forward,
    loss,
    loss_and_grads,
    make_dropout_masks,
    predict,
    _forward_cached,
)
from respred.pipeline import label_dataset, train_all
from respred.service import (
    PredictionService,
    load_artifact,
    make_server,
    save_artifact,
    write_artifact_unchecked,
)
from respred.simsynth import BrokerInputs, GeneratorSpec, SimConfig, compare, generate, simulate
from respred.targets import (
    ResourceConfig,
    derive_cpu_time,
    derive_io_intensity,
    derive_ram_count,
    derive_walltime,
)

TARGETS = ("RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME")


@contextmanager
def criterion(num, name, budget_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {num} took {elapsed:.1f}s > {budget_seconds}s"
    print(f"[criterion {num}] {name}: PASS ({elapsed:.2f}s)")


# shared trained pipeline (10^4 tasks); built on first use so criteria can
# run individually
_cache: dict = {}


def trained_pipeline():
    if "models" not in _cache:
        synth = generate(GeneratorSpec(seed=11, n_tasks=10_000))
        # paper hyperparameters except the learning rate, which is raised to
        # converge within the 50-epoch budget at desk scale (the published
        # 5e-5 is tuned for ~10^6-task epochs)
        cfg = TrainConfig(max_epochs=50, seed=100, learning_rate=1e-3)
        started = time.perf_counter()
        models, details = train_all(synth.dataset, synth.targets, cfg, split_seed=7)
        _cache.update({
            "synth": synth,
            "models": models,
            "details": details,
            "train_seconds": time.perf_counter() - started,
        })
    return _cache


def test_criterion_1_formula_oracles():
    with criterion(1, "formula oracles", budget_seconds=1.0):
        rng = np.random.default_rng(7)
        clamp_hits = {"ram_floor": 0, "cpu_zero": 0, "wall_low": 0, "wall_high": 0}
        for _ in range(1000):
            cfg = ResourceConfig(
                base_ram_count=rng.uniform(0, 500),
                min_ram_count=rng.uniform(100, 3000),
                margin=rng.uniform(0.5, 12),
                base_time=rng.uniform(0, 40_000),
                cpu_efficiency=rng.uniform(0.5, 1.0),
                cpu_safety_factor=rng.uniform(1.0, 2.0),
                walltime_C=rng.uniform(0.5, 8),
                walltime_P=rng.uniform(1, 20),
                min_time=rng.uniform(0, 5000),
                max_time=rng.uniform(10_000, 1e7),
            )
            start = rng.uniform(0, 1e6)
            job = JobProfile(
                task_id="t", max_pss=rng.uniform(0, 64000), start_time=start,
                end_time=start + rng.uniform(1, 1e5), core_power=rng.uniform(5, 30),
                n_events_job=int(rng.integers(1, 10**6)),
                input_bytes=rng.uniform(0, 1e12), output_bytes=rng.uniform(0, 1e12),
                core_count=int(rng.integers(1, 64)), is_scout=True,
            )

            ram = derive_ram_count(job, cfg)
            expected = max((job.max_pss - cfg.base_ram_count) / job.core_count * cfg.margin,
                           cfg.min_ram_count)
            assert ram == pytest.approx(expected, rel=1e-9)
            if expected == cfg.min_ram_count:
                clamp_hits["ram_floor"] += 1

            cpu = derive_cpu_time(job, cfg)
            active = max(0.0, job.end_time - job.start_time - cfg.base_time)
            expected = (active * job.core_power / job.n_events_job
                        * job.core_count * cfg.cpu_efficiency * cfg.cpu_safety_factor)
            assert cpu == pytest.approx(expected, rel=1e-9, abs=1e-12)
            if active == 0.0:
                clamp_hits["cpu_zero"] += 1

            io = derive_io_intensity(job)
            expected = (job.input_bytes + job.output_bytes) / (job.end_time - job.start_time)
            assert io == pytest.approx(expected, rel=1e-9)

            wall = derive_walltime(cpu, job.n_events_job, cfg)
            raw = cpu * job.n_events_job / (cfg.walltime_C * cfg.walltime_P * cfg.cpu_efficiency)
            raw += cfg.base_time
            expected = min(max(raw, cfg.min_time), cfg.max_time)
            assert wall == pytest.approx(expected, rel=1e-9)
            if raw < cfg.min_time:
                clamp_hits["wall_low"] += 1
            elif raw > cfg.max_time:
                clamp_hits["wall_high"] += 1

        assert all(count > 0 for count in clamp_hits.values()), clamp_hits


def test_criterion_2_embedding_formula():
    with criterion(2, "embedding-dimension formula", budget_seconds=1.0):
        for v in range(1, 10**6 + 1):
            expected = min(32, math.floor(math.log2(v)) + 1)
            if embed_dim(v) != expected:
                raise AssertionError(f"embed_dim({v}) = {embed_dim(v)} != {expected}")
        # cap onset: 2^31 is the last uncapped width, 2^32 the first capped
        assert embed_dim(2**31 - 1) == 31
        assert embed_dim(2**31) == 32
        assert embed_dim(2**32 - 1) == 32
        assert embed_dim(2**32) == 32
        assert embed_dim(2**32 + 1) == 32


def test_criterion_3_gradient_check():
    with criterion(3, "gradient check", budget_seconds=10.0):
        from respred.encode import CategoricalSpec, EncodedBatch, EncoderSpec, NumericSpec

        encoder = EncoderSpec(
            categorical=(
                CategoricalSpec("processing_type", {"<UNK>": 0, "a": 1, "b": 2}, 2),
                CategoricalSpec("framework", {"<UNK>": 0, "x": 1, "y": 2}, 2),
            ),
            numeric=(
                NumericSpec("n_events", "identity", 0.0, 1.0),
                NumericSpec("n_files", "identity", 0.0, 1.0),
            ),
        )
        rng = np.random.default_rng(42)
        net = Network(encoder, n_classes=3, hidden=(4, 3, 2), seed=7)
        batch = EncodedBatch(
            categorical_indices={
                "processing_type": rng.integers(0, 3, 6),
                "framework": rng.integers(0, 3, 6),
            },
            numeric_matrix=rng.standard_normal((6, 2)),
            labels=rng.integers(0, 3, 6),
            row_count=6,
        )
        cfg = TrainConfig()
        weights = class_weight_vector(batch.labels, 3)
        h = 1e-5

        for mode in ("train", "inference"):
            masks = (
                make_dropout_masks(net, 6, cfg.dropout_rates, np.random.default_rng(9))
                if mode == "train" else None
            )
            _, grads, _ = loss_and_grads(net, batch, cfg, weights, mode=mode, dropout_masks=masks)
            worst = 0.0
            for name, param in net.params.items():
                it = np.nditer(param, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + h
                    up = loss(forward(net, batch, mode=mode, dropout_masks=masks),
                              batch.labels, weights, net, cfg)
                    param[idx] = orig - h
                    down = loss(forward(net, batch, mode=mode, dropout_masks=masks),
                                batch.labels, weights, net, cfg)
                    param[idx] = orig
                    fd = (up - down) / (2 * h)
                    a = grads[name][idx]
                    worst = max(worst, abs(a - fd) / max(abs(a), 1e-8))
                    it.iternext()
            assert worst < 1e-4, f"{mode}: max relative error {worst}"


def test_criterion_4_training_sanity():
    cache = trained_pipeline()
    with criterion(4, "training sanity", budget_seconds=None):
        assert cache["train_seconds"] < 300, f"training took {cache['train_seconds']:.0f}s"
        for target in TARGETS:
            d = cache["details"][target]
            r = d.report
            assert len(r.val_accuracy) <= 50
            assert r.best_val_accuracy >= 0.90, (target, r.best_val_accuracy)
            assert d.test_accuracy >= d.majority_baseline + 0.10, (
                target, d.test_accuracy, d.majority_baseline)


def test_criterion_5_metric_oracles():
    with criterion(5, "metric oracles", budget_seconds=10.0):
        rng = np.random.default_rng(50)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            k = int(rng.integers(2, 6))
            y_true = rng.integers(0, k, n)
            y_pred = rng.integers(0, k, n)
            probs = np.round(rng.random((n, k)), 1)

            # per-class PRF vs per-sample counting
            report = per_class_prf(ConfusionMatrix.from_labels(y_true, y_pred, k))
            for c in range(k):
                tp = int(((y_true == c) & (y_pred == c)).sum())
                fp = int(((y_true != c) & (y_pred == c)).sum())
                fn = int(((y_true == c) & (y_pred != c)).sum())
                prec = tp / (tp + fp) if tp + fp else 0.0
                rec = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
                assert report.precision[c] == prec
                assert report.recall[c] == rec
                assert report.f1[c] == pytest.approx(f1, abs=1e-15)

            # AUCs vs brute force on the flattened one-vs-rest expansion
            scores = probs.ravel()
            onehot = np.zeros_like(probs)
            onehot[np.arange(n), y_true] = 1.0
            positives = onehot.ravel()

            pos = scores[positives == 1]
            neg = scores[positives == 0]
            pairwise = (
                (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
            ) / (len(pos) * len(neg))
            assert roc_auc_micro(probs, y_true) == pytest.approx(float(pairwise), abs=1e-12)

            n_pos = positives.sum()
            area, prev_recall = 0.0, 0.0
            for t in sorted(set(scores), reverse=True):
                tp = float(((scores >= t) & (positives == 1)).sum())
                pred_pos = float((scores >= t).sum())
                area += (tp / n_pos - prev_recall) * (tp / pred_pos)
                prev_recall = tp / n_pos
            assert pr_auc_micro(probs, y_true) == pytest.approx(area, abs=1e-12)

            # pipeline metrics vs per-sample counting
            preds = {t: rng.integers(0, 4, n) for t in TARGETS}
            trues = {t: rng.integers(0, 4, n) for t in TARGETS}
            pipe = pipeline_metrics(preds, trues)
            n_correct = sum(
                (preds[t] == trues[t]).astype(int) for t in TARGETS
            )
            assert pipe.exact_match_accuracy == (n_correct == 4).mean()
            for kk in (1, 2, 3, 4):
                assert pipe.at_least_k[kk] == (n_correct >= kk).mean()


def test_criterion_6_paper_arithmetic():
    with criterion(6, "pipeline arithmetic", budget_seconds=10.0):
        # per-model accuracies 80.5 / 85.8 / 93.9 / 83.9 percent -> 86.03%
        n = 1000
        counts = {"RAMCOUNT": 805, "CPUTIME": 858, "IOINTENSITY": 939, "WALLTIME": 839}
        trues = {t: np.zeros(n, dtype=int) for t in TARGETS}
        preds = {t: np.where(np.arange(n) < counts[t], 0, 1) for t in TARGETS}
        report = pipeline_metrics(preds, trues)
        mean_of_four = np.mean([0.805, 0.858, 0.939, 0.839])
        assert report.average_pipeline_accuracy == pytest.approx(mean_of_four, abs=1e-15)
        # equals the published 86.03% at its two-decimal precision
        assert abs(report.average_pipeline_accuracy * 100 - 86.03) <= 0.005 + 1e-12

        # published partial accuracies are monotone, and so are ours on
        # random instances
        published = [99.8, 97.9, 89.1, 57.4]
        assert all(a >= b for a, b in zip(published, published[1:]))
        rng = np.random.default_rng(60)
        for _ in range(100):
            m = int(rng.integers(1, 60))
            preds = {t: rng.integers(0, 3, m) for t in TARGETS}
            trues = {t: rng.integers(0, 3, m) for t in TARGETS}
            pipe = pipeline_metrics(preds, trues)
            ks = [pipe.at_least_k[k] for k in (1, 2, 3, 4)]
            assert ks[0] >= ks[1] >= ks[2] >= ks[3]
            assert pipe.exact_match_accuracy == ks[3]


def broker_inputs_from_cache(cache):
    synth = cache["synth"]
    bins = {t: cache["models"][t].bins for t in TARGETS}
    labeled = label_dataset(synth.dataset, synth.targets, bins)
    true_classes = [
        ResourceClasses(
            ram_class=int(labeled.labels["RAMCOUNT"][i]),
            cpu_class=int(labeled.labels["CPUTIME"][i]),
            io_class=int(labeled.labels["IOINTENSITY"][i]),
            wall_class=int(labeled.labels["WALLTIME"][i]),
        )
        for i in range(len(labeled))
    ]
    return BrokerInputs(
        records=labeled.records,
        true_classes=true_classes,
        true_targets=synth.targets,
        bins=bins,
        jobs_by_task=synth.jobs_by_task(),
        resource_config=GeneratorSpec().resource_config,
    )


def test_criterion_7_simulation():
    cache = trained_pipeline()
    with criterion(7, "brokerage simulation", budget_seconds=120.0):
        inputs = broker_inputs_from_cache(cache)
        cfg = SimConfig()  # default config; 10^4 tasks
        assert len(inputs.records) == 10_000

        scout = simulate(inputs, "scout", cfg)
        mean_wait = scout.mean_decision_hours
        assert 7.0 * 0.8 <= mean_wait <= 7.0 * 1.2, mean_wait
        tail = float((scout.decision_latency_hours > 150.0).mean())
        assert tail >= 0.005, tail

        # measured ml decision latency: one full four-model inference per task
        models = cache["models"]
        latencies = []
        for record in inputs.records[:200]:
            t0 = time.perf_counter()
            predict(models, [record])
            latencies.append(time.perf_counter() - t0)
        assert max(latencies) < 1.0, max(latencies)

        result = compare(inputs, cfg, equalize_allocations=True)
        expected = scout.mean_decision_hours - cfg.ml_latency / 3600.0
        assert result.turnaround_reduction_hours == pytest.approx(expected, rel=0.05)


def test_criterion_8_serving(tmp_path):
    cache = trained_pipeline()
    with criterion(8, "artifact and serving", budget_seconds=120.0):
        models = cache["models"]
        path_a = tmp_path / "a.rpa"
        path_b = tmp_path / "b.rpa"
        save_artifact(models, path_a, train_config=TrainConfig())
        artifact = load_artifact(path_a)
        write_artifact_unchecked(artifact, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

        svc = PredictionService(artifact)
        httpd = make_server(svc, "127.0.0.1:0")
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            rng = np.random.default_rng(80)
            idx = rng.choice(len(cache["synth"].dataset.records), size=100, replace=False)
            latencies = []
            for i in idx:
                record = cache["synth"].dataset.records[int(i)]
                doc = {
                    "TASK_ID": record.task_id,
                    "PROCESSINGTYPE": record.processing_type,
                    "FRAMEWORK": record.framework,
                    "NCORE": record.core_count,
                    "NINPUT": record.n_input,
                    "NFILES": record.n_files,
                    "NEVENTS": record.n_events,
                }
                req = urllib.request.Request(
                    base + "/predict", data=json.dumps(doc).encode(),
                    headers={"Content-Type": "application/json"},
                )
                t0 = time.perf_counter()
                with urllib.request.urlopen(req, timeout=10) as resp:
                    via_http = json.loads(resp.read().decode())
                latencies.append(time.perf_counter() - t0)
                in_process = svc.predict(doc)
                via_http.pop("inference_seconds")
                in_process.pop("inference_seconds")
                assert via_http == in_process
            p99 = float(np.percentile(latencies, 99))
            assert p99 < 1.0, p99
        finally:
            httpd.shutdown()
            httpd.server_close()


def test_predict_matches_inference_forward_on_trained_heads():
    # predict runs batch-norm-folded layers; forward normalizes with the running statistics
    cache = trained_pipeline()
    records = cache["synth"].dataset.records
    classes, probs = predict(cache["models"], records)
    for target, model in cache["models"].items():
        expected = forward(model.net, encode(records, model.encoder), mode="inference")
        assert np.abs(probs[target] - expected).max() <= 1e-12, target
        assert np.array_equal(probs[target].argmax(axis=1), expected.argmax(axis=1)), target
    assert len(classes) == len(records) == 10_000


def test_inference_forward_matches_unfolded_pass_on_trained_heads():
    # forward folds batch norm into the dense layers; _forward_cached normalizes with the
    # running statistics as the gradients see it
    cache = trained_pipeline()
    records = cache["synth"].dataset.records
    for target, model in cache["models"].items():
        batch = encode(records, model.encoder)
        folded = forward(model.net, batch, mode="inference")
        unfolded = _forward_cached(model.net, batch, "inference", None)[0]
        assert np.abs(folded - unfolded).max() <= 1e-12, target
        assert np.array_equal(folded.argmax(axis=1), unfolded.argmax(axis=1)), target
    assert len(records) == 10_000


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "pipeline determinism", budget_seconds=300.0):
        from respred.cli import main

        reports = []
        for run in ("r1", "r2"):
            root = tmp_path / run
            root.mkdir()
            assert main(["synth", "--out", str(root), "--n-tasks", "2000", "--seed", "5"]) == 0
            assert main([
                "train", "--data", str(root / "tasks.csv"),
                "--targets", str(root / "targets.csv"),
                "--out", str(root / "artifact.rpa"),
                "--learning-rate", "1e-3", "--max-epochs", "8", "--seed", "2",
            ]) == 0
            assert main([
                "evaluate", "--artifact", str(root / "artifact.rpa"),
                "--data", str(root / "tasks.csv"), "--targets", str(root / "targets.csv"),
                "--report-out", str(root / "report.json"),
                "--curves-dir", str(root / "curves"),
            ]) == 0
            reports.append(root)

        a, b = reports
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "tasks.csv").read_bytes() == (b / "tasks.csv").read_bytes()
        for curve in sorted((a / "curves").iterdir()):
            assert curve.read_bytes() == (b / "curves" / curve.name).read_bytes()
