"""Artifact persistence, prediction/feedback endpoints and the HTTP layer."""

import hashlib
import http.client
import io
import json
import re
import socket
import struct
import threading
import time
import tracemalloc
import urllib.parse
import urllib.request
import urllib.error

import numpy as np
import pytest

from respred import nnet, service
from respred.discretize import assign_class
from respred.encode import fit_encoder
from respred.ingest import SplitSpec, stratified_split
from respred.nnet import Network, TargetModel, TrainConfig, predict
from respred.pipeline import fit_all_bins, label_dataset
from respred.service import (
    MAX_BODY_BYTES,
    ArtifactVersionError,
    CorruptArtifactError,
    CorruptFeedbackLogError,
    ModelArtifact,
    NotServableError,
    PredictionService,
    ValidationError,
    load_artifact,
    make_server,
    parse_bind,
    predict_request,
    save_artifact,
    write_artifact_unchecked,
)
from respred.simsynth import GeneratorSpec, generate

TARGETS = ("RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME")


@pytest.fixture(scope="module")
def models():
    synth = generate(GeneratorSpec(seed=21, n_tasks=400))
    bins = fit_all_bins(synth.targets)
    labeled = label_dataset(synth.dataset, synth.targets, bins)
    split = stratified_split(labeled, SplitSpec(seed=1))
    encoder = fit_encoder(split.train)
    return {
        t: TargetModel(
            target=t,
            net=Network(encoder, bins[t].n_classes, hidden=(16, 8, 4), seed=i),
            encoder=encoder,
            bins=bins[t],
            train_summary={"stop_reason": "max_epochs", "epochs": 1},
        )
        for i, t in enumerate(TARGETS)
    }, synth


def sample_request(record):
    return {
        "TASK_ID": record.task_id,
        "PROCESSINGTYPE": record.processing_type,
        "FRAMEWORK": record.framework,
        "NCORE": record.core_count,
        "NINPUT": record.n_input,
        "NFILES": record.n_files,
        "NEVENTS": record.n_events,
    }


# --- artifact round trip

def test_artifact_round_trip_preserves_predictions(models, tmp_path):
    models, synth = models
    path = tmp_path / "artifact.rpa"
    save_artifact(models, path, train_config=TrainConfig())
    loaded = load_artifact(path)

    records = synth.dataset.records[:50]
    before_classes, before_probs = predict(models, records)
    after_classes, after_probs = predict(loaded.models, records)
    assert before_classes == after_classes
    for t in TARGETS:
        assert np.array_equal(before_probs[t], after_probs[t])


def test_artifact_round_trip_bit_identical(models, tmp_path):
    models, _ = models
    path_a = tmp_path / "a.rpa"
    path_b = tmp_path / "b.rpa"
    save_artifact(models, path_a, train_config=TrainConfig())
    write_artifact_unchecked(load_artifact(path_a), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_artifact_bad_magic(tmp_path):
    path = tmp_path / "bad.rpa"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CorruptArtifactError):
        load_artifact(path)


def test_artifact_truncated(models, tmp_path):
    models, _ = models
    path = tmp_path / "t.rpa"
    save_artifact(models, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CorruptArtifactError):
        load_artifact(path)


def test_artifact_version_mismatch(models, tmp_path):
    models, _ = models
    path = tmp_path / "v.rpa"
    save_artifact(models, path)
    raw = bytearray(path.read_bytes())
    for version in (99, 1):
        raw[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactVersionError):
            load_artifact(path)


def rewrite_header_text(path, edit):
    """Pass an artifact's header text through ``edit``, which returns the new text; the weight blocks stay."""
    raw = path.read_bytes()
    header_len = struct.unpack("<Q", raw[8:16])[0]
    new = edit(raw[16:16 + header_len].decode()).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + header_len:])


def rewrite_header(path, edit):
    """Pass an artifact's JSON header through ``edit``, which changes it in place."""
    def through(text):
        header = json.loads(text)
        edit(header)
        return json.dumps(header)

    rewrite_header_text(path, through)


@pytest.mark.parametrize("keys", [
    ("encoder",),
    ("targets",),
    ("created_at",),
    ("encoder", "categorical", 0, "embed_dim"),
    ("targets", "RAMCOUNT", "bins"),
    ("targets", "RAMCOUNT", "n_classes"),
    ("targets", "RAMCOUNT", "hidden"),
    ("targets", "RAMCOUNT", "params"),
    ("targets", "RAMCOUNT", "params", 0, "offset"),
])
def test_artifact_header_missing_key_is_corrupt(models, tmp_path, keys):
    models, _ = models
    path = tmp_path / "h.rpa"
    save_artifact(models, path)

    def drop(header):
        node = header
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]

    rewrite_header(path, drop)
    with pytest.raises(CorruptArtifactError, match=keys[-1] if isinstance(keys[-1], str) else ""):
        load_artifact(path)


def test_artifact_missing_tensor_is_corrupt(models, tmp_path):
    # without the check the head would serve its random initial weights
    models, _ = models
    path = tmp_path / "m.rpa"
    save_artifact(models, path)
    rewrite_header(path, lambda header: header["targets"]["RAMCOUNT"]["params"].pop(0))
    with pytest.raises(CorruptArtifactError, match="dense0:W"):
        load_artifact(path)


@pytest.mark.parametrize("index", [-1, "size"])
def test_artifact_vocabulary_index_outside_its_range_is_corrupt(models, tmp_path, index):
    # -1 would read the last embedding row for the token; the size would fail at predict time
    models, synth = models
    path = tmp_path / "vocab.rpa"
    save_artifact(models, path)

    def remap(header):
        vocab = header["encoder"]["categorical"][1]["vocabulary"]
        token = next(t for t, i in vocab.items() if i == 1)
        vocab[token] = len(vocab) if index == "size" else index

    rewrite_header(path, remap)
    name = models["RAMCOUNT"].encoder.categorical[1].name
    with pytest.raises(CorruptArtifactError, match=f"vocabulary of {name}"):
        load_artifact(path)


def test_cli_reports_malformed_header_in_one_line(models, tmp_path, capsys):
    from respred.cli import main

    models, synth = models
    path = tmp_path / "c.rpa"
    save_artifact(models, path)
    rewrite_header(path, lambda header: header.pop("encoder"))
    features = json.dumps({k: v for k, v in sample_request(synth.dataset.records[0]).items()
                           if k != "TASK_ID"})
    assert main(["predict", "--artifact", str(path), "--features", features]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "encoder" in err


def test_artifact_requires_one_shared_encoder(models, tmp_path):
    models, synth = models
    other = fit_encoder(synth.dataset.subset(range(100)))
    mixed = dict(models)
    mixed["WALLTIME"] = TargetModel(
        target="WALLTIME",
        net=Network(other, models["WALLTIME"].bins.n_classes, hidden=(16, 8, 4)),
        encoder=other,
        bins=models["WALLTIME"].bins,
    )
    with pytest.raises(ValueError, match="share one encoder"):
        save_artifact(mixed, tmp_path / "mixed.rpa")


def test_save_refuses_a_set_whose_heads_differ_in_layer_widths(models, tmp_path):
    # a model set is one stack: the kernel has no per-head layer widths
    models, _ = models
    mixed = dict(models)
    wall = models["WALLTIME"]
    mixed["WALLTIME"] = TargetModel(target="WALLTIME", net=Network(wall.encoder, wall.bins.n_classes, hidden=(16, 8)),
                                    encoder=wall.encoder, bins=wall.bins)
    with pytest.raises(ValueError, match=r"^WALLTIME: .*one layer shape.*\(16, 8\)"):
        save_artifact(mixed, tmp_path / "mixed.rpa")
    assert not (tmp_path / "mixed.rpa").exists()


def test_load_refuses_a_header_whose_heads_differ_in_layer_widths(models, tmp_path):
    # WALLTIME loses its last hidden layer: every tensor it names exists, but the set is no one stack
    models, _ = models
    path = tmp_path / "narrow.rpa"
    save_artifact(models, path)

    def narrow(header):
        entry = header["targets"]["WALLTIME"]
        entry["hidden"] = entry["hidden"][:-1]
        last = f"dense{len(entry['hidden'])}:"
        for section in ("params", "running"):
            entry[section] = [item for item in entry[section] if not item["name"].startswith(last)]
        out_w = next(item for item in entry["params"] if item["name"] == "out:W")
        out_w["shape"][0], out_w["offset"] = entry["hidden"][-1], 0

    rewrite_header(path, narrow)
    with pytest.raises(CorruptArtifactError, match=r"narrow\.rpa: WALLTIME: .*one layer shape"):
        load_artifact(path)


def _targets_as_a_list(text):
    header = json.loads(text)
    header["targets"] = list(header["targets"].values())
    return json.dumps(header)


@pytest.mark.parametrize("edit", [
    pytest.param(_targets_as_a_list, id="targets-a-list"),
    pytest.param(lambda text: text.replace('"created_at":"x"', '"created_at":' + "[" * 20_000 + "]" * 20_000),
                 id="nested-20000-deep"),
    pytest.param(lambda text: text.replace('"created_at":"x"', '"created_at":' + "1" * 5_000),
                 id="int-of-5000-digits"),
])
def test_header_json_the_loader_cannot_take_is_corrupt(models, tmp_path, capsys, edit):
    from respred.cli import main

    models, synth = models
    path = tmp_path / "j.rpa"
    save_artifact(models, path, created_at="x")
    rewrite_header_text(path, edit)
    with pytest.raises(CorruptArtifactError, match="j.rpa"):
        load_artifact(path)
    features = json.dumps(sample_request(synth.dataset.records[0]))
    assert main(["predict", "--artifact", str(path), "--features", features]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


def test_artifact_missing_target_not_servable(models, tmp_path):
    models, _ = models
    partial = {t: m for t, m in models.items() if t != "WALLTIME"}
    with pytest.raises(NotServableError, match="WALLTIME"):
        save_artifact(partial, tmp_path / "p.rpa")
    artifact = ModelArtifact(models=partial, created_at="2026-01-01T00:00:00+00:00",
                             config_fingerprint="")
    path = tmp_path / "p2.rpa"
    write_artifact_unchecked(artifact, path)
    with pytest.raises(NotServableError):
        load_artifact(path)


# --- prediction documents

def test_predict_request_shape(models):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    response = predict_request(artifact, sample_request(synth.dataset.records[0]))
    preds = response["predictions"]
    assert set(preds) == set(TARGETS)
    assert len(preds["RAMCOUNT"]["probabilities"]) == 4
    assert len(preds["CPUTIME"]["probabilities"]) == 5
    assert len(preds["IOINTENSITY"]["probabilities"]) == 2
    assert len(preds["WALLTIME"]["probabilities"]) == 5
    for t in TARGETS:
        assert 0 <= preds[t]["class"] < len(preds[t]["probabilities"])
        assert preds[t]["allocation"] > 0
    assert response["inference_seconds"] >= 0


def test_predict_requests_on_one_artifact_share_its_stack(models, monkeypatch):
    # an artifact's models do not change, so it folds them once, on its first request
    models, synth = models
    made = []
    stack = nnet._stack
    monkeypatch.setattr(nnet, "_stack", lambda *args: made.append(stack(*args)) or made[-1])
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    docs = [sample_request(record) for record in synth.dataset.records[:2]]
    answers = [predict_request(artifact, doc) for doc in docs]
    assert len(made) == 1 and artifact.stack is made[0]
    for doc, answer in zip(docs, answers):
        assert answer["predictions"] == predict_request(
            ModelArtifact(models=models, created_at="", config_fingerprint=""), doc)["predictions"]


def test_predict_request_missing_feature(models):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    doc = sample_request(synth.dataset.records[0])
    del doc["NEVENTS"]
    with pytest.raises(ValidationError, match="NEVENTS") as err:
        predict_request(artifact, doc)
    assert err.value.field == "NEVENTS"


@pytest.mark.parametrize("name, value", [
    ("NINPUT", -1),
    ("NEVENTS", -3),
    ("NCORE", 0),
    ("NINPUT", 3.7),
    ("NEVENTS", True),
    ("NFILES", "many"),
    ("NCORE", [8]),
    pytest.param("NEVENTS", 10 ** 400, id="NEVENTS-huge"),
])
def test_predict_request_rejects_bad_feature(models, name, value):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    doc = sample_request(synth.dataset.records[0])
    doc[name] = value
    with pytest.raises(ValidationError) as err:
        predict_request(artifact, doc)
    assert err.value.field == name


@pytest.mark.parametrize("name, value", [
    ("PROCESSINGTYPE", {"a": 1}),
    ("FRAMEWORK", ["x"]),
    ("FRAMEWORK", 5),
    ("TASK_ID", 12),
    ("TASK_ID", None),
])
def test_predict_request_refuses_non_string_field(models, name, value):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    doc = sample_request(synth.dataset.records[0])
    doc[name] = value
    with pytest.raises(ValidationError, match=name) as err:
        predict_request(artifact, doc)
    assert err.value.field == name


def test_predict_request_task_id_optional(models):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    doc = sample_request(synth.dataset.records[0])
    del doc["TASK_ID"]
    assert predict_request(artifact, doc)["task_id"] == ""


def test_predict_request_accepts_integral_spellings(models):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    doc = sample_request(synth.dataset.records[0])
    expected = predict_request(artifact, doc)["predictions"]
    doc["NCORE"] = float(doc["NCORE"])
    doc["NEVENTS"] = str(doc["NEVENTS"])
    assert predict_request(artifact, doc)["predictions"] == expected


def test_predict_request_repeatable(models):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    doc = sample_request(synth.dataset.records[3])
    a = predict_request(artifact, doc)
    b = predict_request(artifact, doc)
    a.pop("inference_seconds")
    b.pop("inference_seconds")
    assert a == b


def test_predict_probabilities_9_significant_digits(models):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    response = predict_request(artifact, sample_request(synth.dataset.records[1]))
    for t in TARGETS:
        for p in response["predictions"][t]["probabilities"]:
            assert p == float(f"{p:.9g}")


# --- feedback

def actual_targets_for(synth, i):
    return {t: float(synth.targets[t][i]) for t in TARGETS}


def test_feedback_agreement_counters(models, tmp_path):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    svc = PredictionService(artifact, feedback_log=tmp_path / "fb.jsonl")

    record = synth.dataset.records[0]
    response = svc.predict(sample_request(record))
    predicted = {t: response["predictions"][t]["class"] for t in TARGETS}

    ack = svc.feedback({
        "task_id": record.task_id,
        "predicted_classes": predicted,
        "actual_targets": actual_targets_for(synth, 0),
    })
    assert ack["status"] == "recorded"
    assert ack["known_task"]
    summary = svc.metrics_summary()
    for t in TARGETS:
        agree = predicted[t] == assign_class(synth.targets[t][0], models[t].bins)
        assert summary["agree"][t] == (1 if agree else 0)
        assert summary["disagree"][t] == (0 if agree else 1)


def test_feedback_mismatch_increments_disagree(models, tmp_path):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    svc = PredictionService(artifact, feedback_log=tmp_path / "fb2.jsonl")
    actual = actual_targets_for(synth, 2)
    truth_ram = assign_class(actual["RAMCOUNT"], models["RAMCOUNT"].bins)
    wrong_ram = (truth_ram + 1) % models["RAMCOUNT"].bins.n_classes
    svc.feedback({
        "task_id": "never-predicted",
        "predicted_classes": {
            "RAMCOUNT": wrong_ram,
            "CPUTIME": assign_class(actual["CPUTIME"], models["CPUTIME"].bins),
            "IOINTENSITY": assign_class(actual["IOINTENSITY"], models["IOINTENSITY"].bins),
            "WALLTIME": assign_class(actual["WALLTIME"], models["WALLTIME"].bins),
        },
        "actual_targets": actual,
    })
    summary = svc.metrics_summary()
    assert summary["agree"]["RAMCOUNT"] == 0
    assert summary["disagree"]["RAMCOUNT"] == 1
    assert summary["agree"]["CPUTIME"] == 1
    assert summary["n_unknown_task"] == 1


def test_feedback_agreement_matches_recount_oracle(models, tmp_path):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    log_path = tmp_path / "fb3.jsonl"
    svc = PredictionService(artifact, feedback_log=log_path)
    rng = np.random.default_rng(31)

    for i in range(100):
        predicted = {
            t: int(rng.integers(0, models[t].bins.n_classes)) for t in TARGETS
        }
        svc.feedback({
            "task_id": f"task{i}",
            "predicted_classes": predicted,
            "actual_targets": actual_targets_for(synth, i),
        })

    # brute-force recount from the log itself
    expected = {t: 0 for t in TARGETS}
    lines = log_path.read_text().splitlines()
    assert len(lines) == 100
    for line in lines:
        entry = json.loads(line)
        for t in TARGETS:
            actual_class = assign_class(entry["actual_targets"][t], models[t].bins)
            if actual_class == entry["predicted_classes"][t]:
                expected[t] += 1
    summary = svc.metrics_summary()
    for t in TARGETS:
        assert summary["agree"][t] == expected[t]
        assert summary["agree"][t] + summary["disagree"][t] == 100

    # replaying the log reconstructs the same counters
    svc2 = PredictionService(artifact, feedback_log=log_path)
    replayed = svc2.metrics_summary()
    assert replayed["agree"] == summary["agree"]
    assert replayed["disagree"] == summary["disagree"]


def test_feedback_malformed_rejected(models, tmp_path):
    models, _ = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    svc = PredictionService(artifact)
    with pytest.raises(ValidationError):
        svc.feedback({"task_id": "x"})
    with pytest.raises(ValidationError, match="RAMCOUNT"):
        svc.feedback({
            "task_id": "x",
            "predicted_classes": {t: 0 for t in TARGETS},
            "actual_targets": {"RAMCOUNT": "not-a-number", "CPUTIME": 1,
                               "IOINTENSITY": 1, "WALLTIME": 1},
        })


MISSING = object()


@pytest.mark.parametrize("section, target, value", [
    ("actual_targets", "WALLTIME", MISSING),
    ("actual_targets", "WALLTIME", float("nan")),
    ("actual_targets", "CPUTIME", float("inf")),
    ("predicted_classes", "IOINTENSITY", 99),
    ("predicted_classes", "RAMCOUNT", -1),
    ("predicted_classes", "CPUTIME", 1.0),
    ("predicted_classes", "RAMCOUNT", True),
    ("actual_targets", "RAMCOUNT", True),
    ("actual_targets", "IOINTENSITY", "1e3"),
])
def test_feedback_is_all_or_nothing(models, tmp_path, section, target, value):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    log_path = tmp_path / "fb.jsonl"
    svc = PredictionService(artifact, feedback_log=log_path)
    doc = {
        "task_id": "t0",
        "predicted_classes": {t: 0 for t in TARGETS},
        "actual_targets": actual_targets_for(synth, 0),
    }
    if value is MISSING:
        del doc[section][target]
    else:
        doc[section][target] = value
    with pytest.raises(ValidationError, match=target) as err:
        svc.feedback(doc)
    assert err.value.field == target
    summary = svc.metrics_summary()
    assert summary["n_records"] == 0
    assert all(summary["agree"][t] == summary["disagree"][t] == 0 for t in TARGETS)
    assert not log_path.exists()


@pytest.mark.parametrize("timestamp", [12, None, ["2025-01-01"], {"t": 1}])
def test_feedback_non_string_timestamp_is_refused(models, tmp_path, timestamp):
    models, synth = models
    log_path = tmp_path / "fb.jsonl"
    svc = PredictionService(ModelArtifact(models=models, created_at="", config_fingerprint=""),
                            feedback_log=log_path)
    with pytest.raises(ValidationError, match="timestamp") as err:
        svc.feedback({
            "task_id": "t0",
            "predicted_classes": {t: 0 for t in TARGETS},
            "actual_targets": actual_targets_for(synth, 0),
            "timestamp": timestamp,
        })
    assert err.value.field == "timestamp"
    assert svc.metrics_summary()["n_records"] == 0
    assert not log_path.exists()


def test_feedback_log_replays_without_artifact(models, tmp_path):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    log_path = tmp_path / "fb.jsonl"
    svc = PredictionService(artifact, feedback_log=log_path)
    for i in range(10):
        svc.feedback({
            "task_id": f"task{i}",
            "predicted_classes": {t: i % 2 for t in TARGETS},
            "actual_targets": actual_targets_for(synth, i),
        })
    replayed = PredictionService(None, feedback_log=log_path).metrics_summary()
    assert replayed == svc.metrics_summary()


def test_feedback_log_replay_keeps_known_tasks(models, tmp_path):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    log_path = tmp_path / "fb.jsonl"
    svc = PredictionService(artifact, feedback_log=log_path)
    record = synth.dataset.records[0]
    response = svc.predict(sample_request(record))
    svc.feedback({
        "task_id": record.task_id,
        "predicted_classes": {t: response["predictions"][t]["class"] for t in TARGETS},
        "actual_targets": actual_targets_for(synth, 0),
    })
    assert svc.metrics_summary()["n_unknown_task"] == 0
    restarted = PredictionService(artifact, feedback_log=log_path)
    assert restarted.metrics_summary()["n_unknown_task"] == 0
    assert restarted.metrics_summary() == svc.metrics_summary()


def test_feedback_log_lines_without_known_task_replay_as_unknown(models, tmp_path):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    log_path = tmp_path / "fb.jsonl"
    svc = PredictionService(artifact, feedback_log=log_path)
    record = synth.dataset.records[0]
    response = svc.predict(sample_request(record))
    svc.feedback({
        "task_id": record.task_id,
        "predicted_classes": {t: response["predictions"][t]["class"] for t in TARGETS},
        "actual_targets": actual_targets_for(synth, 0),
    })
    entry = json.loads(log_path.read_text())
    assert entry.pop("known_task") is True
    log_path.write_text(json.dumps(entry) + "\n")
    assert PredictionService(None, feedback_log=log_path).metrics_summary()["n_unknown_task"] == 1


@pytest.mark.parametrize("bad_line", [
    "{}",                                   # no classes at all
    '{"task_id": "a", "pred',               # torn by a crash mid-write
    "[1, 2]",                               # not an object
    '{"predicted_classes": {}, "actual_classes": {}}',
    pytest.param("[" * 20_000 + "]" * 20_000, id="nested-20000-deep"),
])
def test_feedback_log_malformed_line_names_file_and_line(models, tmp_path, bad_line):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    log_path = tmp_path / "fb.jsonl"
    svc = PredictionService(artifact, feedback_log=log_path)
    svc.feedback({
        "task_id": "task0",
        "predicted_classes": {t: 0 for t in TARGETS},
        "actual_targets": actual_targets_for(synth, 0),
    })
    with log_path.open("a") as fh:
        fh.write("\n" + bad_line + "\n")      # the bad line is line 3
    with pytest.raises(CorruptFeedbackLogError, match=r"fb\.jsonl line 3\b"):
        PredictionService(None, feedback_log=log_path)
    # the good line before it changes no counter either
    before = svc.metrics_summary()
    with pytest.raises(CorruptFeedbackLogError):
        svc._replay_log()
    assert svc.metrics_summary() == before


def test_predicted_ids_are_bounded(models, monkeypatch):
    # only the most recently predicted MAX_TRACKED_TASKS ids count as known
    models, synth = models
    monkeypatch.setattr(service, "MAX_TRACKED_TASKS", 2, raising=False)
    svc = PredictionService(ModelArtifact(models=models, created_at="", config_fingerprint=""))
    # record 0 is predicted again after record 1, so record 1 is the one dropped
    responses = {i: svc.predict(sample_request(synth.dataset.records[i])) for i in (0, 1, 0, 2)}
    known = {
        i: svc.feedback({
            "task_id": response["task_id"],
            "predicted_classes": {t: response["predictions"][t]["class"] for t in TARGETS},
            "actual_targets": actual_targets_for(synth, i),
        })["known_task"]
        for i, response in responses.items()
    }
    assert known == {0: True, 1: False, 2: True}
    assert len(svc._predicted_ids) == 2


def test_predicted_id_window_does_not_grow_with_id_length(models):
    # the window holds a fixed-size digest per id, not the id itself
    models, synth = models
    svc = PredictionService(ModelArtifact(models=models, created_at="", config_fingerprint=""))
    doc = sample_request(synth.dataset.records[0])
    svc.predict(doc)        # folds the heads before memory is traced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20):
            svc.predict({**doc, "TASK_ID": f"{i}-" + "x" * (256 << 10)})
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(svc._predicted_ids) == 21
    assert grown < 256 << 10, grown


@pytest.mark.parametrize("constant, value", [
    ("dropout_rates", (0.5, 0.3, 0.3)),
    ("adam_beta1", 0.8),
    ("adam_beta2", 0.99),
    ("adam_eps", 1e-7),
    ("bn_momentum", 0.9),
])
def test_config_fingerprint_covers_recipe_constants(monkeypatch, constant, value):
    # the constants are not in TrainConfig's repr, yet they change what training does
    cfg = TrainConfig(seed=3)
    before = service.config_fingerprint(cfg)
    monkeypatch.setattr(TrainConfig, constant, value)
    assert service.config_fingerprint(cfg) != before
    assert service.config_fingerprint(TrainConfig(seed=4)) != service.config_fingerprint(cfg)


# --- http layer

def http_json(url, payload=None):
    if payload is None:
        req = urllib.request.Request(url)
    else:
        req = urllib.request.Request(
            url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
        )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


@pytest.fixture()
def server(models):
    models, synth = models
    artifact = ModelArtifact(models=models, created_at="", config_fingerprint="")
    svc = PredictionService(artifact)
    httpd = make_server(svc, "127.0.0.1:0")
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}", svc, synth
    httpd.shutdown()
    httpd.server_close()


def test_http_health_and_metrics(server):
    base, _, _ = server
    status, doc = http_json(base + "/health")
    assert status == 200 and doc["status"] == "ok"
    status, doc = http_json(base + "/metrics-summary")
    assert status == 200 and doc["n_records"] == 0


def test_health_names_the_artifact_by_its_file_digest(models, tmp_path):
    models, _ = models
    path = tmp_path / "model.rpaf"
    saved = save_artifact(models, path, train_config=TrainConfig(), created_at="2025-01-02T03:04:05+00:00")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert saved.sha256 == digest
    loaded = load_artifact(path)
    assert loaded.sha256 == digest
    never_saved = ModelArtifact(models=models, created_at="", config_fingerprint="")
    for artifact, expected in ((loaded, digest), (never_saved, None)):
        httpd = make_server(PredictionService(artifact), "127.0.0.1:0")
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        try:
            status, doc = http_json(f"http://{host}:{port}/health")
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert status == 200
        assert doc == {"status": "ok", "sha256": expected, "created_at": artifact.created_at,
                       "config_fingerprint": artifact.config_fingerprint}
    assert (loaded.created_at, loaded.config_fingerprint) == (saved.created_at, saved.config_fingerprint)


def test_http_feedback_log_write_failure_is_503_and_records_nothing(server, tmp_path):
    base, svc, synth = server
    svc.feedback_log = tmp_path / "fb.jsonl"
    doc = {
        "task_id": "t0",
        "predicted_classes": {t: 0 for t in TARGETS},
        "actual_targets": actual_targets_for(synth, 0),
    }
    assert http_json(base + "/feedback", doc)[0] == 200
    before = svc.metrics_summary()
    assert before["n_records"] == 1
    # a directory where the log was: the append fails whatever the user's rights
    svc.feedback_log.unlink()
    svc.feedback_log.mkdir()
    status, body = http_json(base + "/feedback", doc)
    assert status == 503
    assert str(svc.feedback_log) in body["error"]
    assert svc.metrics_summary() == before
    assert http_json(base + "/metrics-summary") == (200, before)


def test_http_predict_matches_in_process(server):
    base, svc, synth = server
    for record in synth.dataset.records[:20]:
        doc = sample_request(record)
        status, via_http = http_json(base + "/predict", doc)
        assert status == 200
        in_process = svc.predict(doc)
        via_http.pop("inference_seconds")
        in_process.pop("inference_seconds")
        assert via_http == in_process


def test_http_predict_validation_error(server):
    base, _, synth = server
    doc = sample_request(synth.dataset.records[0])
    del doc["NCORE"]
    status, body = http_json(base + "/predict", doc)
    assert status == 400
    assert body["field"] == "NCORE"


def test_http_predict_bad_feature_is_400(server):
    base, _, synth = server
    doc = sample_request(synth.dataset.records[0])
    doc.update(NINPUT=-1, NEVENTS=-3)
    status, body = http_json(base + "/predict", doc)
    assert status == 400
    assert body["field"] == "NINPUT"


def test_http_predict_non_string_field_is_400(server):
    base, _, synth = server
    doc = sample_request(synth.dataset.records[0])
    doc.update(PROCESSINGTYPE={"a": 1}, FRAMEWORK=["x"], TASK_ID=12)
    status, body = http_json(base + "/predict", doc)
    assert status == 400
    assert body["field"] in ("TASK_ID", "PROCESSINGTYPE", "FRAMEWORK")
    assert body["field"] in body["error"]


def test_http_never_sends_nan(server, monkeypatch):
    base, svc, synth = server
    monkeypatch.setattr(svc, "predict", lambda doc: {"probabilities": [float("nan")]})
    status, body = http_json(base + "/predict", sample_request(synth.dataset.records[0]))
    assert status == 500
    assert "error" in body


def post_with_length(base, content_length, body=b""):
    """POST /predict with a hand-set Content-Length header; returns (status, document)."""
    url = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        conn.putrequest("POST", "/predict")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


@pytest.mark.parametrize("content_length", ["abc", "-5", "1.5", "0x10", ""])
def test_http_bad_content_length_is_400(server, content_length):
    base, _, _ = server
    status, doc = post_with_length(base, content_length, b"{}")
    assert status == 400
    assert doc["field"] == "Content-Length"


def test_http_oversized_body_is_413_before_reading(server):
    # no body follows the header: a server that tried to read it would time out
    base, _, _ = server
    for declared in (MAX_BODY_BYTES + 1, 10**18, "9" * 5_000, "0" * 5_000 + str(MAX_BODY_BYTES + 1)):
        status, doc = post_with_length(base, str(declared))
        assert status == 413
        assert doc["field"] == "Content-Length"


def test_http_body_at_cap_is_read(server):
    base, _, synth = server
    body = json.dumps(sample_request(synth.dataset.records[0])).encode()
    body += b" " * (MAX_BODY_BYTES - len(body))
    for declared in (str(MAX_BODY_BYTES), "0" * 5_000 + str(MAX_BODY_BYTES)):     # leading zeros are no digits
        status, doc = post_with_length(base, declared, body)
        assert status == 200 and set(doc["predictions"]) == set(TARGETS)


@pytest.mark.parametrize("path, field, raw", [
    pytest.param("/predict", "NCORE", "1" * 5_000, id="predict-NCORE-of-5000-digits"),
    pytest.param("/feedback", "RAMCOUNT", "1" * 5_000, id="feedback-RAMCOUNT-of-5000-digits"),
    pytest.param("/predict", "NCORE", "[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
])
def test_http_body_json_the_server_cannot_take_is_400(server, path, field, raw):
    # json.dumps cannot write either value, so the raw text takes a placeholder's place
    base, svc, synth = server
    if path == "/predict":
        doc = {**sample_request(synth.dataset.records[0]), field: "<raw>"}
    else:
        doc = {"task_id": "t0", "predicted_classes": {t: 0 for t in TARGETS},
               "actual_targets": {**actual_targets_for(synth, 0), field: "<raw>"}}
    body = json.dumps(doc).replace('"<raw>"', raw).encode()
    with connect(base) as sock, sock.makefile("rb") as stream:
        sock.sendall(f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body)
        status, _, answer = read_response(stream)
        assert status == 400 and "request body" in json.loads(answer)["error"]
        sock.sendall(request_bytes("GET", "/health"))     # the connection still serves
        assert read_response(stream)[0] == 200
    assert svc.metrics_summary()["n_records"] == 0


def test_http_short_body_is_408_and_closes(server, monkeypatch):
    # the client's own timeout fails the test if the server never answers or never closes
    monkeypatch.setattr(service, "READ_TIMEOUT_S", 0.2)
    base, _, _ = server
    url = urllib.parse.urlsplit(base)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                     b"Content-Length: 100\r\n\r\n{\"a\": 1")
        raw = b""
        while chunk := sock.recv(4096):   # b"" once the server has closed the connection
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"408"
    assert json.loads(body.decode())["field"] == "Content-Length"


# --- keep-alive

def read_response(stream):
    """(status, lower-cased headers, body) of the next response on a byte stream; None at its end."""
    status_line = stream.readline()
    if not status_line:
        return None
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, stream.read(int(headers.get("content-length", 0)))


def read_until_closed(sock):
    """Every byte the server sends until it closes the connection."""
    raw = b""
    try:
        while chunk := sock.recv(4096):
            raw += chunk
    except ConnectionResetError:     # the server closed with bytes of ours still unread
        pass
    return raw


def connect(base):
    url = urllib.parse.urlsplit(base)
    return socket.create_connection((url.hostname, url.port), timeout=5)


def request_bytes(method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    return f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body


def test_http_keep_alive_answers_two_requests_on_one_socket(server):
    base, _, synth = server
    with connect(base) as sock, sock.makefile("rb") as stream:
        for request in (request_bytes("POST", "/predict", sample_request(synth.dataset.records[0])),
                        request_bytes("GET", "/health")):
            sock.sendall(request)
            status, headers, _ = read_response(stream)
            assert status == 200 and headers.get("connection") != "close"


def test_http_each_response_leaves_in_one_socket_write(server, monkeypatch):
    base, _, synth = server
    url = urllib.parse.urlsplit(base)
    writes = []
    for name in ("send", "sendall"):
        def counted(sock, data, *args, _original=getattr(socket.socket, name)):
            if sock.getsockname()[1] == url.port:     # the server's end of the connection
                writes.append(bytes(data))
            return _original(sock, data, *args)
        monkeypatch.setattr(socket.socket, name, counted)
    doc = sample_request(synth.dataset.records[0])
    feedback = {"task_id": doc["TASK_ID"], "predicted_classes": {t: 0 for t in TARGETS},
                "actual_targets": actual_targets_for(synth, 0)}
    requests = [
        (request_bytes("POST", "/predict", doc), 200),
        (request_bytes("POST", "/feedback", feedback), 200),
        (request_bytes("GET", "/health"), 200),
        (request_bytes("GET", "/metrics-summary"), 200),
        (request_bytes("POST", "/predict", {**doc, "NCORE": -1}), 400),
        (request_bytes("GET", "/nope"), 404),
        (f"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(), 413),
    ]
    with connect(base) as sock, sock.makefile("rb") as stream:
        for request, expected in requests:
            writes.clear()
            sock.sendall(request)
            status, _, body = read_response(stream)
            assert status == expected
            assert len(writes) == 1 and writes[0].endswith(body)


def test_http_50_keep_alive_predicts_take_under_a_second(server):
    # two writes per response would wait about 40 ms each on the client's delayed ACK
    base, _, synth = server
    url = urllib.parse.urlsplit(base)
    body = json.dumps(sample_request(synth.dataset.records[0]))
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        started = time.perf_counter()
        for _ in range(50):
            conn.request("POST", "/predict", body=body, headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200 and not resp.will_close
        elapsed = time.perf_counter() - started
    finally:
        conn.close()
    assert elapsed < 1.0


@pytest.mark.parametrize("request_head, expected, field", [
    (f"POST /predict HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}", 413, "Content-Length"),
    ("POST /predict HTTP/1.1\r\nContent-Length: 0x10", 400, "Content-Length"),
    ("POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked", 400, "Transfer-Encoding"),
    ("GET /health HTTP/1.1\r\nContent-Length: 33", 200, None),
])
def test_http_unread_body_gets_one_response_and_a_close(server, request_head, expected, field):
    # the body the server leaves unread is itself a request, which must never be answered
    base, _, _ = server
    unread = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
    with connect(base) as sock:
        sock.sendall(request_head.encode() + b"\r\nHost: x\r\n\r\n" + unread)
        stream = io.BytesIO(read_until_closed(sock))
    status, headers, body = read_response(stream)
    assert (status, headers["connection"]) == (expected, "close")
    assert json.loads(body).get("field") == field
    assert stream.read() == b""


@pytest.mark.parametrize("request_head", [
    b"GET /health HTTP/1.0\r\n",
    b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n",
    b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n",
])
def test_http_1_0_and_connection_close_clients_get_a_close(server, request_head):
    base, _, _ = server
    with connect(base) as sock:
        sock.sendall(request_head + b"\r\n")
        stream = io.BytesIO(read_until_closed(sock))
    status, _, body = read_response(stream)
    assert status == 200 and json.loads(body)["status"] == "ok"
    assert stream.read() == b""


def test_http_request_line_without_a_version_is_a_json_400(server):
    # HTTP/0.9 is not served: a JSON POST API has no HTTP/0.9 client
    base, _, _ = server
    with connect(base) as sock:
        sock.sendall(b"GET /health\r\n\r\n")
        stream = io.BytesIO(read_until_closed(sock))
    status, headers, body = read_response(stream)
    assert (status, headers["connection"]) == (400, "close")
    assert json.loads(body)["field"] == "request line"
    assert stream.read() == b""


def test_http_idle_keep_alive_connection_closes_without_a_response(server, monkeypatch):
    monkeypatch.setattr(service, "READ_TIMEOUT_S", 0.2)
    base, _, _ = server
    with connect(base) as sock, sock.makefile("rb") as stream:
        sock.sendall(request_bytes("GET", "/health"))
        assert read_response(stream)[0] == 200
        idle_since = time.perf_counter()
        assert stream.read() == b""      # closed, with no 408 written
        assert time.perf_counter() - idle_since >= 0.1


def test_http_unknown_path(server):
    base, _, _ = server
    status, _ = http_json(base + "/nope", {})
    assert status == 404


def test_http_feedback_round_trip(server):
    base, svc, synth = server
    record = synth.dataset.records[5]
    _, pred = http_json(base + "/predict", sample_request(record))
    payload = {
        "task_id": record.task_id,
        "predicted_classes": {t: pred["predictions"][t]["class"] for t in TARGETS},
        "actual_targets": actual_targets_for(synth, 5),
    }
    status, ack = http_json(base + "/feedback", payload)
    assert status == 200
    assert ack["known_task"]
    status, summary = http_json(base + "/metrics-summary")
    assert summary["n_records"] == 1


def test_http_no_artifact_unavailable(models):
    svc = PredictionService(artifact=None)
    httpd = make_server(svc, "127.0.0.1:0")
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        status, _ = http_json(f"http://{host}:{port}/predict", {"x": 1})
        assert status in (400, 503)
        status, doc = http_json(f"http://{host}:{port}/health")
        assert status == 503
    finally:
        httpd.shutdown()
        httpd.server_close()


def test_parse_bind(monkeypatch):
    assert parse_bind("0.0.0.0:9000") == ("0.0.0.0", 9000)
    monkeypatch.setenv("RESPRED_BIND", "127.0.0.1:7777")
    assert parse_bind(None) == ("127.0.0.1", 7777)
    with pytest.raises(ValidationError):
        parse_bind("nope")


@pytest.mark.parametrize("port", ["99999", "70000", "\u0663\u0663", ""])
def test_parse_bind_refuses_a_port_outside_0_to_65535(monkeypatch, port):
    # '\u0663\u0663' is 33 in Arabic-Indic digits: str.isdigit passes it and int() reads it
    bind = f"127.0.0.1:{port}"
    with pytest.raises(ValidationError, match=re.escape(repr(bind))):
        parse_bind(bind)
    monkeypatch.setenv("RESPRED_BIND", bind)
    with pytest.raises(ValidationError, match="port of 0-65535"):
        parse_bind(None)


# --- the header reader

def exchange(base, raw):
    """Every response byte the server sends for raw request bytes, until it closes or goes quiet."""
    with connect(base) as sock:
        sock.settimeout(1.0)
        sock.sendall(raw)
        out = b""
        try:
            while chunk := sock.recv(65536):
                out += chunk
        except (ConnectionResetError, TimeoutError):
            pass
    return io.BytesIO(out)


@pytest.mark.parametrize("name", ["content-length", "CONTENT-LENGTH", "Content-length"])
def test_http_header_names_are_case_insensitive(server, name):
    base, _, synth = server
    body = json.dumps(sample_request(synth.dataset.records[0])).encode()
    stream = exchange(base, f"POST /predict HTTP/1.1\r\nHost: x\r\n{name}: {len(body)}\r\n"
                            "connection: CLOSE\r\n\r\n".encode() + body)
    status, headers, doc = read_response(stream)
    assert (status, headers["connection"]) == (200, "close")
    assert set(json.loads(doc)["predictions"]) == set(TARGETS)


@pytest.mark.parametrize("first, second, closed", [("close", "keep-alive", True), ("keep-alive", "close", False)])
def test_http_a_repeated_header_keeps_its_first_value(server, first, second, closed):
    # as email.message.Message.get does
    base, _, _ = server
    with connect(base) as sock, sock.makefile("rb") as stream:
        sock.sendall(f"GET /health HTTP/1.1\r\nHost: x\r\nConnection: {first}\r\n"
                     f"Connection: {second}\r\n\r\n".encode())
        status, headers, _ = read_response(stream)
    assert status == 200 and (headers.get("connection") == "close") == closed


def test_http_a_repeated_equal_content_length_is_read_once(server):
    base, _, synth = server
    body = json.dumps(sample_request(synth.dataset.records[0])).encode()
    with connect(base) as sock, sock.makefile("rb") as stream:
        sock.sendall(f"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
                     f"Content-Length:  {len(body)} \r\n\r\n".encode() + body + request_bytes("GET", "/health"))
        assert read_response(stream)[0] == 200
        assert read_response(stream)[0] == 200


def test_http_conflicting_content_lengths_are_400_and_close(server):
    # RFC 9112 6.3: answering with either value would let the bytes past it pass as a second request
    base, _, synth = server
    body = json.dumps(sample_request(synth.dataset.records[0])).encode()
    smuggled = b"GET /metrics-summary HTTP/1.1\r\nHost: x\r\n\r\n"
    stream = exchange(base, f"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
                            f"Content-Length: {len(body) + len(smuggled)}\r\n\r\n".encode() + body + smuggled)
    status, headers, doc = read_response(stream)
    assert (status, headers["connection"]) == (400, "close")
    assert json.loads(doc)["field"] == "Content-Length"
    assert "Content-Length" in json.loads(doc)["error"]
    assert stream.read() == b""


@pytest.mark.parametrize("line", [
    b" folded onto Host",                     # obs-fold (RFC 9112 5.2)
    b"\tfolded onto Host",
    b"X-Trace : 1",                           # whitespace before the colon (RFC 9112 5.1)
    b"X-Trace\t: 1",
    b"no colon at all",
])
def test_http_malformed_header_lines_are_400_and_close(server, line):
    base, _, _ = server
    stream = exchange(base, b"GET /health HTTP/1.1\r\nHost: x\r\n" + line + b"\r\n\r\n"
                            + request_bytes("GET", "/health"))
    status, headers, doc = read_response(stream)
    assert (status, headers["connection"]) == (400, "close")
    assert "header line" in json.loads(doc)["error"]
    assert stream.read() == b""


def test_http_a_header_line_over_65536_bytes_is_431(server):
    base, _, _ = server
    stream = exchange(base, b"GET /health HTTP/1.1\r\nX-Long: " + b"a" * 65_527 + b"\r\n\r\n")
    status_line = stream.readline()
    assert status_line.split(b" ", 2)[1:] == [b"431", b"Line too long\r\n"]


@pytest.mark.parametrize("n_headers, expected", [(99, b"200"), (101, b"431")])
def test_http_more_than_100_header_lines_are_431(server, n_headers, expected):
    # http.client's limit counts the blank line that ends the header section
    base, _, _ = server
    fields = b"".join(b"X-%d: 1\r\n" % i for i in range(n_headers - 1))
    stream = exchange(base, b"GET /health HTTP/1.0\r\nHost: x\r\n" + fields + b"\r\n")
    status_line = stream.readline()
    assert status_line.split(b" ")[1] == expected
    if expected == b"431":
        assert status_line.rstrip().endswith(b"Too many headers")


@pytest.mark.parametrize("request_line, status, field", [
    (b"POST /predict", 400, "request line"),              # no version
    (b"/health HTTP/1.1", 400, "request line"),           # no method
    (b"GET /health HTTP/1.1 extra", 400, "request line"),
    (b"GET /health HTTP/1.x", 400, "HTTP version"),
    (b"GET /health HTTP/1.1.1", 400, "HTTP version"),
    (b"GET /health HTTP/\xb2.0", 400, "HTTP version"),
    (b"GET /health HTTP/2.0", 505, "HTTP version"),
    (b"GET //health HTTP/1.0", 200, None),                # a leading // reads as one /
])
def test_http_request_line_answers_are_json(server, request_line, status, field):
    base, _, _ = server
    stream = exchange(base, request_line + b"\r\nHost: x\r\n\r\n")
    got, headers, body = read_response(stream)
    assert (got, headers["connection"]) == (status, "close")
    assert json.loads(body).get("field") == field
    assert stream.read() == b""


def test_http_a_request_line_over_65536_bytes_is_a_json_414(server):
    base, _, _ = server
    stream = exchange(base, b"GET /" + b"a" * 65_536 + b" HTTP/1.1\r\nHost: x\r\n\r\n")
    status, headers, body = read_response(stream)
    assert (status, headers["connection"]) == (414, "close")
    assert json.loads(body)["field"] == "request line"


# --- one event loop

def test_http_idle_keep_alive_connections_hold_no_threads(server):
    base, _, _ = server
    before = threading.active_count()
    idle = []
    try:
        for _ in range(32):
            idle.append(connect(base))
            idle[-1].sendall(request_bytes("GET", "/health"))
        for sock in idle:
            with sock.makefile("rb") as stream:
                assert read_response(stream)[0] == 200
        assert threading.active_count() == before
        started = time.perf_counter()
        assert http_json(base + "/health")[0] == 200
        assert time.perf_counter() - started < 1.0
        assert threading.active_count() == before
    finally:
        for sock in idle:
            sock.close()


def test_http_expect_100_continue_gets_an_interim_100_then_the_answer(server):
    base, svc, synth = server
    doc = sample_request(synth.dataset.records[0])
    body = json.dumps(doc).encode()
    with connect(base) as sock, sock.makefile("rb") as stream:
        sock.sendall(f"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
                     "Expect: 100-continue\r\n\r\n".encode())
        assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert stream.readline() == b"\r\n"
        sock.sendall(body)
        status, headers, answer = read_response(stream)
        assert status == 200 and headers.get("connection") != "close"
        via_http, in_process = json.loads(answer), svc.predict(doc)
        via_http.pop("inference_seconds")
        in_process.pop("inference_seconds")
        assert via_http == in_process
        sock.sendall(request_bytes("GET", "/health"))     # the connection stays usable
        assert read_response(stream)[0] == 200


def test_http_expect_100_continue_gets_no_100_before_a_413(server):
    base, _, _ = server
    stream = exchange(base, f"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n"
                            "Expect: 100-continue\r\n\r\n".encode())
    status, headers, body = read_response(stream)
    assert (status, headers["connection"]) == (413, "close")
    assert json.loads(body)["field"] == "Content-Length"


# --- seeded property test: mutated requests against one server

ANSWER_STATUSES = {200, 400, 404, 408, 413, 414, 431, 503, 505}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _base_request(rng, synth, predicted):
    """A valid request as a mutable dict: method, path, version, header lines, body, length."""
    path = rng.choice(["/predict", "/predict", "/feedback", "/feedback", "/health", "/metrics-summary"])
    i = rng.randrange(len(synth.dataset.records))
    body = b""
    if path == "/predict":
        body = json.dumps(sample_request(synth.dataset.records[i])).encode()
    elif path == "/feedback":
        body = json.dumps({"task_id": rng.choice(predicted) if predicted and rng.random() < 0.7 else f"never-{i}",
                           "predicted_classes": {t: rng.randrange(3) for t in TARGETS},
                           "actual_targets": actual_targets_for(synth, i)}).encode()
    return {"method": "POST" if body else "GET", "path": path, "version": "HTTP/1.1", "headers": ["Host: x"],
            "body": body, "length": None}


def _mutate_doc(rng, req):
    """A field of a JSON body, or of its predicted_classes or actual_targets, changed or dropped."""
    try:
        doc = json.loads(req["body"])
    except ValueError:
        return
    target = doc
    if isinstance(doc, dict) and "predicted_classes" in doc and rng.random() < 0.6:
        target = doc[rng.choice(["predicted_classes", "actual_targets"])]
    if not (isinstance(target, dict) and target):
        return
    key = rng.choice(sorted(target))
    if rng.random() < 0.2:
        del target[key]
    else:
        target[key] = rng.choice([None, "", "x", "7", -1, 0, 1.5, 2, 10**30, True, [], {}, float("nan"),
                                  float("inf"), -1e308])
    req["body"] = json.dumps(doc).encode()


MUTATIONS = [
    lambda rng, req: req.update(method=rng.choice(["GET", "POST", "PUT", "HEAD", "get", ""])),
    lambda rng, req: req.update(path=rng.choice(["/predict", "/feedback", "/health", "/metrics-summary",
                                                 "/nope", "//feedback", "/predict?x=1", "", "/" + "a" * 65_536])),
    lambda rng, req: req.update(version=rng.choice(["HTTP/1.0", "HTTP/1.x", "HTTP/2.0", "HTTP/1.1.1", "",
                                                    "HTTP/1.1 extra", "HTTP/\xb2.0", "HTTP/0.9", "HTTP/3"])),
    lambda rng, req: req.update(length=rng.choice([
        str(len(req["body"]) + 7), str(max(len(req["body"]) - 5, 0)), "abc", "-1", "", str(MAX_BODY_BYTES + 1)])),
    lambda rng, req: req["headers"].append(rng.choice([
        "Transfer-Encoding: chunked", "Content-Length: 999", " folded", "X-Bad : 1", "no colon",
        "Connection: close", "Expect: 100-continue", "Connection: keep-alive", "X-Long: " + "a" * 65_536,
        "\r\n".join(f"X-{k}: 1" for k in range(101))])),
    _mutate_doc,
    _mutate_doc,        # drawn twice as often: a bad field is the commonest client error
    lambda rng, req: req.update(body=rng.choice([
        req["body"][:rng.randrange(len(req["body"]) + 1)], b"[1, 2]", b"\xff\xfe{}", b"", b'{"NCORE": NaN}'])),
]


def _raw_request(req):
    head = [f"{req['method']} {req['path']} {req['version']}".strip(), *req["headers"]]
    if req["length"] is not None or req["method"] == "POST":
        head.append(f"Content-Length: {req['length'] if req['length'] is not None else len(req['body'])}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + req["body"]


def _one_answer(base, raw):
    """(status, document) of the final answer to raw request bytes; a 100 Continue is skipped."""
    with connect(base) as sock, sock.makefile("rb") as stream:
        sock.sendall(raw)
        while True:
            answer = read_response(stream)
            assert answer is not None, f"no answer to {raw[:200]!r}"
            status, headers, body = answer
            if status != 100:
                return status, json.loads(body, parse_constant=_refuse_constant)


def test_http_seeded_mutated_requests_keep_the_answer_and_feedback_contracts(models, tmp_path, monkeypatch):
    import random

    monkeypatch.setattr(service, "READ_TIMEOUT_S", 0.2)     # a body cut short answers in 0.2 s
    models, synth = models
    log, aside = tmp_path / "fb.jsonl", tmp_path / "fb.aside"
    svc = PredictionService(ModelArtifact(models=models, created_at="", config_fingerprint=""), feedback_log=log)
    httpd = make_server(svc, "127.0.0.1:0")
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = "http://%s:%d" % httpd.server_address[:2]
    rng, predicted, faulty, seen = random.Random(26), [], False, set()

    def logged():
        return (aside if faulty else log).read_bytes() if faulty or log.exists() else b""

    try:
        for n in range(400):
            if n % 60 == 40:      # the log becomes a directory for 10 requests: every append fails
                log.touch()
                log.rename(aside)
                log.mkdir()
                faulty = True
            elif faulty and n % 60 == 50:
                log.rmdir()
                aside.rename(log)
                faulty = False
            req = _base_request(rng, synth, predicted)
            for mutate in rng.sample(MUTATIONS, rng.choice([0, 1, 1, 2])):
                mutate(rng, req)
            counters, before = svc.metrics_summary(), logged()
            status, doc = _one_answer(base, _raw_request(req))
            assert status in ANSWER_STATUSES, (status, doc, req)
            assert isinstance(doc, dict)
            seen.add(status)
            after = logged()
            routed = "/" + req["path"].lstrip("/") if req["path"].startswith("//") else req["path"]
            if status == 200 and req["method"] == "POST" and routed == "/feedback":
                assert svc.metrics_summary()["n_records"] == counters["n_records"] + 1
                assert after.startswith(before) and after[len(before):].count(b"\n") == 1
            else:
                assert svc.metrics_summary() == counters, req
                assert after == before, req
            if status == 200 and routed == "/predict" and doc.get("task_id"):
                predicted.append(doc["task_id"])
    finally:
        httpd.shutdown()
        httpd.server_close()
    assert {200, 400, 404, 408, 414, 431, 503, 505}.issubset(seen)
    assert PredictionService(None, feedback_log=log).metrics_summary() == svc.metrics_summary()
