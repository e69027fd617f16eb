"""Artifact persistence, prediction/feedback endpoints and the HTTP layer."""

import http.client
import json
import socket
import struct
import threading
import urllib.parse
import urllib.request
import urllib.error

import numpy as np
import pytest

from respred import service
from respred.discretize import assign_class
from respred.encode import fit_encoder
from respred.ingest import SplitSpec, stratified_split
from respred.nnet import Network, TargetModel, TrainConfig, predict
from respred.pipeline import fit_all_bins, label_dataset
from respred.service import (
    MAX_BODY_BYTES,
    ArtifactVersionError,
    CorruptArtifactError,
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
    split = stratified_split(labeled, SplitSpec(seed=1, stratify_on="RAMCOUNT"))
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


def rewrite_header(path, edit):
    """Pass an artifact's JSON header through ``edit``; the weight blocks stay as they are."""
    raw = path.read_bytes()
    header_len = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16:16 + header_len])
    edit(header)
    new = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + header_len:])


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
    for declared in (MAX_BODY_BYTES + 1, 10**18):
        status, doc = post_with_length(base, str(declared))
        assert status == 413
        assert doc["field"] == "Content-Length"


def test_http_body_at_cap_is_read(server):
    base, _, synth = server
    body = json.dumps(sample_request(synth.dataset.records[0])).encode()
    body += b" " * (MAX_BODY_BYTES - len(body))
    status, doc = post_with_length(base, str(MAX_BODY_BYTES), body)
    assert status == 200 and set(doc["predictions"]) == set(TARGETS)


def test_http_short_body_is_408_and_closes(server, monkeypatch):
    # the client's own timeout fails the test if the server never answers or never closes
    monkeypatch.setattr(service._Handler, "timeout", 0.2)
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
