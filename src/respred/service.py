"""Model persistence and the prediction microservice.

The artifact is a single self-describing file: magic, version, a canonical
JSON header (the one encoder the four heads share, per-target specs, shapes,
block offsets) and raw little-endian float64 weight blocks, so a save/load
round-trip is bit-identical regardless of platform defaults. The service
exposes POST /predict, POST /feedback, GET /health and GET /metrics-summary
over plain HTTP/JSON; a request body over MAX_BODY_BYTES is refused with 413
before it is read, and one that falls short of its Content-Length for
READ_TIMEOUT_S gets a 408 and a closed connection. Feedback is appended to
a JSONL log, each line marked with whether its task was predicted by this
process, and folded into per-target agreement counters; a restarted service
replays the log into its counters.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .discretize import TARGET_NAMES, BinSpec, assign_class, class_to_allocation
from .encode import CategoricalSpec, EncoderSpec, NumericSpec
from .ingest import TASK_COLUMNS, TaskRecord
from .nnet import Network, TargetModel, TrainConfig, predict

MAGIC = b"RPAF"
FORMAT_VERSION = 2
REQUEST_FEATURES = ("PROCESSINGTYPE", "FRAMEWORK", "NCORE", "NINPUT", "NFILES", "NEVENTS")
BIND_ENV_VAR = "RESPRED_BIND"
DEFAULT_BIND = "127.0.0.1:8421"
MAX_BODY_BYTES = 1 << 20     # a request body is a few hundred bytes
READ_TIMEOUT_S = 10.0        # socket timeout per request; a body cut short gets a 408


class CorruptArtifactError(ValueError):
    """The artifact file is truncated or malformed."""


class ArtifactVersionError(ValueError):
    """The artifact was written by an incompatible format version."""


class NotServableError(ValueError):
    """The artifact does not carry all four targets."""


class ValidationError(ValueError):
    """A request document failed validation; ``field`` names the offender."""

    def __init__(self, message: str, field_name: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field_name


class BodyTooLargeError(ValidationError):
    """The declared request body exceeds MAX_BODY_BYTES."""


class BodyTimeoutError(ValidationError):
    """The request body stayed shorter than its Content-Length for READ_TIMEOUT_S."""


# --- spec <-> json ----------------------------------------------------------

# asdict() writes a spec's tuples as JSON lists; the readers turn them back into tuples

def _encoder_from_dict(doc: dict) -> EncoderSpec:
    return EncoderSpec(
        categorical=tuple(CategoricalSpec(**c) for c in doc["categorical"]),
        numeric=tuple(NumericSpec(**n) for n in doc["numeric"]),
        dropped=tuple(doc["dropped"]),
    )


def _bins_from_dict(doc: dict) -> BinSpec:
    return BinSpec(**{**doc, "edges": tuple(doc["edges"]),
                      "allocation_values": tuple(doc["allocation_values"])})


# --- artifact file ----------------------------------------------------------

@dataclass
class ModelArtifact:
    models: dict[str, TargetModel]
    created_at: str
    config_fingerprint: str
    version: int = FORMAT_VERSION


def config_fingerprint(cfg: TrainConfig) -> str:
    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]


def _artifact_bytes(artifact: ModelArtifact) -> bytes:
    encoders = [model.encoder for model in artifact.models.values()]
    if not encoders or encoders.count(encoders[0]) != len(encoders):
        raise ValueError("an artifact's models must share one encoder")
    header: dict = {
        "created_at": artifact.created_at,
        "config_fingerprint": artifact.config_fingerprint,
        "encoder": asdict(encoders[0]),
        "targets": {},
    }
    blocks: list[bytes] = []
    offset = 0
    for target in sorted(artifact.models):
        model = artifact.models[target]
        net = model.net
        entry: dict = {
            "n_classes": net.n_classes,
            "hidden": list(net.hidden),
            "bins": asdict(model.bins),
            "train_summary": model.train_summary,
            "params": [],
            "running": [],
        }
        for section, tensors in (("params", net.params), ("running", net.running)):
            for name in sorted(tensors):
                arr = np.ascontiguousarray(tensors[name], dtype="<f8")
                entry[section].append({"name": name, "shape": list(arr.shape), "offset": offset})
                blocks.append(arr.tobytes())
                offset += arr.size
        header["targets"][target] = entry

    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<Q", len(header_bytes))
    out += header_bytes
    for b in blocks:
        out += b
    return bytes(out)


def save_artifact(
    models: Mapping[str, TargetModel],
    path: str | Path,
    train_config: Optional[TrainConfig] = None,
    created_at: Optional[str] = None,
) -> ModelArtifact:
    """Write a servable artifact; all four targets, sharing one encoder, are required."""
    missing = set(TARGET_NAMES) - set(models)
    if missing:
        raise NotServableError(f"artifact missing targets: {sorted(missing)}")
    artifact = ModelArtifact(
        models=dict(models),
        created_at=created_at or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        config_fingerprint=config_fingerprint(train_config) if train_config else "",
    )
    Path(path).write_bytes(_artifact_bytes(artifact))
    return artifact


def write_artifact_unchecked(artifact: ModelArtifact, path: str | Path) -> None:
    """Serialize without the servability check (used to round-trip loaded artifacts)."""
    Path(path).write_bytes(_artifact_bytes(artifact))


def load_artifact(path: str | Path) -> ModelArtifact:
    """Read and validate an artifact; weights round-trip bit-exactly."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CorruptArtifactError(f"{path}: not a model artifact")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    header_len = struct.unpack("<Q", raw[8:16])[0]
    if 16 + header_len > len(raw):
        raise CorruptArtifactError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptArtifactError(f"{path}: unreadable header ({exc})") from None

    try:
        models = _models_from_header(header, raw[16 + header_len:], path)
        created_at = header["created_at"]
        fingerprint = header.get("config_fingerprint", "")
    except KeyError as exc:
        raise CorruptArtifactError(f"{path}: header lacks key {exc.args[0]!r}") from None
    except TypeError as exc:
        # a header value of the wrong type, or a spec with missing or unknown fields
        raise CorruptArtifactError(f"{path}: malformed header ({exc})") from None

    missing = set(TARGET_NAMES) - set(models)
    if missing:
        raise NotServableError(f"{path}: artifact missing targets {sorted(missing)}")
    return ModelArtifact(
        models=models,
        created_at=created_at,
        config_fingerprint=fingerprint,
        version=version,
    )


def _models_from_header(header: dict, body: bytes, path: str | Path) -> dict[str, TargetModel]:
    n_floats = len(body) // 8
    encoder = _encoder_from_dict(header["encoder"])
    models: dict[str, TargetModel] = {}
    for target, entry in header["targets"].items():
        bins = _bins_from_dict(entry["bins"])
        net = Network(encoder, n_classes=int(entry["n_classes"]), hidden=tuple(entry["hidden"]))
        for section, store in (("params", net.params), ("running", net.running)):
            loaded = set()
            for item in entry[section]:
                name, shape = item["name"], tuple(item["shape"])
                if name not in store or store[name].shape != shape:
                    raise CorruptArtifactError(f"{path}: {target} has no tensor {name} of shape {shape}")
                size = int(np.prod(shape)) if shape else 1
                off = int(item["offset"])
                if off + size > n_floats:
                    raise CorruptArtifactError(f"{path}: truncated weight block {name}")
                arr = np.frombuffer(body, dtype="<f8", count=size, offset=off * 8)
                store[name] = arr.reshape(shape).copy()
                loaded.add(name)
            if loaded != set(store):
                raise CorruptArtifactError(
                    f"{path}: {target} lacks {section} {sorted(set(store) - loaded)}"
                )
        models[target] = TargetModel(
            target=target,
            net=net,
            encoder=encoder,
            bins=bins,
            train_summary=entry.get("train_summary", {}),
        )
    return models


# --- prediction and feedback ------------------------------------------------

def _sig9(x: float) -> float:
    """Probabilities are emitted with 9 significant digits."""
    return float(f"{x:.9g}")


def _int_feature(doc: Mapping, name: str) -> int:
    """An integral feature value; bools, fractions and non-finite numbers are refused."""
    raw = doc[name]
    try:
        value = int(raw) if isinstance(raw, str) else raw
        # float() raises for huge ints and non-numbers; is_integer() is False for 3.7, nan and inf
        if not isinstance(value, bool) and float(value).is_integer():
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name} must be an integer, got {raw!r}", field_name=name)


def record_from_request(doc: Mapping) -> TaskRecord:
    """The TaskRecord a request describes; a bad feature is a ValidationError naming it."""
    for name in REQUEST_FEATURES:
        if name not in doc or doc[name] in ("", None):
            raise ValidationError(f"missing feature {name}", field_name=name)
    record = TaskRecord(
        task_id=str(doc.get("TASK_ID", "")),
        processing_type=str(doc["PROCESSINGTYPE"]),
        framework=str(doc["FRAMEWORK"]),
        core_count=_int_feature(doc, "NCORE"),
        n_input=_int_feature(doc, "NINPUT"),
        n_files=_int_feature(doc, "NFILES"),
        n_events=_int_feature(doc, "NEVENTS"),
    )
    problem = record.validate()
    if problem is not None:
        # validate() opens its message with the offending attribute
        raise ValidationError(f"invalid request: {problem}", field_name=TASK_COLUMNS[problem.split()[0]])
    return record


def predict_request(artifact: ModelArtifact, doc: Mapping) -> dict:
    """One prediction document: class, probabilities and allocation per target."""
    record = record_from_request(doc)
    started = time.perf_counter()
    classes, probs = predict(artifact.models, [record])
    elapsed = time.perf_counter() - started

    per_class = classes[0].as_dict()
    response: dict = {"task_id": record.task_id, "predictions": {}}
    for target in TARGET_NAMES:
        k = int(per_class[target])
        response["predictions"][target] = {
            "class": k,
            "probabilities": [_sig9(p) for p in probs[target][0]],
            "allocation": class_to_allocation(k, artifact.models[target].bins),
        }
    response["inference_seconds"] = elapsed
    return response


@dataclass
class FeedbackCounters:
    agree: dict[str, int] = field(default_factory=lambda: {t: 0 for t in TARGET_NAMES})
    disagree: dict[str, int] = field(default_factory=lambda: {t: 0 for t in TARGET_NAMES})
    n_records: int = 0
    n_unknown_task: int = 0

    def as_dict(self) -> dict:
        rates = {}
        for t in TARGET_NAMES:
            total = self.agree[t] + self.disagree[t]
            rates[t] = self.agree[t] / total if total else None
        return {
            "n_records": self.n_records,
            "n_unknown_task": self.n_unknown_task,
            "agree": dict(self.agree),
            "disagree": dict(self.disagree),
            "agreement_rate": rates,
        }


def _feedback_entry(doc: Mapping, artifact: ModelArtifact) -> dict:
    """The log entry for a feedback document, checked for all four targets before any is counted."""
    for name in ("task_id", "predicted_classes", "actual_targets"):
        if name not in doc:
            raise ValidationError(f"missing field {name}", field_name=name)
    if not isinstance(doc["task_id"], str):
        raise ValidationError("task_id must be a string", field_name="task_id")
    predicted: dict[str, int] = {}
    actual: dict[str, float] = {}
    actual_classes: dict[str, int] = {}
    for target in TARGET_NAMES:
        bins = artifact.models[target].bins
        try:
            value = float(doc["actual_targets"][target])
            k = doc["predicted_classes"][target]
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"malformed feedback for target {target}", field_name=target
            ) from None
        if not math.isfinite(value):
            raise ValidationError(f"actual {target} must be finite, got {value}", field_name=target)
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < bins.n_classes:
            raise ValidationError(
                f"predicted {target} class must be an integer in [0, {bins.n_classes}), got {k!r}",
                field_name=target,
            )
        predicted[target] = k
        actual[target] = value
        actual_classes[target] = assign_class(value, bins)
    return {
        "task_id": doc["task_id"],
        "predicted_classes": predicted,
        "actual_targets": actual,
        "actual_classes": actual_classes,
        "timestamp": doc.get("timestamp") or datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


class PredictionService:
    """Holds the servable artifact, the feedback log and its counters.

    Inference over the loaded artifact is read-only, so concurrent predict
    calls are safe; feedback appends are serialized by a lock.
    """

    def __init__(self, artifact: Optional[ModelArtifact], feedback_log: Optional[str | Path] = None) -> None:
        self.artifact = artifact
        self.feedback_log = Path(feedback_log) if feedback_log else None
        self.counters = FeedbackCounters()
        self._lock = threading.Lock()
        self._predicted_ids: set[str] = set()
        if self.feedback_log and self.feedback_log.exists():
            self._replay_log()

    def _replay_log(self) -> None:
        # log lines carry their actual classes and known_task, so replay needs no artifact
        for line in self.feedback_log.read_text().splitlines():
            if line.strip():
                self._apply_feedback(json.loads(line), append=False)

    def predict(self, doc: Mapping) -> dict:
        artifact = self.artifact
        if artifact is None:
            raise NotServableError("no artifact loaded")
        response = predict_request(artifact, doc)
        if response["task_id"]:
            with self._lock:
                self._predicted_ids.add(response["task_id"])
        return response

    def feedback(self, doc: Mapping) -> dict:
        artifact = self.artifact
        if artifact is None:
            raise NotServableError("no artifact loaded")
        entry = _feedback_entry(doc, artifact)
        with self._lock:
            entry["known_task"] = entry["task_id"] in self._predicted_ids
            return self._apply_feedback(entry, append=True)

    def _apply_feedback(self, entry: dict, append: bool) -> dict:
        agreement = {
            t: entry["actual_classes"][t] == entry["predicted_classes"][t] for t in TARGET_NAMES
        }
        for target, agree in agreement.items():
            (self.counters.agree if agree else self.counters.disagree)[target] += 1
        self.counters.n_records += 1
        # log lines written before known_task was recorded count as unknown
        known = entry.get("known_task", False)
        if not known:
            self.counters.n_unknown_task += 1

        if append and self.feedback_log is not None:
            with self.feedback_log.open("a") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")

        return {
            "status": "recorded",
            "known_task": known,
            "actual_classes": entry["actual_classes"],
            "agreement": agreement,
        }

    def metrics_summary(self) -> dict:
        return self.counters.as_dict()


# --- http layer ---------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    service: PredictionService   # set by make_server
    timeout = READ_TIMEOUT_S     # applied to the connection's socket by StreamRequestHandler.setup

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise ValidationError(
                f"Content-Length must be a non-negative integer, got {declared!r}",
                field_name="Content-Length",
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise BodyTooLargeError(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}", field_name="Content-Length"
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise BodyTimeoutError(
                f"request body shorter than its Content-Length of {length} bytes after {self.timeout} s",
                field_name="Content-Length",
            ) from None
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValidationError("request body is not valid JSON") from None
        if not isinstance(doc, dict):
            raise ValidationError("request body must be a JSON object")
        return doc

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/health":
            ok = self.service.artifact is not None
            self._send(200 if ok else 503, {"status": "ok" if ok else "no artifact"})
        elif self.path == "/metrics-summary":
            self._send(200, self.service.metrics_summary())
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        try:
            doc = self._read_json()
            if self.path == "/predict":
                self._send(200, self.service.predict(doc))
            elif self.path == "/feedback":
                self._send(200, self.service.feedback(doc))
            else:
                self._send(404, {"error": f"unknown path {self.path}"})
        except BodyTooLargeError as exc:
            self._send(413, {"error": str(exc), "field": exc.field})
        except BodyTimeoutError as exc:
            self.close_connection = True     # the rest of the body may still arrive
            self._send(408, {"error": str(exc), "field": exc.field})
        except ValidationError as exc:
            self._send(400, {"error": str(exc), "field": exc.field})
        except NotServableError as exc:
            self._send(503, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": f"internal error: {exc}"})

    def log_message(self, fmt: str, *args) -> None:
        pass  # quiet by default; the CLI reports the bind address


def parse_bind(bind: Optional[str] = None) -> tuple[str, int]:
    value = bind or os.environ.get(BIND_ENV_VAR, DEFAULT_BIND)
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ValidationError(f"bind address must be host:port, got {value!r}")
    return host, int(port)


def make_server(service: PredictionService, bind: Optional[str] = None) -> ThreadingHTTPServer:
    """HTTP server bound per the argument or the RESPRED_BIND env var."""
    host, port = parse_bind(bind)
    handler = type("Handler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(service: PredictionService, bind: Optional[str] = None) -> None:
    server = make_server(service, bind)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}")
    try:
        server.serve_forever()
    finally:
        server.server_close()
