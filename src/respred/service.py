"""Model persistence and the prediction microservice.

The artifact is a single self-describing file: magic, version, a canonical
JSON header (the one encoder the four heads share, per-target specs, shapes,
block offsets) and raw little-endian float64 weight blocks, so a save/load
round-trip is bit-identical regardless of platform defaults. The service
exposes POST /predict, POST /feedback, GET /health and GET /metrics-summary
over plain HTTP/JSON; a request body over MAX_BODY_BYTES is refused with 413
before it is read, and one that falls short of its Content-Length for
READ_TIMEOUT_S gets a 408. The service speaks HTTP/1.1 with keep-alive, one
thread per open connection, and writes each response, status line and
headers built as bytes, in one socket write. It reads a request's header
fields without email.parser (see _Handler.parse_request); a request whose
framing is ambiguous, with two different Content-Length values, a folded
header line or whitespace before a colon, gets a 400 and a closed
connection. A connection closes after an HTTP/1.0 request, a
Connection: close, any response sent while the request's body is unread,
or READ_TIMEOUT_S idle between requests (without a response). Feedback is
appended to a JSONL log, each line marked with whether its task is among
the last MAX_TRACKED_TASKS predicted by this process, and folded into
per-target agreement counters; a restarted service replays the log into its
counters. GET /health names the serving artifact by the SHA-256 of its
file, its created_at and its config fingerprint.
"""

from __future__ import annotations

import email.utils
import functools
import hashlib
import json
import math
import os
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from http import HTTPStatus
from http.client import _MAXHEADERS, _MAXLINE
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .discretize import TARGET_NAMES, BinSpec, assign_class, class_to_allocation
from .encode import UNKNOWN_INDEX, UNKNOWN_TOKEN, CategoricalSpec, EncoderSpec, NumericSpec
from .ingest import NUMERIC_FEATURES, TASK_COLUMNS, TaskRecord
from .nnet import Network, TargetModel, TrainConfig, predict_probabilities

MAGIC = b"RPAF"
FORMAT_VERSION = 2
BIND_ENV_VAR = "RESPRED_BIND"
DEFAULT_BIND = "127.0.0.1:8421"
MAX_BODY_BYTES = 1 << 20     # a request body is a few hundred bytes
READ_TIMEOUT_S = 10.0        # socket timeout: a body cut short gets a 408, an idle connection closes
# Predicted ids kept for feedback's known_task, oldest dropped first; each is kept as a
# 16-byte digest, so the window holds ~15 MB whatever the id length. The window
# must hold predicts/s x feedback delay; at the synthetic generator's p95 delay (293 h) it
# holds up to ~0.09 predicts/s. Unverified against real PanDA traffic (see README).
MAX_TRACKED_TASKS = 100_000


class CorruptArtifactError(ValueError):
    """The artifact file is truncated or malformed."""


class ArtifactVersionError(ValueError):
    """The artifact was written by an incompatible format version."""


class NotServableError(ValueError):
    """The artifact does not carry all four targets."""


class CorruptFeedbackLogError(ValueError):
    """A feedback log line is not a feedback entry; the message names the file and line."""


class FeedbackLogWriteError(RuntimeError):
    """The feedback log could not be appended to, so nothing was recorded."""


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
    sha256: Optional[str] = None     # of the file's bytes, once saved or loaded


def config_fingerprint(cfg: TrainConfig) -> str:
    # repr lists the settable fields only, so the recipe constants are hashed beside them
    recipe = (cfg, cfg.dropout_rates, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.bn_momentum)
    return hashlib.sha256(repr(recipe).encode()).hexdigest()[:16]


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
    # one join: a growing bytearray and its copy would hold the weights three times over
    return b"".join([MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(header_bytes)), header_bytes, *blocks])


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
    data = _artifact_bytes(artifact)
    Path(path).write_bytes(data)
    artifact.sha256 = hashlib.sha256(data).hexdigest()
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
        sha256=hashlib.sha256(raw).hexdigest(),
    )


def _models_from_header(header: dict, body: bytes, path: str | Path) -> dict[str, TargetModel]:
    n_floats = len(body) // 8
    encoder = _encoder_from_dict(header["encoder"])
    for spec in encoder.categorical:
        # an index out of 0..size-1 would read another token's embedding row, or none
        vocab = spec.vocabulary
        if not (isinstance(vocab, dict) and vocab.get(UNKNOWN_TOKEN) == UNKNOWN_INDEX
                and all(type(i) is int for i in vocab.values())
                and sorted(vocab.values()) == list(range(len(vocab)))):
            raise CorruptArtifactError(
                f"{path}: vocabulary of {spec.name} does not map its tokens to "
                f"0..size-1 with {UNKNOWN_TOKEN} at {UNKNOWN_INDEX}"
            )
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
    features = {f: col for f, col in TASK_COLUMNS.items() if f != "task_id"}
    for name in features.values():      # every feature is present before any is parsed
        if name not in doc or doc[name] in ("", None):
            raise ValidationError(f"missing feature {name}", field_name=name)
    for name in (TASK_COLUMNS["task_id"], *(c for f, c in features.items() if f not in NUMERIC_FEATURES)):
        if not isinstance(doc.get(name, ""), str):     # a missing TASK_ID is allowed
            raise ValidationError(f"{name} must be a string, got {doc[name]!r}", field_name=name)
    record = TaskRecord(
        task_id=doc.get(TASK_COLUMNS["task_id"], ""),
        **{f: _int_feature(doc, col) if f in NUMERIC_FEATURES else doc[col]
           for f, col in features.items()},
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
    probs = predict_probabilities(artifact.models, [record])
    elapsed = time.perf_counter() - started

    predictions: dict = {}
    for target in TARGET_NAMES:
        row = probs[target][0]
        k = int(row.argmax())       # the lowest class on ties
        predictions[target] = {
            "class": k,
            "probabilities": [_sig9(p) for p in row.tolist()],
            "allocation": class_to_allocation(k, artifact.models[target].bins),
        }
    return {"task_id": record.task_id, "predictions": predictions, "inference_seconds": elapsed}


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
    for name in ("task_id", "timestamp"):       # a missing timestamp is allowed
        if not isinstance(doc.get(name, ""), str):
            raise ValidationError(f"{name} must be a string", field_name=name)
    predicted: dict[str, int] = {}
    actual: dict[str, float] = {}
    actual_classes: dict[str, int] = {}
    for target in TARGET_NAMES:
        bins = artifact.models[target].bins
        try:
            raw, k = doc["actual_targets"][target], doc["predicted_classes"][target]
            value = float(raw)
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"malformed feedback for target {target}", field_name=target
            ) from None
        # a JSON number only: float() also turns true into 1.0 and "1e3" into 1000.0
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not math.isfinite(value):
            raise ValidationError(f"actual {target} must be a finite number, got {raw!r}", field_name=target)
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


def _id_digest(task_id: str) -> bytes:
    """A fixed-size key for a task id of any length (lone surrogates included)."""
    return hashlib.blake2b(task_id.encode("utf-8", "surrogatepass"), digest_size=16).digest()


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
        # digests of the most recently predicted task ids, oldest first
        self._predicted_ids: OrderedDict[bytes, None] = OrderedDict()
        if self.feedback_log and self.feedback_log.exists():
            self._replay_log()

    def _replay_log(self) -> None:
        # log lines carry their actual classes and known_task, so replay needs no artifact;
        # every line is checked before any counter changes
        entries = []
        for number, line in enumerate(self.feedback_log.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if not (isinstance(entry, dict) and all(
                isinstance(entry.get(key), dict) and all(t in entry[key] for t in TARGET_NAMES)
                for key in ("predicted_classes", "actual_classes")
            )):
                raise CorruptFeedbackLogError(
                    f"{self.feedback_log} line {number}: not a feedback entry with "
                    "predicted_classes and actual_classes for every target"
                )
            entries.append(entry)
        for entry in entries:
            self._count(entry)

    def predict(self, doc: Mapping) -> dict:
        artifact = self.artifact
        if artifact is None:
            raise NotServableError("no artifact loaded")
        response = predict_request(artifact, doc)
        if response["task_id"]:
            key = _id_digest(response["task_id"])
            with self._lock:
                ids = self._predicted_ids
                ids[key] = None
                ids.move_to_end(key)
                while len(ids) > MAX_TRACKED_TASKS:
                    ids.popitem(last=False)
        return response

    def feedback(self, doc: Mapping) -> dict:
        artifact = self.artifact
        if artifact is None:
            raise NotServableError("no artifact loaded")
        entry = _feedback_entry(doc, artifact)
        with self._lock:
            entry["known_task"] = _id_digest(entry["task_id"]) in self._predicted_ids
            # written and closed before any counter changes, so a failed write records nothing
            if self.feedback_log is not None:
                try:
                    with self.feedback_log.open("a") as fh:
                        fh.write(json.dumps(entry, sort_keys=True) + "\n")
                except OSError as exc:
                    raise FeedbackLogWriteError(f"feedback log {self.feedback_log} not written: {exc}") from None
            return self._count(entry)

    def _count(self, entry: dict) -> dict:
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
        return {
            "status": "recorded",
            "known_task": known,
            "actual_classes": entry["actual_classes"],
            "agreement": agreement,
        }

    def metrics_summary(self) -> dict:
        return self.counters.as_dict()


# --- http layer ---------------------------------------------------------------

# json.dumps(payload, allow_nan=False) without making an encoder per call
_JSON = json.JSONEncoder(allow_nan=False)


@functools.lru_cache(maxsize=1)
def _date_line(second: int) -> bytes:
    """The Date header line of the responses sent in that second: formatted once per second."""
    return f"Date: {email.utils.formatdate(second, usegmt=True)}\r\n".encode()


class _Headers(dict):
    """A request's header fields by lower-cased name; a repeated name keeps its first value."""

    def __contains__(self, name: str) -> bool:
        return dict.__contains__(self, name.lower())

    def __getitem__(self, name: str) -> str:
        return dict.__getitem__(self, name.lower())

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class _Handler(BaseHTTPRequestHandler):
    service: PredictionService   # set by make_server
    # HTTP/1.1: a connection stays open for the client's next request, unless the
    # client is HTTP/1.0 or sends Connection: close
    protocol_version = "HTTP/1.1"
    # applied to the connection's socket by StreamRequestHandler.setup: a body cut short
    # gets a 408, and a connection idle between requests is closed without a response
    timeout = READ_TIMEOUT_S
    _server_header = (f"Server: {BaseHTTPRequestHandler.server_version} "
                      f"{BaseHTTPRequestHandler.sys_version}\r\n").encode()

    def parse_request(self) -> bool:
        """BaseHTTPRequestHandler.parse_request, with the header fields read without email.parser.

        The request line, the HTTP/0.9 and HTTP/1.0 rules, the Connection and
        Expect handling and http.client's limits (a line over 65,536 bytes or
        over 100 lines, the blank one included, is a 431) are the stdlib's.
        The fields go into a _Headers. RFC 9112 makes a request whose framing
        is ambiguous a 400, sent once the header section is read: two
        different Content-Length values (the 400 names Content-Length),
        a line folded onto the one before it (obs-fold), whitespace between a
        name and its colon, and a line with no name or no colon.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            major, dot, minor = version[5:].partition(".")
            # isdecimal: in latin-1, only 0-9; stdlib's isdigit passes superscripts that int() refuses
            if not (version.startswith("HTTP/") and dot and major.isdecimal() and minor.isdecimal()
                    and len(major) <= 10 and len(minor) <= 10):
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            number = int(major), int(minor)
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        # a path that opens with // would read as a host to a client that follows it
        self.command, self.path = command, "/" + path.lstrip("/") if path.startswith("//") else path

        self.headers = headers = _Headers()
        problem: Optional[tuple[str, Optional[str]]] = None     # (error, field) of the first bad line
        for count in range(1, _MAXHEADERS + 2):
            line = self.rfile.readline(_MAXLINE + 1)
            if len(line) > _MAXLINE:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long",
                                f"got more than {_MAXLINE} bytes when reading header line")
                return False
            if count > _MAXHEADERS:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers",
                                f"got more than {_MAXHEADERS} headers")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            if problem is not None:
                continue
            text = line.decode("iso-8859-1").rstrip("\r\n")
            name, colon, value = text.partition(":")
            if text[:1] in (" ", "\t"):
                problem = ("a header line folded onto the one before it (obs-fold) is not accepted", None)
            elif not colon or not name or name != name.rstrip(" \t"):
                problem = (f"malformed header line {text!r}: expected name: value",
                           name.strip() if colon and name.strip() else None)
            else:
                key, value = name.lower(), value.strip(" \t")
                first = dict.setdefault(headers, key, value)
                if key == "content-length" and first != value:
                    problem = (f"conflicting Content-Length values {first!r} and {value!r}", "Content-Length")
        if problem is not None:
            self.close_connection = True
            self._send(400, {"error": problem[0], "field": problem[1]})
            return False

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if headers.get("expect", "").lower() == "100-continue" and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _send(self, code: int, payload: dict) -> None:
        body = _JSON.encode(payload).encode("utf-8")
        if self.request_version == "HTTP/0.9":     # no status line and no headers
            self.wfile.write(body)
            return
        if self.request_version != "HTTP/1.1":
            self.close_connection = True
        # status line, headers and body leave in one socket write: a second write would
        # wait, by Nagle's algorithm, for the client's delayed ACK of the first (about 40 ms)
        self.wfile.write(b"".join((
            f"{self.protocol_version} {code} {self.responses[code][0]}\r\n".encode(),
            self._server_header,
            _date_line(int(time.time())),
            b"Content-Type: application/json; charset=utf-8\r\nContent-Length: %d\r\n" % len(body),
            b"Connection: close\r\n\r\n" if self.close_connection else b"\r\n",
            body,
        )))

    def _read_json(self) -> dict:
        # an error sent before the whole body is read closes the connection: the unread
        # bytes would otherwise be parsed as the next request
        close_after_body, self.close_connection = self.close_connection, True
        if "Transfer-Encoding" in self.headers:
            raise ValidationError("Transfer-Encoding is not supported; send a Content-Length",
                                  field_name="Transfer-Encoding")
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
        self.close_connection = close_after_body
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValidationError("request body is not valid JSON") from None
        if not isinstance(doc, dict):
            raise ValidationError("request body must be a JSON object")
        return doc

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if "Transfer-Encoding" in self.headers or self.headers.get("Content-Length", "0").strip() != "0":
            self.close_connection = True     # a GET's body is never read
        if self.path == "/health":
            artifact = self.service.artifact
            if artifact is None:
                self._send(503, {"status": "no artifact"})
            else:
                self._send(200, {"status": "ok", "sha256": artifact.sha256,
                                 "created_at": artifact.created_at,
                                 "config_fingerprint": artifact.config_fingerprint})
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
            self._send(408, {"error": str(exc), "field": exc.field})
        except ValidationError as exc:
            self._send(400, {"error": str(exc), "field": exc.field})
        except (NotServableError, FeedbackLogWriteError) as exc:
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
