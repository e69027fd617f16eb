"""Model persistence and the prediction microservice.

The artifact is a single self-describing file: magic, version, a canonical
JSON header (the one encoder the four heads share, per-target specs, shapes,
block offsets) and raw little-endian float64 weight blocks, so a save/load
round-trip is bit-identical regardless of platform defaults. The service
exposes POST /predict, POST /feedback, GET /health and GET /metrics-summary
over HTTP/1.1 with keep-alive. One asyncio event loop, on one thread, serves
every connection with a coroutine, so an idle connection costs a socket and a
coroutine, not a thread. Every answer is JSON, and an error names its field.
The request head is read under http.client's limits and RFC 9112's framing
rules (see _Connection._read_head); a body over MAX_BODY_BYTES gets a 413
before it is read, and one short of its Content-Length for READ_TIMEOUT_S a
408. Each response leaves in one socket write. A connection closes after a
request that is not HTTP/1.1, a Connection: close, an error sent while the
request's body is unread, or READ_TIMEOUT_S without a request head (without a
response). Feedback is appended to a JSONL log, each line marked with whether
its task is among the last MAX_TRACKED_TASKS predicted by this process, and
folded into per-target agreement counters; a restarted service replays the
log into its counters. GET /health names the serving artifact by the SHA-256
of its file, its created_at and its config fingerprint.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import socket
import struct
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from http import HTTPStatus
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .discretize import TARGET_NAMES, BinSpec, assign_class, class_to_allocation
from .encode import UNKNOWN_INDEX, UNKNOWN_TOKEN, CategoricalSpec, EncoderSpec, NumericSpec
from .ingest import NUMERIC_FEATURES, TASK_COLUMNS, TaskRecord
from .nnet import Network, TargetModel, TrainConfig, check_one_stack, model_stack, stack_probabilities

MAGIC = b"RPAF"
FORMAT_VERSION = 2
BIND_ENV_VAR = "RESPRED_BIND"
DEFAULT_BIND = "127.0.0.1:8421"
MAX_BODY_BYTES = 1 << 20     # a request body is a few hundred bytes
READ_TIMEOUT_S = 10.0        # a body cut short gets a 408; a connection without a request head closes
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
    """A request failed validation: ``field`` names the offender; ``status`` and ``reason`` the HTTP answer's."""

    def __init__(self, message: str, field_name: Optional[str] = None, status: int = 400,
                 reason: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field_name
        self.status = status
        self.reason = reason


# --- spec <-> json ----------------------------------------------------------

def _json_loads(text: str):
    """json.loads for outside input, whose every failure is a ValueError.

    json.loads raises a bare ValueError, not a JSONDecodeError, for an integer
    over Python's int digit limit, and RecursionError for nesting too deep.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


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
    """A model set as served: its models do not change once it is made."""

    models: dict[str, TargetModel]
    created_at: str
    config_fingerprint: str
    sha256: Optional[str] = None     # of the file's bytes, once saved or loaded

    @functools.cached_property
    def stack(self):
        """The models folded and stacked once, on the first predict_request (see nnet.model_stack).

        Two threads making that first request may each fold them; the stacks are equal, and one is kept.
        """
        return model_stack(self.models)


def config_fingerprint(cfg: TrainConfig) -> str:
    # repr lists the settable fields only, so the recipe constants are hashed beside them
    recipe = (cfg, cfg.dropout_rates, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.bn_momentum)
    return hashlib.sha256(repr(recipe).encode()).hexdigest()[:16]


def _artifact_bytes(artifact: ModelArtifact) -> bytes:
    check_one_stack(artifact.models)
    header: dict = {
        "created_at": artifact.created_at,
        "config_fingerprint": artifact.config_fingerprint,
        "encoder": asdict(next(iter(artifact.models.values())).encoder),
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
    """Write a servable artifact: all four targets, one stack (see nnet.check_one_stack), are required."""
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
        header = _json_loads(raw[16:16 + header_len].decode("utf-8"))
    except ValueError as exc:
        raise CorruptArtifactError(f"{path}: unreadable header ({exc})") from None

    try:
        models = _models_from_header(header, raw[16 + header_len:], path)
        created_at = header["created_at"]
        fingerprint = header.get("config_fingerprint", "")
    except KeyError as exc:
        raise CorruptArtifactError(f"{path}: header lacks key {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        # a header value of the wrong type, or a spec with missing or unknown fields
        raise CorruptArtifactError(f"{path}: malformed header ({exc})") from None

    missing = set(TARGET_NAMES) - set(models)
    if missing:
        raise NotServableError(f"{path}: artifact missing targets {sorted(missing)}")
    try:
        check_one_stack(models)
    except ValueError as exc:
        raise CorruptArtifactError(f"{path}: {exc}") from None
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
    probs = stack_probabilities(artifact.stack, [record])
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
                entry = _json_loads(line)
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

MAX_LINE_BYTES = 65_536      # a request or header line, its line ending included (http.client's limit)
MAX_HEADER_LINES = 100       # header lines, the blank one that ends the section included (http.client's)
# json.dumps(payload, allow_nan=False) without making an encoder per call
_JSON = json.JSONEncoder(allow_nan=False)
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode() for s in HTTPStatus}
_SERVER_LINE = b"Server: respred Python/%d.%d.%d\r\n" % sys.version_info[:3]


@functools.lru_cache(maxsize=1)
def _date_line(second: int) -> bytes:
    """The Date header line of the responses sent in that second: formatted once per second."""
    import email.utils      # here, not at module level: `import respred` does not pay for it
    return f"Date: {email.utils.formatdate(second, usegmt=True)}\r\n".encode()


class _Connection:
    """One client connection: one coroutine reads its requests and answers each in turn.

    A read, of a head or a body, must end by ``deadline``, READ_TIMEOUT_S after it starts. One
    timer per connection cancels the coroutine once the deadline has passed, and otherwise re-arms
    itself for it: asyncio.wait_for would cost a task and three more event-loop turns per read.
    """

    def __init__(self, service: PredictionService, reader, writer) -> None:
        self.service, self.reader, self.writer = service, reader, writer
        self.close_connection = self.expect_continue = self.timed_out = False
        self.method = self.path = ""
        self.headers: dict[str, str] = {}     # by lower-cased name; a repeated name keeps its first value
        self.deadline = 0.0                   # on time.monotonic's clock

    async def serve(self) -> None:
        """Answer requests until the connection is to close, the client closes it, or a read times out."""
        import asyncio      # here, not at module level: `import respred` does not pay for it
        loop, task = asyncio.get_running_loop(), asyncio.current_task()

        def watch() -> None:
            nonlocal timer
            if time.monotonic() < self.deadline:
                timer = loop.call_later(self.deadline - time.monotonic(), watch)
            else:
                self.timed_out = True
                task.cancel()

        timer = loop.call_later(READ_TIMEOUT_S, watch)
        try:
            while not self.close_connection:
                self.deadline = time.monotonic() + READ_TIMEOUT_S
                try:
                    if not await self._read_head():
                        return      # closed by the client between requests
                    self._send(*await self._respond())
                except ValidationError as exc:
                    self._send(exc.status, {"error": str(exc), "field": exc.field}, exc.reason)
                except (NotServableError, FeedbackLogWriteError) as exc:
                    self._send(503, {"error": str(exc), "field": None})
                except OSError:
                    raise           # the connection failed: no answer would reach the client
                except Exception as exc:  # pragma: no cover - defensive
                    self._send(500, {"error": f"internal error: {exc}", "field": None})
                await self.writer.drain()      # a client that reads no responses stops being read
        except (asyncio.CancelledError, OSError):
            # a read timed out, the server is stopping or the client reset: closed without a response.
            # The coroutine tops its task, which ends normally: start_server in Python 3.11 logs a
            # cancelled one as an error
            pass
        finally:
            timer.cancel()
            self.writer.close()
            with contextlib.suppress(OSError, asyncio.CancelledError):
                await self.writer.wait_closed()

    async def _read_head(self) -> bool:
        """Read a request line and header section; False if the client closed the connection first.

        Empty lines before the request line are skipped (RFC 9112 2.2). http.client's limits are
        answered as soon as one is passed: a request line over MAX_LINE_BYTES is a 414, a longer
        header line or more than MAX_HEADER_LINES lines a 431. A request whose framing RFC 9112
        calls ambiguous is a 400 once its head is read: two different Content-Length values, a
        line folded onto the one before (obs-fold), whitespace between a name and its colon, or a
        line with no name or no colon. Each error closes the connection.
        """
        self.close_connection = True
        try:
            line = b"\r\n"
            while line in (b"\r\n", b"\n"):
                line = await self.reader.readline()
        except ValueError:      # over the reader's limit
            raise ValidationError(f"request line over {MAX_LINE_BYTES} bytes", "request line", status=414) from None
        if not line:
            return False
        requestline = line.decode("iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3:
            raise ValidationError(f"request line {requestline!r} is not method, path and HTTP version", "request line")
        self.method, path, version = words
        major, dot, minor = version[5:].partition(".")
        # isdecimal: in latin-1, only 0-9; isdigit passes superscripts that int() refuses
        if not (version.startswith("HTTP/") and dot and major.isdecimal() and minor.isdecimal()
                and len(major) <= 10 and len(minor) <= 10):
            raise ValidationError(f"bad HTTP version {version!r}", "HTTP version")
        number = int(major), int(minor)
        if number >= (2, 0):
            raise ValidationError(f"HTTP version {version[5:]} is not supported", "HTTP version", status=505)
        # a path that opens with // would read as a host to a client that follows it
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        self.headers = headers = {}
        problem: Optional[tuple[str, Optional[str]]] = None     # (error, field) of the first bad line
        for count in range(1, MAX_HEADER_LINES + 2):
            try:
                line = await self.reader.readline()
            except ValueError:
                raise ValidationError(f"header line longer than {MAX_LINE_BYTES} bytes", "header section",
                                      status=431, reason="Line too long") from None
            if count > MAX_HEADER_LINES:
                raise ValidationError(f"more than {MAX_HEADER_LINES} header lines", "header section",
                                      status=431, reason="Too many headers")
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
                first = headers.setdefault(key, value)
                if key == "content-length" and first != value:
                    problem = (f"conflicting Content-Length values {first!r} and {value!r}", "Content-Length")
        if problem is not None:
            raise ValidationError(*problem)
        # only an HTTP/1.1 connection stays open for a next request, unless its client says close
        self.close_connection = version != "HTTP/1.1" or headers.get("connection", "").lower() == "close"
        self.expect_continue = number >= (1, 1) and headers.get("expect", "").lower() == "100-continue"
        return True

    async def _respond(self) -> tuple[int, dict]:
        """The status and document that answer the request whose head was just read."""
        if self.method == "POST":
            doc = await self._read_json()
            if self.path in ("/predict", "/feedback"):
                return 200, (self.service.predict if self.path == "/predict" else self.service.feedback)(doc)
        elif "transfer-encoding" in self.headers or self.headers.get("content-length", "0").strip() != "0":
            self.close_connection = True     # a body that is never read
        if self.method == "GET" and self.path == "/health":
            artifact = self.service.artifact
            if artifact is None:
                return 503, {"status": "no artifact"}
            return 200, {"status": "ok", "sha256": artifact.sha256, "created_at": artifact.created_at,
                         "config_fingerprint": artifact.config_fingerprint}
        if self.method == "GET" and self.path == "/metrics-summary":
            return 200, self.service.metrics_summary()
        # a HEAD client would read the body as the next response
        self.close_connection |= self.method not in ("GET", "POST")
        raise ValidationError(f"no route for {self.method} {self.path}", "request line", status=404)

    async def _read_json(self) -> dict:
        from asyncio import CancelledError
        # an error sent before the whole body is read closes the connection: the unread
        # bytes would otherwise be parsed as the next request
        close_after_body, self.close_connection = self.close_connection, True
        if "transfer-encoding" in self.headers:
            raise ValidationError("Transfer-Encoding is not supported; send a Content-Length",
                                  field_name="Transfer-Encoding")
        declared = self.headers.get("content-length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise ValidationError(f"Content-Length must be a non-negative integer, got {declared!r}",
                                  field_name="Content-Length")
        # leading zeros aside, more digits than the cap's is over it, and past 4,300 int() refuses them
        digits = declared.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise ValidationError(f"request body of {digits} bytes exceeds {MAX_BODY_BYTES}",
                                  field_name="Content-Length", status=413)
        length = int(digits)
        if self.expect_continue:
            self.writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.deadline = time.monotonic() + READ_TIMEOUT_S
        try:
            raw = await self.reader.readexactly(length)
        except CancelledError:
            if not self.timed_out:
                raise
            raise ValidationError(f"request body shorter than its Content-Length of {length} bytes after "
                                  f"{READ_TIMEOUT_S} s", field_name="Content-Length", status=408) from None
        except EOFError as exc:     # asyncio.IncompleteReadError
            raise ValidationError(f"connection closed after {len(exc.partial)} of the body's {length} bytes",
                                  field_name="Content-Length") from None
        self.close_connection = close_after_body
        try:
            doc = _json_loads(raw.decode("utf-8"))
        except ValueError:
            raise ValidationError("request body is not valid JSON") from None
        if not isinstance(doc, dict):
            raise ValidationError("request body must be a JSON object")
        return doc

    def _send(self, code: int, payload: dict, reason: Optional[str] = None) -> None:
        body = _JSON.encode(payload).encode("utf-8")
        # status line, headers and body leave in one write, so in one send call
        self.writer.write(b"".join((
            _STATUS_LINES[code] if reason is None else b"HTTP/1.1 %d %s\r\n" % (code, reason.encode()),
            _SERVER_LINE, _date_line(int(time.time())),
            b"Content-Type: application/json; charset=utf-8\r\nContent-Length: %d\r\n" % len(body),
            b"Connection: close\r\n\r\n" if self.close_connection else b"\r\n", body)))


class Server:
    """The HTTP front end: one asyncio event loop serves every connection, one coroutine each.

    The socket is bound when the server is made, so ``server_address`` holds its port.
    ``serve_forever`` runs the loop on the calling thread until ``shutdown``, called from any
    thread, which returns once the loop has stopped and closed the socket and every connection.
    """

    def __init__(self, service: PredictionService, address: tuple[str, int]) -> None:
        self.service = service
        self.socket = socket.create_server(address)
        self.server_address = self.socket.getsockname()
        self._shutdown_request, self._stopped = threading.Event(), threading.Event()

    def serve_forever(self) -> None:
        import asyncio
        try:
            asyncio.run(self._serve())
        finally:
            self._stopped.set()

    async def _serve(self) -> None:
        import asyncio
        server = await asyncio.start_server(
            lambda reader, writer: _Connection(self.service, reader, writer).serve(),
            sock=self.socket, limit=MAX_LINE_BYTES - 1,    # readline's limit leaves out the "\n"
        )
        try:
            while not self._shutdown_request.is_set():      # polled, as socketserver does every 0.5 s
                await asyncio.sleep(0.05)
        finally:
            server.close()      # asyncio.run then cancels each connection's coroutine, which closes it

    def shutdown(self) -> None:
        self._shutdown_request.set()
        self._stopped.wait()

    def server_close(self) -> None:
        self.socket.close()


def parse_bind(bind: Optional[str] = None) -> tuple[str, int]:
    value = bind or os.environ.get(BIND_ENV_VAR, DEFAULT_BIND)
    host, _, port = value.rpartition(":")
    # isascii: isdigit alone passes digits of other scripts, which int() reads; a port has at most 5 digits
    if not (host and port.isascii() and port.isdigit() and len(port) <= 5 and int(port) <= 65535):
        raise ValidationError(f"bind address must be host:port with a port of 0-65535, got {value!r}")
    return host, int(port)


def make_server(service: PredictionService, bind: Optional[str] = None) -> Server:
    """HTTP server bound per the argument or the RESPRED_BIND env var."""
    return Server(service, parse_bind(bind))


def serve_forever(service: PredictionService, bind: Optional[str] = None) -> None:
    server = make_server(service, bind)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}")
    try:
        server.serve_forever()
    finally:
        server.server_close()
