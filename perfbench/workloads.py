"""The three workloads: ``train``, ``serve`` and ``replay``.

Every workload makes its inputs from the seed with the program's own CLI
(``respred synth``, and ``respred train`` with a short epoch budget where a
model is needed but not measured), then measures one path through the
program:

- ``train`` times ``pipeline.train_all`` plus ``service.save_artifact`` on
  the acceptance configuration. Nearly all of it is the nnet train step.
- ``serve`` drives ``python -m respred serve`` over loopback: an open loop
  at a fixed offered rate (9 /predict per /feedback), then a closed loop
  that finds the sustainable /predict rate. Per-request overhead (HTTP,
  JSON, one-record encode, batch-of-1 forward) does the work.
- ``replay`` is the offline analyst chain on CSVs: parse, derive targets,
  batch predict, evaluate, and simulate scout against ML. Large-batch
  inference plus per-row Python loops, no backward pass and no HTTP.

Calls into respred go through module attributes (``pipeline.train_all``),
never through names bound at import, so that ``spans.instrument`` can wrap
them in a traced run.
"""

from __future__ import annotations

import contextlib
import csv
import http.client
import importlib
import itertools
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import layers
from spans import Tracer
from stats import summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from respred import discretize, ingest, nnet, pipeline, service, simsynth, targets  # noqa: E402

# the package re-exports the function `encode` under the submodule's name
encoding = importlib.import_module("respred.encode")

TARGETS = ("RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME")
ACCEPTANCE_CONFIG = {"max_epochs": 50, "seed": 100, "learning_rate": 1e-3}
MIN_TEST_ACCURACY = 0.90
# serve and replay need a model, not a good one: prediction cost does not
# depend on how well the weights are trained. The budget only has to make
# ML brokerage beat scouts in replay's output check.
SHORT_EPOCHS = 5
SHORT_LEARNING_RATE = 1e-2
SETUP_REPEATS = 5
# Fixed, never recomputed. On a 2-core Xeon VM one closed-loop connection
# sustained 440-490 req/s, and two sustained as little as 190 req/s while
# the host was busy; 100 req/s stays under both, so latency is mostly
# service time rather than queueing.
OFFERED_RATE = 100.0
PREDICTS_PER_FEEDBACK = 9
FEEDBACK_LAG = 5            # a feedback refers to the predict sent 5 requests earlier
# of --seconds; the closed loop gets the rest. At 15 s the open loop sends
# 1012 predicts, enough for a p99 with ten samples beyond it.
OPEN_LOOP_SHARE = 0.75
REQUEST_POOL = 1000         # distinct tasks the serve traffic cycles through
REPLAY_CHECK_SAMPLE = 32    # tasks whose batch class is checked against predict_request
# Batch workloads do fixed work, whatever --seconds says: one train pass
# (35-50 s), and three replay passes whose median absorbs one slow pass.
# A pass count that followed the clock would keep the slower, colder first
# pass alone exactly when the machine was slow, and widen the spread.
TRAIN_PASSES = 1
REPLAY_PASSES = 3
STEP_REPLAY_WARMUP = 5
STEP_REPLAY_STEPS = 40
PROB_SUM_TOL = 1e-6
CHILD_TIMEOUT_S = 600.0
IMPORT_SNIPPET = (
    "import sys, respred\n"
    "if len(sys.argv) > 1:\n"
    "    respred.load_artifact(sys.argv[1])\n"
    "print('ready', flush=True)\n"
)


@dataclass
class Context:
    seed: int
    seconds: float
    n_tasks: int
    work: Path
    tracer: Optional[Tracer] = None

    def span(self, name: str, attr: object = None):
        return self.tracer.span(name, attr) if self.tracer else contextlib.nullcontext()


@dataclass
class Outcome:
    e2e: dict[str, float]                    # the end-to-end metrics of BENCHMARK.json
    reported: dict[str, tuple[float, str]]   # the same figures under their workload's own names
    attempted: int
    failed: int
    passes: int = 1
    flops_per_step: Optional[float] = None
    http: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Checks:
    """Counts output checks; a failed check is counted, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


# --- child processes ---------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(*args: object) -> None:
    cmd = [sys.executable, "-m", "respred", *map(str, args)]
    done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {done.returncode}: {done.stderr.strip()[-2000:]}")


def synthesize(ctx: Context) -> Path:
    """tasks.csv, jobs.csv and targets.csv for GeneratorSpec(seed, n_tasks)."""
    out = ctx.work / "data"
    run_cli("synth", "--out", out, "--n-tasks", ctx.n_tasks, "--seed", ctx.seed)
    return out


def short_artifact(ctx: Context, data: Path) -> Path:
    path = ctx.work / "short.rpa"
    run_cli("train", "--data", data / "tasks.csv", "--targets", data / "targets.csv", "--out", path,
            "--max-epochs", SHORT_EPOCHS, "--learning-rate", SHORT_LEARNING_RATE,
            "--seed", ACCEPTANCE_CONFIG["seed"])
    return path


def fresh_import_seconds(artifact: Optional[Path] = None) -> float:
    """Spawn to ready: a new interpreter imports respred (and loads the artifact)."""
    args = [sys.executable, "-c", IMPORT_SNIPPET] + ([str(artifact)] if artifact else [])
    started = time.perf_counter()
    proc = subprocess.Popen(args, env=child_env(), stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"import probe exited {proc.returncode}")
    return elapsed


def read_targets(data: Path, dataset: ingest.Dataset) -> dict[str, np.ndarray]:
    """The synthetic ground truth, aligned with the dataset's records."""
    with (data / "targets.csv").open(newline="") as fh:
        by_task = {row["TASK_ID"]: row for row in csv.DictReader(fh)}
    return {t: np.asarray([float(by_task[r.task_id][t]) for r in dataset.records]) for t in TARGETS}


def request_doc(record: ingest.TaskRecord) -> dict:
    return {
        "TASK_ID": record.task_id,
        "PROCESSINGTYPE": record.processing_type,
        "FRAMEWORK": record.framework,
        "NCORE": record.core_count,
        "NINPUT": record.n_input,
        "NFILES": record.n_files,
        "NEVENTS": record.n_events,
    }


def load_in_process(path: Path) -> service.ModelArtifact:
    """Load as often as set-up is repeated, so a traced run has a median load time."""
    for _ in range(SETUP_REPEATS):
        artifact = service.load_artifact(path)
    return artifact


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def batch_e2e(setup: list[float], passes: list[float], tasks_per_s: list[float],
              accuracy_min: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_self_mb(),
        "latency_p50_ms": statistics.median(passes) * 1e3,
        "tasks_per_s": statistics.median(tasks_per_s),
        "accuracy_min": accuracy_min,
    }


# --- train ----------------------------------------------------------------------

def run_train(ctx: Context) -> Outcome:
    data = synthesize(ctx)
    setup = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    dataset = ingest.parse_task_csv(data / "tasks.csv")
    values = read_targets(data, dataset)
    cfg = nnet.TrainConfig(**ACCEPTANCE_CONFIG)
    artifact = ctx.work / "trained.rpa"

    checks = Checks()
    passes: list[float] = []
    rates: list[float] = []
    accuracies: list[float] = []
    for _ in range(TRAIN_PASSES):
        t0 = time.perf_counter()
        with ctx.span("bench.pass"):
            models, details = pipeline.train_all(dataset, values, cfg)
            service.save_artifact(models, artifact, train_config=cfg)
        passes.append(time.perf_counter() - t0)
        epochs = 0
        for target, d in details.items():
            checks.record(d.report.weights_trained, f"{target}: weights not trained ({d.report.stop_reason})")
            checks.record(d.test_accuracy >= MIN_TEST_ACCURACY,
                          f"{target}: test accuracy {d.test_accuracy:.4f} < {MIN_TEST_ACCURACY}")
            accuracies.append(d.test_accuracy)
            epochs += len(d.report.train_loss)
        # training throughput: tasks through one epoch of one head, per second
        rates.append(len(dataset) * epochs / len(details) / passes[-1])

    flops = None
    if ctx.tracer:
        flops = replay_steps(ctx, models["RAMCOUNT"], dataset, values["RAMCOUNT"], cfg)
        with ctx.span("bench.inputs"):
            simsynth.generate(simsynth.GeneratorSpec(seed=ctx.seed, n_tasks=ctx.n_tasks))

    e2e = batch_e2e(setup, passes, rates, min(accuracies))
    return Outcome(
        e2e=e2e,
        reported={
            "setup_s": (e2e["setup_s"], "s"),
            "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            "train_s": (statistics.median(passes), "s"),
            "test_acc_min": (min(accuracies), "ratio"),
        },
        attempted=checks.attempted,
        failed=checks.failed,
        passes=len(passes),
        flops_per_step=flops,
        detail={"passes_s": passes, "setup_runs_s": setup, "epochs_per_pass": epochs},
        problems=checks.problems,
    )


def replay_steps(ctx: Context, model: nnet.TargetModel, dataset: ingest.Dataset,
                 values: np.ndarray, cfg: nnet.TrainConfig) -> float:
    """Replay fixed train steps through the public nnet functions, one phase at a time.

    ``train`` is a single function, so its phases are timed here instead:
    one network takes the steps as dropout masks, forward, loss_and_grads
    and adam_update calls, a twin takes them as whole ``train_step`` calls,
    both on the same minibatches and masks. Returns the flops of one step.
    """
    labels = discretize.assign_classes(values, model.bins)
    batch = encoding.encode(dataset.records, model.encoder, labels=labels)
    weights = nnet.class_weight_vector(labels, model.net.n_classes)
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(batch.row_count)
    size = cfg.batch_size
    steps = STEP_REPLAY_WARMUP + STEP_REPLAY_STEPS
    minis = [batch.take(order[np.arange(i * size, (i + 1) * size) % batch.row_count]) for i in range(steps)]

    def fresh() -> nnet.Network:
        # trained weights, so the arithmetic matches the steps train() took
        net = nnet.Network(model.encoder, model.net.n_classes, hidden=model.net.hidden, seed=cfg.seed)
        net.restore(model.net.snapshot())
        return net

    phased, whole = fresh(), fresh()
    phased_state, whole_state = nnet.AdamState(), nnet.AdamState()
    for i, mini in enumerate(minis):
        with ctx.span("bench.step_replay") if i >= STEP_REPLAY_WARMUP else contextlib.nullcontext():
            masks = nnet.make_dropout_masks(phased, mini.row_count, cfg.dropout_rates, rng)
            nnet.forward(phased, mini, mode="train", dropout_masks=masks)
            _, grads, _ = nnet.loss_and_grads(phased, mini, cfg, weights, mode="train", dropout_masks=masks)
            nnet.adam_update(phased.params, grads, phased_state, cfg)
            nnet.train_step(whole, mini, cfg, whole_state, weights, masks)
    n_out = model.net.params["out:W"].shape[1]
    return layers.train_step_flops(model.net.input_width, model.net.hidden, n_out, size)


# --- serve ----------------------------------------------------------------------

JSON_HEADERS = {"Content-Type": "application/json"}


def http_call(conn: http.client.HTTPConnection, method: str, path: str,
              body: Optional[bytes] = None) -> tuple[Optional[int], bytes]:
    """One HTTP/1.1 exchange. http.client reconnects by itself after the server closes."""
    try:
        conn.request(method, path, body=body, headers=JSON_HEADERS if body is not None else {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return None, b""


class Server:
    """``python -m respred serve`` on a free loopback port, spawned until its first 200 /health."""

    def __init__(self, artifact: Path, feedback_log: Path, stderr_path: Path) -> None:
        started = time.perf_counter()
        deadline = started + CHILD_TIMEOUT_S
        self._stderr = stderr_path.open("ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "respred", "serve", "--artifact", str(artifact),
             "--bind", "127.0.0.1:0", "--feedback-log", str(feedback_log)],
            env=child_env(), stdout=subprocess.PIPE, stderr=self._stderr,
        )
        try:
            self.port = self._read_port(deadline)
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            while http_call(conn, "GET", "/health")[0] != 200:
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.002)
            conn.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [], max(deadline - time.perf_counter(), 0))
            if not ready:
                raise RuntimeError("server printed no bind address")
            chunk = os.read(self.proc.stdout.fileno(), 256)
            if not chunk:
                raise RuntimeError(f"server exited before binding (see {self._stderr.name})")
            line += chunk
        return int(line.decode().strip().rsplit(":", 1)[1].rstrip("/"))

    def stop(self) -> float:
        """Terminate, reap, and return the process's peak resident memory in MB."""
        if self.proc.returncode is not None:
            return 0.0
        self.proc.terminate()
        deadline = time.perf_counter() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                deadline = math.inf
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._stderr.close()
        return usage.ru_maxrss / 1024.0


@dataclass
class Exchange:
    index: int          # position in the schedule (open loop) or in the pool (closed loop)
    due: float
    sent: float
    done: float
    status: Optional[int]
    body: bytes


def open_loop(port: int, bodies: list[tuple[str, bytes]], rate: float, slots: int) -> list[Exchange]:
    """Send request i at start + i/rate over ``slots`` persistent connections.

    A request whose slot is still busy at its due time goes out late; its
    latency is taken from the due time, so a stall also costs the requests
    queued behind it.
    """
    results: list[Optional[Exchange]] = [None] * len(bodies)
    counter = itertools.count()
    start = time.perf_counter() + 0.05

    def worker(_slot: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        for i in iter(counter.__next__, None):
            if i >= len(bodies):
                break
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            path, body = bodies[i]
            sent = time.perf_counter()
            status, payload = http_call(conn, "POST", path, body)
            results[i] = Exchange(i, due, sent, time.perf_counter(), status, payload)
        conn.close()

    run_threads(worker, slots)
    return results  # type: ignore[return-value]


def closed_loop(port: int, bodies: list[bytes], seconds: float, slots: int) -> tuple[list[Exchange], float]:
    """Each slot sends /predict back to back until the deadline; returns exchanges and wall time."""
    results: list[Exchange] = []
    start = time.perf_counter()
    deadline = start + seconds

    def worker(offset: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        mine = []
        for k in itertools.count(offset, slots):
            now = time.perf_counter()
            if now >= deadline:
                break
            idx = k % len(bodies)
            status, payload = http_call(conn, "POST", "/predict", bodies[idx])
            mine.append(Exchange(idx, now, now, time.perf_counter(), status, payload))
        conn.close()
        results.extend(mine)

    run_threads(worker, slots)
    end = max((r.done for r in results), default=deadline)
    return results, end - start


def run_threads(target, n: int) -> None:
    """Run target(slot) on n threads and wait for all of them."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON")


def parse_json(body: bytes) -> Optional[dict]:
    """The body as a JSON object, or None when it is not strict JSON (NaN and Infinity are not)."""
    try:
        doc = json.loads(body.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def same_sig9(a: float, b: float) -> bool:
    return f"{a:.9g}" == f"{b:.9g}"


def predict_body_problem(doc: Optional[dict], expected: dict) -> Optional[str]:
    """Why a /predict body is wrong, or None when it is right."""
    if doc is None:
        return "body is not a strict JSON object"
    try:
        if doc["task_id"] != expected["task_id"]:
            return f"task_id {doc['task_id']!r} != {expected['task_id']!r}"
        for t in TARGETS:
            got, want = doc["predictions"][t], expected["predictions"][t]
            probs = [float(p) for p in got["probabilities"]]
            if not all(math.isfinite(p) for p in probs):
                return f"{t}: non-finite probability"
            if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
                return f"{t}: probabilities sum to {sum(probs)!r}"
            if len(probs) != len(want["probabilities"]) or not all(
                    same_sig9(p, q) for p, q in zip(probs, want["probabilities"])):
                return f"{t}: probabilities differ from in-process predict_request"
            if got["class"] != want["class"] or got["allocation"] != want["allocation"]:
                return f"{t}: class or allocation differs from in-process predict_request"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed body ({exc!r})"
    return None


def ack_problem(doc: Optional[dict], actual_classes: dict[str, int]) -> Optional[str]:
    """Why a /feedback ack is wrong, or None when its actual_classes match assign_class."""
    if doc is None:
        return "ack is not a strict JSON object"
    got = doc.get("actual_classes")
    if not isinstance(got, dict) or any(got.get(t) != actual_classes[t] for t in TARGETS):
        return f"actual_classes {got!r} != {actual_classes!r}"
    return None


def lateness(exchanges: list[Exchange]) -> tuple[list[float], list[float]]:
    """Milliseconds from due to done (the latency) and from due to sent (the generator's lag)."""
    return ([(e.done - e.due) * 1e3 for e in exchanges],
            [max(e.sent - e.due, 0.0) * 1e3 for e in exchanges])


def run_serve(ctx: Context) -> Outcome:
    data = synthesize(ctx)
    artifact_path = short_artifact(ctx, data)
    dataset = ingest.parse_task_csv(data / "tasks.csv")
    truth = read_targets(data, dataset)
    artifact = load_in_process(artifact_path)
    bins = {t: artifact.models[t].bins for t in TARGETS}

    rng = np.random.default_rng(ctx.seed)
    pool = [int(i) for i in rng.choice(len(dataset), size=min(REQUEST_POOL, len(dataset)), replace=False)]
    docs = [request_doc(dataset.records[i]) for i in pool]
    actual_targets = [{t: float(truth[t][i]) for t in TARGETS} for i in pool]
    actual_classes = [{t: discretize.assign_class(v[t], bins[t]) for t in TARGETS} for v in actual_targets]

    with ctx.span("bench.inproc"):
        expected = []
        for doc in docs:
            response = service.predict_request(artifact, doc)
            response.pop("inference_seconds")
            expected.append(response)

    # the open-loop schedule: every tenth request is feedback on an earlier predict
    schedule: list[tuple[str, int]] = []
    n_open = max(int(OFFERED_RATE * ctx.seconds * OPEN_LOOP_SHARE), 2 * (PREDICTS_PER_FEEDBACK + 1))
    predicts = itertools.count()
    for i in range(n_open):
        if i % (PREDICTS_PER_FEEDBACK + 1) == PREDICTS_PER_FEEDBACK:
            schedule.append(("/feedback", schedule[i - FEEDBACK_LAG][1]))
        else:
            schedule.append(("/predict", next(predicts) % len(pool)))
    feedback_docs = [{
        "task_id": docs[k]["TASK_ID"],
        "predicted_classes": {t: expected[k]["predictions"][t]["class"] for t in TARGETS},
        "actual_targets": actual_targets[k],
    } for k in range(len(pool))]
    predict_bodies = [json.dumps(d).encode() for d in docs]
    open_bodies = [(path, predict_bodies[k] if path == "/predict" else json.dumps(feedback_docs[k]).encode())
                   for path, k in schedule]

    with ctx.span("bench.inproc"):
        svc = service.PredictionService(artifact, feedback_log=ctx.work / "inproc_feedback.jsonl")
        for path, k in schedule:
            if path == "/feedback":
                svc.feedback(feedback_docs[k])

    slots = len(os.sched_getaffinity(0))   # at most nproc connections
    servers = []
    try:
        for _ in range(SETUP_REPEATS):
            servers.append(Server(artifact_path, ctx.work / "feedback.jsonl", ctx.work / "server.stderr"))
            if len(servers) < SETUP_REPEATS:
                servers[-1].stop()
        port = servers[-1].port
        opened = open_loop(port, open_bodies, OFFERED_RATE, slots)
        closed, closed_wall = closed_loop(port, predict_bodies, ctx.seconds * (1 - OPEN_LOOP_SHARE), slots)
    finally:
        rss = [s.stop() for s in servers]
    peak_rss = max(rss)

    checks = Checks()
    counts = {"requests_sent": 0, "requests_ok": 0, "requests_4xx": 0, "requests_5xx": 0, "conn_errors": 0}
    right = {t: 0 for t in TARGETS}
    n_predict_ok = 0
    closed_ok = 0
    tagged = [(schedule[e.index][0], schedule[e.index][1], e, False) for e in opened]
    tagged += [("/predict", e.index, e, True) for e in closed]
    for path, k, e, in_closed_loop in tagged:
        counts["requests_sent"] += 1
        if e.status is None:
            counts["conn_errors"] += 1
            checks.record(False, f"{path}: connection error")
            continue
        if e.status != 200:
            counts["requests_4xx" if 400 <= e.status < 500 else "requests_5xx"] += 1
            checks.record(False, f"{path}: HTTP {e.status}")
            continue
        counts["requests_ok"] += 1
        doc = parse_json(e.body)
        if path == "/predict":
            problem = predict_body_problem(doc, expected[k])
            if checks.record(problem is None, f"/predict {docs[k]['TASK_ID']}: {problem}"):
                n_predict_ok += 1
                closed_ok += in_closed_loop
                for t in TARGETS:
                    right[t] += doc["predictions"][t]["class"] == actual_classes[k][t]
        else:
            problem = ack_problem(doc, actual_classes[k])
            checks.record(problem is None, f"/feedback {docs[k]['TASK_ID']}: {problem}")

    predict_lat, _ = lateness([e for e in opened if schedule[e.index][0] == "/predict"])
    feedback_lat, _ = lateness([e for e in opened if schedule[e.index][0] == "/feedback"])
    _, all_lag = lateness(opened)
    predict = summarize(predict_lat)
    feedback = summarize(feedback_lat)
    send_lag = summarize(all_lag)
    max_rps = closed_ok / closed_wall
    accuracy_min = min(right[t] / n_predict_ok for t in TARGETS) if n_predict_ok else 0.0
    setup = [s.setup_s for s in servers]
    e2e = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
        "latency_p50_ms": predict["p50"],
        "tasks_per_s": max_rps,
        "accuracy_min": accuracy_min,
    }
    http_layer = {"predict_p50_ms": predict["p50"], "feedback_p50_ms": feedback["p50"],
                  "send_lag_ms": send_lag["tail"], **counts}
    return Outcome(
        e2e=e2e,
        reported={
            "setup_s": (e2e["setup_s"], "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "predict_p50_ms": (predict["p50"], "ms"),
            f"predict_p{predict['tail_q']:g}_ms": (predict["tail"], "ms"),
            "feedback_p50_ms": (feedback["p50"], "ms"),
            "serve_max_rps": (max_rps, "req/s"),
        },
        attempted=checks.attempted,
        failed=checks.failed,
        http=http_layer,
        detail={"open_loop": {"offered_rps": OFFERED_RATE, "slots": slots, "predict_ms": predict,
                              "feedback_ms": feedback, "send_lag_ms": send_lag},
                "closed_loop": {"slots": slots, "wall_s": closed_wall, "ok": closed_ok},
                "setup_runs_s": setup, **counts},
        problems=checks.problems,
    )


# --- replay ---------------------------------------------------------------------

def replay_pass(ctx: Context, data: Path, artifact: service.ModelArtifact) -> dict:
    """The offline analyst chain over the CSVs; returns what the checks need."""
    dataset = ingest.parse_task_csv(data / "tasks.csv")
    jobs, _ = ingest.parse_job_csv(data / "jobs.csv")
    rcfg = simsynth.GeneratorSpec().resource_config
    with ctx.span("bench.derive"):
        by_task: dict[str, list] = {}
        for job in jobs:
            by_task.setdefault(job.task_id, []).append(job)
        derived = {t: np.empty(len(dataset)) for t in TARGETS}
        for i, record in enumerate(dataset.records):
            agg = targets.aggregate_scouts(by_task[record.task_id], rcfg).targets
            derived["RAMCOUNT"][i] = agg.ram_count
            derived["CPUTIME"][i] = agg.cpu_time
            derived["IOINTENSITY"][i] = agg.io_intensity
            derived["WALLTIME"][i] = agg.walltime
    bins = {t: artifact.models[t].bins for t in TARGETS}
    labeled = pipeline.label_dataset(dataset, derived, bins)
    classes, _ = nnet.predict(artifact.models, dataset.records)
    report = pipeline.evaluate_models(artifact.models, labeled)

    def predictor(records):
        if records is not dataset.records:
            raise ValueError("replay predictor called on other records")
        return classes

    inputs = simsynth.BrokerInputs(
        records=dataset.records,
        true_classes=discretize.classes_to_resource_classes({t: labeled.labels[t] for t in TARGETS}),
        true_targets=derived,
        bins=bins,
        jobs_by_task=by_task,
        resource_config=rcfg,
    )
    compared = simsynth.compare(inputs, simsynth.SimConfig(seed=ctx.seed), predictor=predictor)
    return {"records": dataset.records, "classes": classes, "report": report, "compare": compared}


def run_replay(ctx: Context) -> Outcome:
    data = synthesize(ctx)
    artifact_path = short_artifact(ctx, data)
    setup = [fresh_import_seconds(artifact_path) for _ in range(SETUP_REPEATS)]
    artifact = load_in_process(artifact_path)

    checks = Checks()
    passes: list[float] = []
    accuracies: list[float] = []
    rng = np.random.default_rng(ctx.seed)
    for _ in range(REPLAY_PASSES):
        t0 = time.perf_counter()
        with ctx.span("bench.pass"):
            out = replay_pass(ctx, data, artifact)
        passes.append(time.perf_counter() - t0)

        records, classes = out["records"], out["classes"]
        for i in rng.choice(len(records), size=min(REPLAY_CHECK_SAMPLE, len(records)), replace=False):
            one = service.predict_request(artifact, request_doc(records[i]))
            got = {t: one["predictions"][t]["class"] for t in TARGETS}
            checks.record(got == classes[i].as_dict(),
                          f"{records[i].task_id}: predict_request {got} != batch {classes[i].as_dict()}")
        scout, ml = out["compare"].scout, out["compare"].ml
        checks.record(ml.mean_turnaround_hours < scout.mean_turnaround_hours,
                      f"ML turnaround {ml.mean_turnaround_hours:.3f} h >= scout {scout.mean_turnaround_hours:.3f} h")
        accuracies.append(min(ev.accuracy for ev in out["report"].per_target.values()))

    e2e = batch_e2e(setup, passes, [len(out["records"]) / p for p in passes], min(accuracies))
    return Outcome(
        e2e=e2e,
        reported={
            "setup_s": (e2e["setup_s"], "s"),
            "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            "replay_s": (statistics.median(passes), "s"),
        },
        attempted=checks.attempted,
        failed=checks.failed,
        passes=len(passes),
        detail={"passes_s": passes, "setup_runs_s": setup,
                "scout_turnaround_h": out["compare"].scout.mean_turnaround_hours,
                "ml_turnaround_h": out["compare"].ml.mean_turnaround_hours},
        problems=checks.problems,
    )


WORKLOADS = {"train": run_train, "serve": run_serve, "replay": run_replay}
