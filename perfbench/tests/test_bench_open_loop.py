"""Open-loop lateness accounting and the serve output checks."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from workloads import Exchange, ack_problem, lateness, open_loop, parse_json, predict_body_problem

SERVICE_S = 0.02


class _SlowHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(SERVICE_S)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_lateness_is_measured_from_the_due_time():
    exchanges = [Exchange(0, due=1.0, sent=1.0, done=1.002, status=200, body=b""),
                 Exchange(1, due=1.01, sent=1.05, done=1.06, status=200, body=b"")]
    latency, lag = lateness(exchanges)
    assert latency == pytest.approx([2.0, 50.0])
    assert lag == pytest.approx([0.0, 40.0])


def test_a_stalled_slot_makes_later_requests_late_and_counts_the_wait():
    # one slot, a request every 10 ms, 20 ms of service: request i waits ~10*i ms
    server = HTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        results = open_loop(server.server_address[1], [("/x", b"{}")] * 8, rate=100.0, slots=1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    latency, lag = lateness(results)
    assert all(r.status == 200 for r in results)
    assert lag[0] < 10 and lag[-1] > 50
    for r, lat, late in zip(results, latency, lag):
        assert lat >= (r.done - r.sent) * 1e3 and lat == pytest.approx(late + (r.done - r.sent) * 1e3)


def _expected():
    pred = {"class": 1, "probabilities": [0.25, 0.75], "allocation": 2.0}
    return {"task_id": "t1", "predictions": {t: dict(pred) for t in ("RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME")}}


def test_predict_check_accepts_an_exact_body():
    assert predict_body_problem(parse_json(json.dumps(_expected()).encode()), _expected()) is None


@pytest.mark.parametrize("mutate, reason", [
    (lambda d: d["predictions"]["CPUTIME"].update(probabilities=[float("nan"), 0.75]), "strict JSON"),
    (lambda d: d["predictions"]["CPUTIME"].update(probabilities=[0.3, 0.75]), "sum"),
    (lambda d: d["predictions"]["CPUTIME"].update(probabilities=[0.250000001, 0.749999999]), "differ"),
    (lambda d: d["predictions"]["WALLTIME"].update({"class": 0}), "class"),
    (lambda d: d.update(task_id="t2"), "task_id"),
    (lambda d: d.pop("predictions"), "malformed"),
])
def test_predict_check_rejects_bad_bodies(mutate, reason):
    doc = _expected()
    mutate(doc)
    problem = predict_body_problem(parse_json(json.dumps(doc).encode()), _expected())
    assert problem is not None and reason in problem


def test_ack_check_compares_actual_classes():
    truth = {"RAMCOUNT": 1, "CPUTIME": 0, "IOINTENSITY": 1, "WALLTIME": 3}
    assert ack_problem({"actual_classes": dict(truth)}, truth) is None
    assert ack_problem({"actual_classes": {**truth, "WALLTIME": 2}}, truth) is not None
    assert ack_problem(None, truth) is not None
