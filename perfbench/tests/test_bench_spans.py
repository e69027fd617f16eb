"""Self-time arithmetic, instrumentation and the per-layer roll-up."""

import pytest

import respred
from respred import nnet, pipeline

from layers import layer_metrics, train_step_flops
from spans import PROBES, Span, Tracer, covered_ns, instrument, self_times


def test_covered_counts_overlapping_children_once():
    assert covered_ns([(10, 30), (20, 40)], 0, 100) == 30
    assert covered_ns([(10, 30), (30, 40), (50, 60)], 0, 100) == 40
    assert covered_ns([(10, 20), (12, 18), (15, 25)], 0, 100) == 15


def test_covered_clips_children_to_the_parent():
    assert covered_ns([(-10, 10), (90, 120)], 0, 100) == 20
    assert covered_ns([(200, 300)], 0, 100) == 0


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(1, "pipeline.train_all", 0, 100, 0, None),
        Span(2, "nnet.train", 10, 60, 1, None),      # overlaps its sibling by 10
        Span(3, "encode.batch", 50, 70, 1, None),
        Span(4, "nnet.train_step", 20, 30, 2, None),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 100 - 60, 2: 50 - 10, 3: 20, 4: 10}


def test_tracer_nests_spans_by_thread_stack():
    tracer = Tracer("t")
    with tracer.span("bench.pass") as outer:
        with tracer.span("ingest.split"):
            pass
    inner, root = tracer.spans
    assert root.parent == 0 and inner.parent == outer
    assert root.start <= inner.start <= inner.end <= root.end


def test_instrument_wraps_every_reference_and_restores_it():
    original_train = nnet.train
    tracer = Tracer("t")
    with instrument(tracer):
        assert nnet.train is not original_train
        assert pipeline.train is nnet.train          # the from-import copy is wrapped too
        respred.fit_bins([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], "RAMCOUNT")
    assert nnet.train is original_train and pipeline.train is original_train
    assert [s.name for s in tracer.spans] == ["discretize.fit_bins"]


def test_every_probe_names_a_public_callable():
    for module, attr, _name, _attr in PROBES:
        owner = __import__(module, fromlist=["_"])
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner) and not attr.split(".")[-1].startswith("_")


def test_layer_metrics_roll_up_self_time_per_pass():
    ms = 1_000_000
    spans = [
        Span(1, "bench.pass", 0, 100 * ms, 0, None),
        Span(2, "ingest.parse_tasks", 0, 30 * ms, 1, None),
        Span(3, "nnet.predict_batch", 30 * ms, 90 * ms, 1, None),
        Span(4, "encode.batch", 30 * ms, 40 * ms, 3, None),
        Span(5, "metrics.evaluate", 90 * ms, 100 * ms, 1, None),
    ]
    out = layer_metrics(spans, n_passes=1)
    assert out["ingest.parse_tasks_s"] == pytest.approx(0.03)
    assert out["nnet.self_s"] == pytest.approx(0.05) and out["encode.self_s"] == pytest.approx(0.01)
    assert out["trace.coverage"] == pytest.approx(1.0)
    assert out["metrics.evaluate_s"] == pytest.approx(0.01)
    assert out["service.requests_sent"] == 0.0


def test_train_step_flops_counts_three_matmuls_per_layer():
    # one 4->2 layer and a 2->1 output: forward 2*rows*(8+2), backward twice that
    assert train_step_flops(4, (2,), 1, rows=10) == 6 * 10 * (4 * 2 + 2 * 1)
