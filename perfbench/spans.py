"""In-memory spans around calls into respred's public functions.

The benchmark measures every layer from outside: ``instrument`` swaps each
listed function, wherever a respred module holds a reference to it, for a
wrapper that records a span, and puts the originals back on exit. Spans
stay in memory until ``Tracer.write`` dumps them at the end of a run.

A layer is the module a span is named after (``nnet.forward`` belongs to
``nnet``); its self time is the span's duration minus the part of it that
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Union


class Span(NamedTuple):
    id: int
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int         # 0 for a root span
    attr: object        # small call detail, such as the target a head is trained for

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Collects spans; the parent of a span is the innermost open span of its thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return stack, span_id, parent

    @contextlib.contextmanager
    def span(self, name: str, attr: object = None):
        stack, span_id, parent = self._push()
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, attr))

    def wrap(self, fn: Callable, name: Union[str, Callable], attr: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call; ``name`` and ``attr`` may depend on the arguments."""
        # the same steps as span(), inlined: this runs once per probed call
        push, record, clock = self._push, self.spans.append, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span_attr = attr(args, kwargs) if attr else None
            stack, span_id, parent = push()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(Span(span_id, span_name, start, end, parent, span_attr))

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "name": s.name, "start_ns": s.start,
                    "end_ns": s.end, "parent": s.parent, "attr": s.attr,
                }) + "\n")


# --- self time ----------------------------------------------------------------

def covered_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]; overlaps count once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> nanoseconds of its duration that no child span covers."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_ns(children[s.id], s.start, s.end) for s in spans}


def descendants(spans: Iterable[Span], root: int) -> list[Span]:
    """Every span below ``root`` (not the root itself)."""
    by_parent: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_parent[s.parent].append(s)
    out: list[Span] = []
    todo = [root]
    while todo:
        kids = by_parent[todo.pop()]
        out.extend(kids)
        todo.extend(k.id for k in kids)
    return out


def layer_self_seconds(spans: Iterable[Span], selfs: dict[int, int]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += selfs[s.id] / 1e9
    return dict(out)


# --- instrumentation ------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return kwargs[key] if key in kwargs else args[index]


def _by_rows(single: str, many: str, index: int = 1, key: str = "records") -> Callable:
    return lambda a, k: single if len(_arg(a, k, index, key)) == 1 else many


# (module, attribute, span name, span attr). A dotted attribute is a method.
PROBES: tuple[tuple[str, str, Union[str, Callable], Optional[Callable]], ...] = (
    ("respred.ingest", "parse_task_csv", "ingest.parse_tasks", None),
    ("respred.ingest", "parse_job_csv", "ingest.parse_jobs", None),
    ("respred.ingest", "stratified_split", "ingest.split", None),
    ("respred.targets", "aggregate_scouts", "targets.derive", None),
    ("respred.discretize", "fit_bins", "discretize.fit_bins", None),
    ("respred.discretize", "assign_classes", "discretize.assign", None),
    ("respred.discretize", "assign_class", "discretize.assign", None),
    ("respred.discretize", "classes_to_resource_classes", "discretize.to_classes", None),
    ("respred.encode", "fit_encoder", "encode.fit", None),
    ("respred.encode", "encode", _by_rows("encode.one", "encode.batch", 0), None),
    ("respred.nnet", "train", "nnet.train", None),
    ("respred.nnet", "train_step", "nnet.train_step", None),
    ("respred.nnet", "make_dropout_masks", "nnet.dropout", None),
    ("respred.nnet", "forward", "nnet.forward", None),
    ("respred.nnet", "loss_and_grads", "nnet.loss_and_grads", None),
    ("respred.nnet", "adam_update", "nnet.adam", None),
    ("respred.nnet", "predict", _by_rows("nnet.predict_one", "nnet.predict_batch"), None),
    ("respred.pipeline", "train_all", "pipeline.train_all", None),
    ("respred.pipeline", "train_target", "pipeline.train_target", lambda a, k: _arg(a, k, 1, "target")),
    ("respred.pipeline", "label_dataset", "pipeline.label", None),
    ("respred.pipeline", "evaluate_models", "metrics.evaluate", None),
    ("respred.simsynth", "generate", "simsynth.generate", None),
    ("respred.simsynth", "simulate", lambda a, k: f"simsynth.{_arg(a, k, 1, 'mode')}_sim", None),
    ("respred.simsynth", "compare", "simsynth.compare", None),
    ("respred.service", "save_artifact", "service.save_artifact", None),
    ("respred.service", "load_artifact", "service.load_artifact", None),
    ("respred.service", "predict_request", "service.predict_request", None),
    ("respred.service", "PredictionService.feedback", "service.feedback", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer, probes=PROBES):
    """Trace every probe for the duration of the block, then restore the originals."""
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, span_attr in probes:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            traced = tracer.wrap(original, name, span_attr)
            if path:
                undo.append((owner, leaf, original))
                setattr(owner, leaf, traced)
                continue
            # `from .x import f` leaves a reference in every importing module
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "respred" or mod_name.startswith("respred.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, traced)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
