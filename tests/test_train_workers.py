"""train_all's worker processes: the same heads as in-process training, errors raised here, no child left."""

import os
import pickle
import re
import signal
import sys
import threading
from dataclasses import replace

import pytest

from respred import ingest
from respred.discretize import TARGET_NAMES
from respred.nnet import Network, TrainConfig
from respred.pipeline import encode_split, train_all, train_target
from respred.simsynth import GeneratorSpec, generate

HIDDEN = (16, 8, 4)
SPLIT_SEED = 1


@pytest.fixture(scope="module")
def synth():
    return generate(GeneratorSpec(seed=4, n_tasks=600))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_head_equals_train_target_in_process(synth):
    cfg = TrainConfig(max_epochs=2, seed=3, learning_rate=1e-3)
    models, details = train_all(synth.dataset, synth.targets, cfg, hidden=HIDDEN, split_seed=SPLIT_SEED)
    assert_no_child_left()

    bins, data = encode_split(synth.dataset, synth.targets, SPLIT_SEED)
    for i, target in enumerate(TARGET_NAMES):
        here = train_target(data, target, bins[target], replace(cfg, seed=cfg.seed + i), HIDDEN)
        there = details[target]
        assert models[target] is there.model
        for state in ("params", "running"):
            ours, theirs = getattr(here.model.net, state), getattr(there.model.net, state)
            assert list(ours) == list(theirs), target
            for key in ours:
                assert ours[key].tobytes() == theirs[key].tobytes(), (target, key)
        for field in ("train_loss", "val_loss", "val_accuracy", "best_epoch", "stop_reason",
                      "best_val_accuracy", "weights_trained"):
            assert getattr(there.report, field) == getattr(here.report, field), (target, field)
        assert len(there.report.epoch_seconds) == len(there.report.train_loss)
        assert (there.test_accuracy, there.majority_baseline) == (here.test_accuracy, here.majority_baseline)
        assert there.model.train_summary == here.model.train_summary
        assert there.model.bins == bins[target]


def test_a_worker_exception_is_raised_with_its_type_and_message(synth):
    hidden = (16, -1, 4)          # a negative width fails inside the worker, at Network()
    bins, data = encode_split(synth.dataset, synth.targets, SPLIT_SEED)
    with pytest.raises(Exception) as in_process:
        Network(data.encoder, n_classes=bins["RAMCOUNT"].n_classes, hidden=hidden)

    with pytest.raises(type(in_process.value), match=f"^{re.escape(str(in_process.value))}$") as raised:
        train_all(synth.dataset, synth.targets, TrainConfig(max_epochs=2), hidden=hidden)
    assert isinstance(raised.value.__cause__, RuntimeError)
    assert "Traceback" in str(raised.value.__cause__)
    assert_no_child_left()


class RaisesCellErrorWhenUnpickled:
    """Pickles as a call that raises ingest.CellError, whose pickle does not load again."""

    def __reduce__(self):
        return ingest._parse_int, ("x", "hidden")


def test_an_exception_that_does_not_unpickle_becomes_a_runtime_error(synth):
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(ingest.CellError("non-numeric", "message")))

    hidden = (16, RaisesCellErrorWhenUnpickled(), 4)
    with pytest.raises(RuntimeError, match="training worker for RAMCOUNT failed") as raised:
        train_all(synth.dataset, synth.targets, TrainConfig(max_epochs=2), hidden=hidden)
    assert "CellError: non-numeric value 'x' in column hidden" in str(raised.value)
    assert_no_child_left()


def test_a_warning_that_is_an_error_here_is_one_in_the_workers(synth, monkeypatch):
    # at this rate the training arithmetic overflows within two epochs: the weights
    # pass 1e20 in one step, and the next float32 matmul overflows
    cfg = TrainConfig(max_epochs=2, learning_rate=1e20)
    monkeypatch.setattr(sys, "warnoptions", [*sys.warnoptions, "error::RuntimeWarning"])
    with pytest.raises(RuntimeWarning, match="encountered") as raised:
        train_all(synth.dataset, synth.targets, cfg, hidden=HIDDEN)
    assert isinstance(raised.value.__cause__, RuntimeError)
    assert_no_child_left()


def test_an_interrupt_while_the_workers_train_reaps_them():
    synth = generate(GeneratorSpec(seed=5, n_tasks=2000))
    # several seconds of training per head, far past the interrupt
    cfg = TrainConfig(batch_size=16, max_epochs=200, patience=200, learning_rate=1e-3)
    interrupt = threading.Timer(1.5, os.kill, (os.getpid(), signal.SIGINT))
    interrupt.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            train_all(synth.dataset, synth.targets, cfg, hidden=HIDDEN)
    finally:
        interrupt.cancel()
        interrupt.join()
    assert_no_child_left()
