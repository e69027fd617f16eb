"""The benchmark's probes still fit the package.

perfbench/spans.py wraps respred functions by module and attribute name,
and its span-name and span-attribute lambdas read call arguments by
position. A refactor that renames a probed function or moves one of those
arguments would silently break traced benchmark runs; this test catches it.
The test only reads perfbench/.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
spans = importlib.import_module("spans")
sys.path.remove(str(PERFBENCH))


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in spans.PROBES])
def test_probe_resolves(module_name, attr):
    assert callable(resolve(module_name, attr))


@pytest.mark.parametrize("module_name, attr, index, name", [
    ("respred.pipeline", "train_target", 1, "target"),
    ("respred.encode", "encode", 0, "records"),
    ("respred.nnet", "predict", 1, "records"),
    ("respred.simsynth", "simulate", 1, "mode"),
])
def test_probed_argument_positions(module_name, attr, index, name):
    params = list(inspect.signature(resolve(module_name, attr)).parameters)
    assert params[index] == name, params


def test_train_calls_step_and_masks_through_module_globals(monkeypatch):
    # spans.instrument wraps nnet.train_step and nnet.make_dropout_masks where
    # the module holds them; a train() that bypassed those names would hide
    # its steps from traced runs
    import numpy as np

    from respred import nnet
    from respred.encode import CategoricalSpec, EncodedBatch, EncoderSpec, NumericSpec

    calls = {"train_step": 0, "make_dropout_masks": 0}
    for name in calls:
        original = getattr(nnet, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(nnet, name, counted)

    encoder = EncoderSpec(
        categorical=(CategoricalSpec("framework", {"<UNK>": 0, "x": 1}, 2),),
        numeric=(NumericSpec("n_events", "identity", 0.0, 1.0),),
    )
    rng = np.random.default_rng(0)
    n_rows, batch_size, epochs = 50, 16, 3

    def batch(n):
        return EncodedBatch({"framework": rng.integers(0, 2, n)}, rng.standard_normal((n, 1)),
                            rng.integers(0, 2, n), n)

    net = nnet.Network(encoder, n_classes=2, hidden=(4, 3, 2), seed=0)
    cfg = nnet.TrainConfig(batch_size=batch_size, max_epochs=epochs, patience=epochs, seed=0)
    report = nnet.train(net, batch(n_rows), batch(20), cfg)
    steps = len(report.train_loss) * -(-n_rows // batch_size)
    assert len(report.train_loss) == epochs
    assert calls == {"train_step": steps, "make_dropout_masks": steps}
