"""train_all: one split, one encoder and one artifact encoder shared by the four heads.

Heads train in float32 and are served in float64.
"""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from respred.discretize import TARGET_NAMES
from respred.nnet import TrainConfig, forward, predict
from respred.pipeline import _fit, _fit_inputs, encode_split, evaluate_models, evaluate_predictions, train_all
from respred.service import load_artifact, save_artifact
from respred.simsynth import GeneratorSpec, generate

CFG = TrainConfig(max_epochs=2, seed=3, learning_rate=1e-3)
HIDDEN = (16, 8, 4)


@pytest.fixture(scope="module")
def synth():
    return generate(GeneratorSpec(seed=4, n_tasks=600))


@pytest.fixture(scope="module")
def trained(synth):
    return train_all(synth.dataset, synth.targets, CFG, hidden=HIDDEN, split_seed=1)


@pytest.fixture(scope="module")
def fitted(synth):
    """Each head's ``_fit`` values and its validation batch, labeled."""
    bins, data = encode_split(synth.dataset, synth.targets, 1)
    return {target: (_fit(_fit_inputs(data), target, bins[target], CFG, HIDDEN),
                     replace(data.batches[1], labels=data.split.val.labels[target]))
            for target in TARGET_NAMES}


def test_fit_returns_a_float64_network(fitted):
    for target, ((net, *_), _val) in fitted.items():
        for state in (net.params, net.running):
            assert {k: v.dtype for k, v in state.items()} == {k: np.dtype(np.float64) for k in state}, target


def test_best_val_accuracy_is_that_of_the_returned_network(fitted):
    # the epoch is selected on the numbers the widened network serves
    for target, ((net, report, *_), val) in fitted.items():
        assert report.weights_trained, target
        accuracy = float((forward(net, val).argmax(axis=1) == val.labels).mean())
        assert report.best_val_accuracy == accuracy, target


def test_an_artifact_loads_the_params_it_was_saved_from(trained, tmp_path):
    models, _ = trained
    path = tmp_path / "artifact.rpa"
    save_artifact(models, path)
    loaded = load_artifact(path).models
    for t in TARGET_NAMES:
        for state in ("params", "running"):
            ours, theirs = getattr(models[t].net, state), getattr(loaded[t].net, state)
            assert list(ours) == list(theirs), (t, state)
            for k in ours:
                assert ours[k].dtype == theirs[k].dtype and ours[k].tobytes() == theirs[k].tobytes(), (t, k)


def test_heads_share_one_test_split(trained):
    _, details = trained
    ids = {t: [r.task_id for r in details[t].test.records] for t in TARGET_NAMES}
    assert ids["RAMCOUNT"]
    for t in TARGET_NAMES:
        assert ids[t] == ids["RAMCOUNT"], t
        assert details[t].test is details["RAMCOUNT"].test, t


def test_heads_share_one_encoder(trained):
    models, _ = trained
    shared = models["RAMCOUNT"].encoder
    for t in TARGET_NAMES:
        assert models[t].encoder is shared, t


def test_artifact_header_carries_one_encoder(trained, tmp_path):
    models, _ = trained
    path = tmp_path / "artifact.rpa"
    save_artifact(models, path)
    raw = path.read_bytes()
    header_len = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16:16 + header_len])
    assert "encoder" in header
    for t in TARGET_NAMES:
        assert "encoder" not in header["targets"][t], t

    loaded = load_artifact(path).models
    shared = loaded["RAMCOUNT"].encoder
    assert shared == models["RAMCOUNT"].encoder
    assert all(loaded[t].encoder is shared for t in TARGET_NAMES)


def test_evaluate_models_is_predict_then_evaluate_predictions(trained):
    models, details = trained
    labeled = details["RAMCOUNT"].test
    _, probs = predict(models, labeled.records)
    assert evaluate_predictions(probs, labeled).as_dict() == evaluate_models(models, labeled).as_dict()
