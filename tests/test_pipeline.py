"""train_all: one split, one encoder and one artifact encoder shared by the four heads."""

import json
import struct

import pytest

from respred.discretize import TARGET_NAMES
from respred.nnet import TrainConfig, predict
from respred.pipeline import evaluate_models, evaluate_predictions, train_all
from respred.service import load_artifact, save_artifact
from respred.simsynth import GeneratorSpec, generate


@pytest.fixture(scope="module")
def trained():
    synth = generate(GeneratorSpec(seed=4, n_tasks=600))
    cfg = TrainConfig(max_epochs=2, seed=3, learning_rate=1e-3)
    return train_all(synth.dataset, synth.targets, cfg, hidden=(16, 8, 4), split_seed=1)


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
