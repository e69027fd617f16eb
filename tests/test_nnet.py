"""Network forward/backward, Adam, training loop and prediction contracts.

The gradient check perturbs every parameter element and compares central
finite differences against backprop in train mode (fixed dropout masks,
batch statistics) and inference mode (running statistics).
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from respred.encode import CategoricalSpec, EncodedBatch, EncoderSpec, NumericSpec, encode
from respred import nnet
from respred.ingest import TaskRecord
from respred.nnet import (
    BN_EPS,
    AdamState,
    NanLossError,
    Network,
    TargetModel,
    TrainConfig,
    adam_update,
    class_weight_vector,
    forward,
    loss,
    loss_and_grads,
    make_dropout_masks,
    predict,
    train,
    train_step,
    _bn_backward,
    _forward_cached,
)
from respred.discretize import explicit_bins


def tiny_encoder(n_numeric=2):
    return EncoderSpec(
        categorical=(
            CategoricalSpec("processing_type", {"<UNK>": 0, "a": 1, "b": 2}, 2),
            CategoricalSpec("framework", {"<UNK>": 0, "x": 1, "y": 2}, 2),
        ),
        numeric=tuple(
            NumericSpec(name, "identity", 0.0, 1.0)
            for name in ("n_events", "n_files")[:n_numeric]
        ),
    )


def tiny_batch(rng, n_rows=8, n_classes=3, n_numeric=2):
    return EncodedBatch(
        categorical_indices={
            "processing_type": rng.integers(0, 3, n_rows),
            "framework": rng.integers(0, 3, n_rows),
        },
        numeric_matrix=rng.standard_normal((n_rows, n_numeric)),
        labels=rng.integers(0, n_classes, n_rows),
        row_count=n_rows,
    )


def tiny_net(n_classes=3, seed=0):
    return Network(tiny_encoder(), n_classes=n_classes, hidden=(4, 3, 2), seed=seed)


def relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(abs(analytic), 1e-8)


# --- forward contracts

@pytest.mark.parametrize("mode", ["train", "inference"])
def test_index_beyond_vocabulary_is_refused(mode):
    batch = tiny_batch(np.random.default_rng(53), n_rows=3)
    batch.categorical_indices["framework"][1] = 3      # the vocabulary has 3 tokens
    with pytest.raises(ValueError, match="framework: index exceeds vocabulary size 3"):
        forward(tiny_net(), batch, mode=mode)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    net = tiny_net()
    probs = forward(net, tiny_batch(rng), mode="inference")
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6
    assert ((0 <= probs) & (probs <= 1)).all()


def test_zero_output_layer_gives_uniform():
    rng = np.random.default_rng(1)
    net = tiny_net()
    net.params["out:W"][:] = 0.0
    net.params["out:b"][:] = 0.0
    probs = forward(net, tiny_batch(rng), mode="inference")
    assert np.allclose(probs, 1.0 / 3.0)


def test_binary_head_emits_two_columns():
    rng = np.random.default_rng(2)
    net = tiny_net(n_classes=2)
    assert net.params["out:W"].shape[1] == 1
    probs = forward(net, tiny_batch(rng, n_classes=2), mode="inference")
    assert probs.shape == (8, 2)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_binary_train_forward_of_huge_logits_does_not_overflow(dtype):
    # exp of a logit overflows above about 88.7 in float32 and 709 in float64
    rng = np.random.default_rng(6)
    net = tiny_net(n_classes=2)
    for state in (net.params, net.running):
        for name, value in state.items():
            state[name] = value.astype(dtype)
    net.params["out:W"][:] = np.array([[3000.0], [-3000.0]], dtype)
    batch = tiny_batch(rng, n_rows=64, n_classes=2)
    batch.numeric_matrix = batch.numeric_matrix.astype(dtype)
    _, cache = _forward_cached(net, batch, "train", None)
    z = cache["x_last"] @ net.params["out:W"] + net.params["out:b"]
    assert z.min() < -2000 and z.max() > 2000
    with np.errstate(over="raise"):
        probs = forward(net, batch, mode="train")
    assert probs.dtype == dtype
    assert np.isfinite(probs).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 2 * np.finfo(dtype).eps


def test_binary_forward_of_a_very_negative_logit_does_not_overflow():
    rng = np.random.default_rng(4)
    net = tiny_net(n_classes=2)
    net.params["out:W"][:] = 0.0
    net.params["out:b"][:] = -1000.0
    with np.errstate(over="raise"):
        probs = forward(net, tiny_batch(rng, n_classes=2), mode="inference")
    assert (probs[:, 0] == 1.0).all() and (probs[:, 1] < 1e-300).all()


def test_inference_repeatable():
    rng = np.random.default_rng(3)
    net = tiny_net()
    batch = tiny_batch(rng)
    a = forward(net, batch, mode="inference")
    b = forward(net, batch, mode="inference")
    assert np.array_equal(a, b)


def test_forward_rejects_width_mismatch():
    rng = np.random.default_rng(4)
    net = tiny_net()
    batch = tiny_batch(rng, n_numeric=1)
    with pytest.raises(ValueError, match="width"):
        forward(net, batch, mode="inference")


# --- loss

def test_loss_perfect_predictions_leaves_l2_only():
    net = tiny_net()
    cfg = TrainConfig()
    labels = np.array([0, 1, 2])
    probs = np.eye(3)
    expected_l2 = 0.5 * cfg.l2_lambda * sum(
        float((net.params[k] ** 2).sum()) for k in net.weight_names()
    )
    # log(1) = 0 after the 1e-12 floor leaves only the penalty
    assert loss(probs, labels, np.ones(3), net, cfg) == pytest.approx(expected_l2, rel=1e-9)


def test_loss_uniform_predictions_is_log_k():
    net = tiny_net()
    cfg = TrainConfig(l2_lambda=0.0)
    probs = np.full((5, 3), 1 / 3)
    labels = np.array([0, 1, 2, 0, 1])
    assert loss(probs, labels, np.ones(3), net, cfg) == pytest.approx(math.log(3), rel=1e-12)


def test_loss_weighted_two_sample_hand_computation():
    net = tiny_net(n_classes=2)
    cfg = TrainConfig(l2_lambda=0.0)
    probs = np.array([[0.7, 0.3], [0.2, 0.8]])
    labels = np.array([0, 1])
    weights = np.array([2.0, 0.5])
    expected = (2.0 * -math.log(0.7) + 0.5 * -math.log(0.8)) / 2.5
    assert loss(probs, labels, weights, net, cfg) == pytest.approx(expected, rel=1e-12)


def test_loss_label_out_of_range():
    net = tiny_net()
    with pytest.raises(ValueError):
        loss(np.full((2, 3), 1 / 3), np.array([0, 3]), np.ones(3), net, TrainConfig())


def test_loss_unit_weights_equal_unweighted():
    rng = np.random.default_rng(5)
    net = tiny_net()
    cfg = TrainConfig()
    probs = rng.dirichlet(np.ones(3), size=10)
    labels = rng.integers(0, 3, 10)
    weighted = loss(probs, labels, np.ones(3), net, cfg)
    l2 = 0.5 * cfg.l2_lambda * sum(float((net.params[k] ** 2).sum()) for k in net.weight_names())
    unweighted = float(-np.log(probs[np.arange(10), labels]).mean()) + l2
    assert weighted == pytest.approx(unweighted, rel=1e-12)


# --- gradients

def fd_gradient(net, batch, cfg, weights, mode, masks, name, h=1e-5):
    param = net.params[name]
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + h
        up = loss(forward(net, batch, mode=mode, dropout_masks=masks), batch.labels, weights, net, cfg)
        param[idx] = orig - h
        down = loss(forward(net, batch, mode=mode, dropout_masks=masks), batch.labels, weights, net, cfg)
        param[idx] = orig
        grad[idx] = (up - down) / (2 * h)
        it.iternext()
    return grad


@pytest.mark.parametrize("mode", ["train", "inference"])
@pytest.mark.parametrize("n_classes", [3, 2])
def test_gradients_match_finite_differences(mode, n_classes):
    rng = np.random.default_rng(42)
    net = tiny_net(n_classes=n_classes, seed=7)
    batch = tiny_batch(rng, n_rows=6, n_classes=n_classes)
    cfg = TrainConfig()
    weights = class_weight_vector(batch.labels, n_classes)
    masks = (
        make_dropout_masks(net, batch.row_count, cfg.dropout_rates, np.random.default_rng(9))
        if mode == "train" else None
    )
    if mode == "inference":
        # running statistics off their initial 0 and 1: there, a row whose
        # ReLUs in one layer are all off meets the next ReLU at exactly 0,
        # where the loss has no derivative for the finite differences to check
        stats_rng = np.random.default_rng(11)
        for i, width in enumerate(net.hidden):
            net.running[f"dense{i}:mean"] = stats_rng.normal(0.0, 0.5, width)
            net.running[f"dense{i}:var"] = stats_rng.uniform(0.5, 2.0, width)

    _, grads, _ = loss_and_grads(net, batch, cfg, weights, mode=mode, dropout_masks=masks)
    worst = 0.0
    for name in net.params:
        numeric = fd_gradient(net, batch, cfg, weights, mode, masks, name)
        for a, f in zip(grads[name].ravel(), numeric.ravel()):
            worst = max(worst, relative_error(a, f))
    assert worst < 1e-4, f"max relative gradient error {worst}"


def long_form_bn_backward(da, z, gamma):
    """Batch-norm backward through mean and variance term by term: the reference formula."""
    n = z.shape[0]
    mu = z.mean(axis=0)
    var = z.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    dxhat = da * gamma
    dvar = (dxhat * (z - mu)).sum(axis=0) * (-0.5) * inv_std ** 3
    dmu = (-dxhat * inv_std).sum(axis=0) + dvar * (-2.0 * (z - mu)).sum(axis=0) / n
    return dxhat * inv_std + dvar * 2.0 * (z - mu) / n + dmu / n


@pytest.mark.parametrize("n_rows, width", [(256, 64), (56, 128), (2, 3)])
def test_closed_form_bn_backward_matches_long_form(n_rows, width):
    rng = np.random.default_rng(n_rows)
    for scale in (1e-3, 1.0, 30.0):
        z = rng.standard_normal((n_rows, width)) * scale + rng.standard_normal(width)
        da = rng.standard_normal((n_rows, width))
        gamma = rng.uniform(0.2, 2.0, width)
        mu, var = z.mean(axis=0), z.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (z - mu) * inv_std
        expected = long_form_bn_backward(da, z, gamma)
        dz, dgamma, dbeta = _bn_backward(da.copy(), xhat.copy(), gamma, inv_std)
        # relative to the leading term: with two rows dz cancels to almost nothing
        scale = np.abs(da * gamma * inv_std).max()
        assert np.abs(dz - expected).max() <= 1e-12 * scale
        assert np.allclose(dgamma, (da * xhat).sum(axis=0), rtol=1e-12, atol=0)
        assert np.allclose(dbeta, da.sum(axis=0), rtol=1e-12, atol=0)


def test_train_mode_bias_gradient_is_exactly_zero():
    rng = np.random.default_rng(43)
    net = tiny_net(seed=8)
    batch = tiny_batch(rng, n_rows=16)
    cfg = TrainConfig()
    masks = make_dropout_masks(net, batch.row_count, cfg.dropout_rates, rng)
    _, grads, _ = loss_and_grads(net, batch, cfg, np.ones(3), mode="train", dropout_masks=masks)
    for i in range(len(net.hidden)):
        assert not grads[f"dense{i}:b"].any()
    _, grads, _ = loss_and_grads(net, batch, cfg, np.ones(3), mode="inference")
    assert grads["dense0:b"].any()      # inference still differentiates the bias


def test_unknown_mode_is_refused():
    rng = np.random.default_rng(46)
    net = tiny_net()
    batch = tiny_batch(rng)
    # "mc" (Monte-Carlo dropout at inference) is not a mode: inference drops nothing
    for mode in ("trian", "mc"):
        with pytest.raises(ValueError, match=f"mode '{mode}'"):
            forward(net, batch, mode=mode)
        with pytest.raises(ValueError, match=f"mode '{mode}'"):
            loss_and_grads(net, batch, TrainConfig(), np.ones(3), mode=mode)


@pytest.mark.parametrize("mode", ["train"])
def test_misshapen_dropout_masks_are_refused(mode):
    rng = np.random.default_rng(48)
    net = tiny_net()
    batch = tiny_batch(rng)
    cfg = TrainConfig()
    good = [np.ones((8, w)) for w in net.hidden]
    cases = {
        "one row": ([np.ones((1, w)) for w in net.hidden], r"dense0.*\(1, 4\).*\(8, 4\)"),
        "one column": (good[:1] + [good[1][:, :1]] + good[2:], r"dense1.*\(8, 1\).*\(8, 3\)"),
        "too few": (good[:2], "2 dropout masks given for 3 hidden layers"),
    }
    for masks, message in cases.values():
        with pytest.raises(ValueError, match=message):
            forward(net, batch, mode=mode, dropout_masks=masks)
        with pytest.raises(ValueError, match=message):
            loss_and_grads(net, batch, cfg, np.ones(3), mode=mode, dropout_masks=masks)
        with pytest.raises(ValueError, match=message):
            train_step(net, batch, cfg, AdamState(), np.ones(3), masks)


# --- blocked inference

@pytest.mark.parametrize("n_rows", [0, 1, 3, 4, 5, 11])
@pytest.mark.parametrize("n_classes", [3, 2])
def test_blocked_forward_equals_one_pass(monkeypatch, n_rows, n_classes):
    rng = np.random.default_rng(49)
    net = tiny_net(n_classes=n_classes, seed=3)
    for i in range(3):
        net.running[f"dense{i}:mean"] = rng.standard_normal(net.hidden[i])
        net.running[f"dense{i}:var"] = rng.uniform(0.5, 2.0, net.hidden[i])
    batch = tiny_batch(rng, n_rows=n_rows, n_classes=n_classes)
    monkeypatch.setattr(nnet, "INFERENCE_BLOCK_ROWS", 4)
    whole, _ = _forward_cached(net, batch, "inference", None)
    blocked = forward(net, batch)
    assert blocked.shape == whole.shape == (n_rows, n_classes)
    assert np.abs(blocked - whole).max(initial=0.0) <= 1e-12
    assert np.array_equal(blocked.argmax(axis=1), whole.argmax(axis=1))


def test_train_forward_is_never_blocked(monkeypatch):
    # per-block batch statistics would normalize each block on its own
    rng = np.random.default_rng(50)
    net = tiny_net(seed=4)
    batch = tiny_batch(rng, n_rows=11)
    masks = make_dropout_masks(net, 11, (0.4, 0.3, 0.3), rng)
    whole = _forward_cached(net, batch, "train", masks)[0].copy()
    monkeypatch.setattr(nnet, "INFERENCE_BLOCK_ROWS", 4)
    assert np.array_equal(forward(net, batch, mode="train", dropout_masks=masks), whole)


def test_inference_peak_memory_does_not_grow_with_rows(monkeypatch):
    monkeypatch.setattr(nnet, "INFERENCE_BLOCK_ROWS", 256)
    net = Network(tiny_encoder(), n_classes=3, hidden=(64, 32, 16), seed=6)
    peaks = {}
    for n_rows in (1024, 8192):
        batch = tiny_batch(np.random.default_rng(51), n_rows=n_rows)
        tracemalloc.start()
        try:
            forward(net, batch, mode="inference")
            peaks[n_rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8192] <= 2 * peaks[1024], peaks


def test_inference_leaves_the_workspace_alone():
    # a train step fills the workspace; inference forward and backward after
    # it must neither add, replace nor write any buffer
    rng = np.random.default_rng(47)
    net = tiny_net(seed=10)
    batch = tiny_batch(rng, n_rows=16)
    cfg = TrainConfig()
    masks = make_dropout_masks(net, batch.row_count, cfg.dropout_rates, rng)
    train_step(net, batch, cfg, AdamState(), np.ones(3), masks)
    before = dict(net.workspace)
    contents = {k: v.copy() for k, v in before.items()}
    forward(net, batch, mode="inference")
    loss_and_grads(net, batch, cfg, np.ones(3), mode="inference")
    assert net.workspace.keys() == before.keys()
    for key, buf in net.workspace.items():
        assert buf is before[key], key
        assert np.array_equal(buf, contents[key], equal_nan=True), key


def test_steps_of_two_sizes_give_fresh_net_gradients():
    # a full batch and the epoch's short last batch use separate workspace
    # sets; a step must overwrite every buffer it reads, so poisoning the
    # leftovers with NaN between steps changes nothing
    rng = np.random.default_rng(44)
    cfg = TrainConfig()
    big, small = tiny_batch(rng, n_rows=256), tiny_batch(rng, n_rows=56)

    def grads_of(net, batch, seed):
        masks = make_dropout_masks(net, batch.row_count, cfg.dropout_rates, np.random.default_rng(seed))
        _, grads, _ = loss_and_grads(net, batch, cfg, np.ones(3), mode="train", dropout_masks=masks)
        return {k: v.copy() for k, v in grads.items()}

    reused = tiny_net(seed=9)
    sequence = []
    for batch, seed in ((big, 1), (small, 2), (big, 1)):
        for buf in reused.workspace.values():
            buf.fill(np.nan)
        sequence.append(grads_of(reused, batch, seed))
    fresh = [grads_of(tiny_net(seed=9), big, 1), grads_of(tiny_net(seed=9), small, 2)]
    assert reused.workspace
    for got, want in zip(sequence, fresh + fresh[:1]):
        assert got.keys() == want.keys()
        for k in want:
            assert np.array_equal(got[k], want[k]), k


@pytest.mark.parametrize("n_classes", [3, 2])
def test_a_float32_network_trains_in_float32(n_classes):
    # a float64 array anywhere in a step would upcast every array computed from it
    rng = np.random.default_rng(49)
    net = tiny_net(n_classes=n_classes, seed=5)
    for state in (net.params, net.running):
        for k, v in state.items():
            state[k] = v.astype(np.float32)
    batch = tiny_batch(rng, n_rows=16, n_classes=n_classes)
    batch.numeric_matrix = batch.numeric_matrix.astype(np.float32)
    cfg = TrainConfig()
    weights = class_weight_vector(batch.labels, n_classes)
    masks = make_dropout_masks(net, batch.row_count, cfg.dropout_rates, rng)
    _, grads, _ = loss_and_grads(net, batch, cfg, weights, dropout_masks=masks)
    arrays = {f"grad {k}": g for k, g in grads.items()}
    adam = AdamState()
    train_step(net, batch, cfg, adam, weights, masks)
    arrays.update({f"param {k}": v for k, v in net.params.items()})
    arrays.update({f"running {k}": v for k, v in net.running.items()})
    arrays.update({f"adam m {k}": v for k, v in adam.m.items()})
    arrays.update({f"adam v {k}": v for k, v in adam.v.items()})
    arrays.update({f"workspace {k}": v for k, v in net.workspace.items()})
    arrays["adam scratch"] = adam.scratch
    assert {k: a.dtype for k, a in arrays.items()} == {k: np.dtype(np.float32) for k in arrays}
    assert net.dtype == np.float32


@pytest.mark.parametrize("n_classes", [3, 2])
def test_a_float32_network_infers_what_it_serves_widened(n_classes):
    # training selects its best epoch by this forward, and serves the widened network
    rng = np.random.default_rng(50)
    narrow = tiny_net(n_classes=n_classes, seed=6)
    for state in (narrow.params, narrow.running):
        for k, v in state.items():
            state[k] = (v + rng.uniform(0.1, 0.5, v.shape)).astype(np.float32)
    wide = tiny_net(n_classes=n_classes, seed=6)
    for state, source in ((wide.params, narrow.params), (wide.running, narrow.running)):
        for k, v in source.items():
            state[k] = v.astype(np.float64)
    batch = tiny_batch(rng, n_rows=32, n_classes=n_classes)
    probs = forward(narrow, batch)
    assert probs.dtype == np.float64
    assert np.array_equal(probs, forward(wide, batch))


# --- adam

def test_adam_single_step_hand_computed():
    cfg = TrainConfig(learning_rate=0.1)
    params = {"p": np.array([1.0])}
    state = AdamState()
    adam_update(params, {"p": np.array([0.5])}, state, cfg)
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert params["p"][0] == pytest.approx(expected, rel=1e-12)
    assert state.t == 1


def test_adam_does_not_write_into_grads():
    rng = np.random.default_rng(45)
    net = tiny_net()
    batch = tiny_batch(rng)
    cfg = TrainConfig(learning_rate=1e-2)
    state = AdamState()
    for _ in range(3):
        masks = make_dropout_masks(net, batch.row_count, cfg.dropout_rates, rng)
        _, grads, _ = loss_and_grads(net, batch, cfg, np.ones(3), mode="train", dropout_masks=masks)
        before = {k: v.copy() for k, v in grads.items()}
        adam_update(net.params, grads, state, cfg)
        for k in before:
            assert np.array_equal(grads[k], before[k]), k


def test_zero_learning_rate_leaves_parameters_unchanged():
    rng = np.random.default_rng(6)
    net = tiny_net()
    before = {k: v.copy() for k, v in net.params.items()}
    cfg = TrainConfig(learning_rate=0.0)
    batch = tiny_batch(rng)
    weights = np.ones(3)
    masks = make_dropout_masks(net, batch.row_count, cfg.dropout_rates, rng)
    train_step(net, batch, cfg, AdamState(), weights, masks)
    for name in before:
        assert np.array_equal(net.params[name], before[name])


def test_l2_shrinks_weights_with_zero_data_gradient():
    net = tiny_net(seed=3)
    cfg = TrainConfig(learning_rate=1e-3, l2_lambda=1e-2)
    state = AdamState()
    for _ in range(3):
        norms_before = {k: np.linalg.norm(net.params[k]) for k in net.weight_names()}
        grads = {k: cfg.l2_lambda * net.params[k] for k in net.weight_names()}
        adam_update(net.params, grads, state, cfg)
        for k in net.weight_names():
            assert np.linalg.norm(net.params[k]) < norms_before[k]


def test_nan_loss_raises():
    rng = np.random.default_rng(7)
    net = tiny_net()
    net.params["dense0:W"][0, 0] = np.nan
    batch = tiny_batch(rng)
    with pytest.raises(NanLossError):
        train_step(net, batch, TrainConfig(), AdamState(), np.ones(3),
                   make_dropout_masks(net, batch.row_count, (0.4, 0.3, 0.3), rng))


# --- class weights

def test_class_weight_vector_inverse_frequency():
    labels = np.array([0, 0, 0, 1])
    w = class_weight_vector(labels, 2)
    assert w[0] == pytest.approx(4 / (2 * 3))
    assert w[1] == pytest.approx(4 / (2 * 1))


# --- training loop

def separable_batches(rng, n=400):
    """Two clusters split along the first numeric feature."""
    labels = rng.integers(0, 2, n)
    numeric = rng.standard_normal((n, 2)) * 0.3
    numeric[:, 0] += np.where(labels == 1, 2.0, -2.0)
    cats = {
        "processing_type": rng.integers(0, 3, n),
        "framework": rng.integers(0, 3, n),
    }
    batch = EncodedBatch(categorical_indices=cats, numeric_matrix=numeric,
                         labels=labels, row_count=n)
    split = int(0.8 * n)
    idx = rng.permutation(n)
    return batch.take(idx[:split]), batch.take(idx[split:])


def test_train_on_separable_data():
    rng = np.random.default_rng(11)
    train_b, val_b = separable_batches(rng)
    net = Network(tiny_encoder(), n_classes=2, hidden=(16, 8, 4), seed=1)
    cfg = TrainConfig(learning_rate=2e-3, batch_size=64, max_epochs=50, seed=5)
    report = train(net, train_b, val_b, cfg)
    assert report.best_val_accuracy >= 0.95
    assert len(report.val_accuracy) <= 50
    assert report.weights_trained


@pytest.mark.parametrize("field", ["batch_size", "max_epochs"])
@pytest.mark.parametrize("value", [0, -5])
def test_config_refuses_settings_that_cannot_train(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_early_stop_counts_patience_from_the_first_best_epoch():
    rng = np.random.default_rng(22)
    train_b, val_b = separable_batches(rng, n=200)
    net = Network(tiny_encoder(), n_classes=2, hidden=(8, 4, 2), seed=3)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=40, patience=3, seed=3)
    report = train(net, train_b, val_b, cfg)
    acc = report.val_accuracy
    best = max(acc)
    assert report.stop_reason == "early_stop"
    assert report.best_epoch == acc.index(best) + 1 > 1     # an improvement after epoch 1
    assert best in acc[report.best_epoch:]                  # a later tie, which does not count as one
    assert len(acc) == report.best_epoch + cfg.patience
    assert report.best_val_accuracy == best


def test_early_stop_after_the_first_epoch_when_accuracy_falls():
    rng = np.random.default_rng(60)
    train_b, val_b = separable_batches(rng, n=200)
    net = Network(tiny_encoder(), n_classes=2, hidden=(8, 4, 2), seed=2)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=40, patience=3, seed=2)
    report = train(net, train_b, val_b, cfg)
    acc = report.val_accuracy
    assert all(later < acc[0] for later in acc[1:])
    assert report.stop_reason == "early_stop"
    assert report.best_epoch == 1 and len(acc) == 1 + cfg.patience
    restored = forward(net, val_b, mode="inference")
    assert float((restored.argmax(axis=1) == val_b.labels).mean()) == acc[0]


def test_train_reports_one_positive_wall_time_per_epoch():
    rng = np.random.default_rng(15)
    train_b, val_b = separable_batches(rng, n=200)
    net = Network(tiny_encoder(), n_classes=2, hidden=(8, 4, 2), seed=4)
    report = train(net, train_b, val_b, TrainConfig(batch_size=64, max_epochs=4, patience=50, seed=9))
    assert len(report.epoch_seconds) == len(report.train_loss) == 4
    assert all(s > 0 for s in report.epoch_seconds)
    assert "epoch_seconds" not in report.summary()   # the summary goes into the artifact header


def test_train_nan_abort():
    rng = np.random.default_rng(12)
    train_b, val_b = separable_batches(rng, n=100)
    net = Network(tiny_encoder(), n_classes=2, hidden=(4, 3, 2), seed=1)
    net.params["dense1:W"][0, 0] = np.nan
    report = train(net, train_b, val_b, TrainConfig(max_epochs=3, seed=0))
    assert report.stop_reason == "nan_abort"
    assert not report.weights_trained


def test_train_restores_best_epoch_weights():
    rng = np.random.default_rng(13)
    train_b, val_b = separable_batches(rng, n=200)
    net = Network(tiny_encoder(), n_classes=2, hidden=(8, 4, 2), seed=2)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=12, patience=50, seed=3)
    report = train(net, train_b, val_b, cfg)
    assert report.stop_reason == "max_epochs"
    probs = forward(net, val_b, mode="inference")
    acc = float((probs.argmax(axis=1) == val_b.labels).mean())
    assert acc == pytest.approx(report.best_val_accuracy)
    assert report.best_val_accuracy == max(report.val_accuracy)


def test_train_deterministic_given_seed():
    rng = np.random.default_rng(14)
    train_b, val_b = separable_batches(rng, n=200)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=6, seed=9)
    reports, params = [], []
    for _ in range(2):
        net = Network(tiny_encoder(), n_classes=2, hidden=(8, 4, 2), seed=4)
        reports.append(train(net, train_b, val_b, cfg))
        params.append({k: v.copy() for k, v in net.params.items()})
    assert reports[0].train_loss == reports[1].train_loss
    assert reports[0].val_loss == reports[1].val_loss
    assert reports[0].val_accuracy == reports[1].val_accuracy
    assert reports[0].best_epoch == reports[1].best_epoch
    for k in params[0]:
        assert np.array_equal(params[0][k], params[1][k])


def test_train_leaves_bias_unchanged_and_workspace_empty():
    rng = np.random.default_rng(46)
    train_b, val_b = separable_batches(rng, n=200)
    net = Network(tiny_encoder(), n_classes=2, hidden=(8, 4, 2), seed=4)
    for i in range(3):
        net.params[f"dense{i}:b"][:] = rng.standard_normal(net.hidden[i])
    biases = {k: v.copy() for k, v in net.params.items() if k.endswith(":b") and k.startswith("dense")}
    report = train(net, train_b, val_b, TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=4, seed=2))
    assert report.weights_trained
    assert net.workspace == {}
    for k, b in biases.items():
        assert np.array_equal(net.params[k], b), k


def test_train_empties_workspace_on_abort_and_error():
    rng = np.random.default_rng(47)
    train_b, val_b = separable_batches(rng, n=100)
    net = Network(tiny_encoder(), n_classes=2, hidden=(4, 3, 2), seed=1)
    net.params["dense1:W"][0, 0] = np.nan
    assert train(net, train_b, val_b, TrainConfig(max_epochs=3)).stop_reason == "nan_abort"
    assert net.workspace == {}

    net = Network(tiny_encoder(), n_classes=2, hidden=(4, 3, 2), seed=1)
    bad_val = val_b.take(np.arange(val_b.row_count))
    bad_val.categorical_indices["framework"][0] = 99      # fails in the first validation forward
    with pytest.raises(ValueError, match="vocabulary"):
        train(net, train_b, bad_val, TrainConfig(max_epochs=3))
    assert net.workspace == {}


def test_empty_training_data_rejected():
    rng = np.random.default_rng(15)
    _, val_b = separable_batches(rng, n=50)
    empty = val_b.take(np.array([], dtype=int))
    net = tiny_net(n_classes=2)
    with pytest.raises(ValueError):
        train(net, empty, val_b, TrainConfig())


# --- dropout masks

def test_dropout_masks_are_unbiased():
    # inverted scaling: E[mask] = 1, so dropped activations need no rescale
    net = Network(tiny_encoder(), n_classes=3, hidden=(32, 16, 8), seed=5)
    rng = np.random.default_rng(23)
    sums = [np.zeros(w) for w in net.hidden]
    draws = 4000
    for _ in range(draws):
        for acc, mask in zip(sums, make_dropout_masks(net, 1, (0.4, 0.3, 0.3), rng)):
            acc += mask[0]
    for acc in sums:
        assert np.abs(acc / draws - 1.0).max() < 0.05


# --- prediction

def make_models(seed=0):
    enc = tiny_encoder()
    bins = {
        "RAMCOUNT": explicit_bins("RAMCOUNT", [1, 2, 3], top_cap=10),
        "CPUTIME": explicit_bins("CPUTIME", [1, 2, 3, 4], top_cap=10),
        "IOINTENSITY": explicit_bins("IOINTENSITY", [1], top_cap=10),
        "WALLTIME": explicit_bins("WALLTIME", [1, 2, 3, 4], top_cap=10),
    }
    return {
        t: TargetModel(target=t, net=Network(enc, bins[t].n_classes, hidden=(4, 3, 2), seed=seed + i),
                       encoder=enc, bins=bins[t])
        for i, t in enumerate(bins)
    }


def records(n, rng):
    return [
        TaskRecord(task_id=f"t{i}", processing_type=rng.choice(["a", "b"]),
                   framework=rng.choice(["x", "y"]), core_count=1,
                   n_input=1, n_files=int(rng.integers(1, 5)),
                   n_events=int(rng.integers(1, 5)))
        for i in range(n)
    ]


def test_predict_shapes_and_order():
    rng = np.random.default_rng(17)
    models = make_models()
    recs = records(6, rng)
    classes, probs = predict(models, recs)
    assert len(classes) == 6
    assert probs["RAMCOUNT"].shape == (6, 4)
    assert probs["CPUTIME"].shape == (6, 5)
    assert probs["IOINTENSITY"].shape == (6, 2)
    assert probs["WALLTIME"].shape == (6, 5)


def test_predict_uniform_net_breaks_ties_low():
    rng = np.random.default_rng(18)
    models = make_models()
    for model in models.values():
        model.net.params["out:W"][:] = 0.0
        model.net.params["out:b"][:] = 0.0
    classes, _ = predict(models, records(3, rng))
    for cls in classes:
        # binary head at zero logit gives exactly 0.5/0.5; argmax takes 0
        assert cls.as_dict() == {"RAMCOUNT": 0, "CPUTIME": 0, "IOINTENSITY": 0, "WALLTIME": 0}


def test_predict_single_equals_batch():
    rng = np.random.default_rng(19)
    models = make_models(seed=3)
    recs = records(5, rng)
    _, batch_probs = predict(models, recs)
    for i, rec in enumerate(recs):
        _, single = predict(models, [rec])
        for t in batch_probs:
            assert np.allclose(single[t][0], batch_probs[t][i], atol=1e-12)


@pytest.mark.parametrize("n_rows", [0, 1, 3, 4, 5, 11])
def test_predict_folded_layers_equal_inference_forward(monkeypatch, n_rows):
    # blocks of 4 rows put 4 and 5 on either side of the block edge; the four
    # heads cover multi-class and binary outputs
    monkeypatch.setattr(nnet, "INFERENCE_BLOCK_ROWS", 4)
    rng = np.random.default_rng(52)
    models = make_models(seed=7)
    for model in models.values():
        net = model.net
        for i, width in enumerate(net.hidden):
            for name in ("b", "beta"):
                net.params[f"dense{i}:{name}"] = rng.normal(0.0, 0.5, width)
            net.params[f"dense{i}:gamma"] = rng.uniform(0.5, 1.5, width)
            net.running[f"dense{i}:mean"] = rng.normal(0.0, 0.5, width)
            net.running[f"dense{i}:var"] = rng.uniform(0.5, 2.0, width)
    recs = records(n_rows, rng)
    classes, probs = predict(models, recs)
    assert len(classes) == n_rows
    for target, model in models.items():
        expected = forward(model.net, encode(recs, model.encoder), mode="inference")
        assert probs[target].shape == expected.shape == (n_rows, model.net.n_classes)
        assert np.abs(probs[target] - expected).max(initial=0.0) <= 1e-12
        assert np.array_equal(probs[target].argmax(axis=1), expected.argmax(axis=1))
        assert [c.as_dict()[target] for c in classes] == expected.argmax(axis=1).tolist()


def test_predict_missing_target_rejected():
    rng = np.random.default_rng(20)
    models = make_models()
    del models["WALLTIME"]
    with pytest.raises(ValueError, match="WALLTIME"):
        predict(models, records(2, rng))


def test_target_model_validates_widths():
    enc = tiny_encoder()
    bins = explicit_bins("RAMCOUNT", [1, 2, 3], top_cap=10)
    net = Network(tiny_encoder(n_numeric=1), n_classes=4, seed=0)
    with pytest.raises(ValueError, match="width"):
        TargetModel(target="RAMCOUNT", net=net, encoder=enc, bins=bins)


# --- the stacked inference kernel

def random_statistics(models, rng):
    """Give every head non-trivial biases and batch-norm statistics, so folding them matters."""
    for model in models.values():
        net = model.net
        for i, width in enumerate(net.hidden):
            for name in ("b", "beta"):
                net.params[f"dense{i}:{name}"] = rng.normal(0.0, 0.5, width)
            net.params[f"dense{i}:gamma"] = rng.uniform(0.5, 1.5, width)
            net.running[f"dense{i}:mean"] = rng.normal(0.0, 0.5, width)
            net.running[f"dense{i}:var"] = rng.uniform(0.5, 2.0, width)
        net.params["out:b"] = rng.normal(0.0, 0.5, net.params["out:b"].shape)
    return models


def assert_predict_equals_forward(models, recs):
    probs = predict(models, recs)[1]
    assert list(probs) == list(models)
    for target, model in models.items():
        batch = encode(recs, model.encoder)
        for reference in (forward(model.net, batch, mode="inference"),
                          _forward_cached(model.net, batch, "inference", None)[0]):
            assert probs[target].shape == reference.shape == (len(recs), model.net.n_classes)
            assert np.abs(probs[target] - reference).max(initial=0.0) <= 1e-12, target
            assert np.array_equal(probs[target].argmax(axis=1), reference.argmax(axis=1)), target


@pytest.mark.parametrize("n_rows", [1, 2, 3, 7, 8, 9, 17])
def test_stacked_predict_equals_each_heads_forward(monkeypatch, n_rows):
    # four stacked heads run blocks of 8 // 4 = 2 rows, one head's forward blocks of 8, so
    # the row counts sit on both sides of both edges; IOINTENSITY is the binary head
    monkeypatch.setattr(nnet, "INFERENCE_BLOCK_ROWS", 8)
    rng = np.random.default_rng(54)
    models = random_statistics(make_models(seed=11), rng)
    assert models["IOINTENSITY"].net.binary
    assert_predict_equals_forward(models, records(n_rows, rng))


def test_predict_refuses_a_set_whose_heads_differ_in_layer_widths():
    # a model set is one stack: the kernel has no per-head layer widths
    rng = np.random.default_rng(55)
    models = make_models(seed=12)
    wide = models["CPUTIME"]
    models["CPUTIME"] = TargetModel(target="CPUTIME", net=Network(wide.encoder, wide.net.n_classes, hidden=(6, 5),
                                                                  seed=13),
                                    encoder=wide.encoder, bins=wide.bins)
    with pytest.raises(ValueError, match=r"^CPUTIME: .*one layer shape.*\(6, 5\)"):
        predict(models, records(3, rng))


def test_predict_after_an_in_place_weight_change_equals_forward():
    # no model keeps a stack, so a network changed in place predicts as it now is
    rng = np.random.default_rng(56)
    models = random_statistics(make_models(seed=14), rng)
    recs = records(5, rng)
    before = predict(models, recs)[1]
    models["RAMCOUNT"].net.params["out:b"][0] += 5.0
    assert_predict_equals_forward(models, recs)
    after = predict(models, recs)[1]
    assert not np.array_equal(before["RAMCOUNT"], after["RAMCOUNT"])
    assert np.array_equal(before["CPUTIME"], after["CPUTIME"])


def test_threads_making_a_sets_first_predict_get_equal_answers():
    # more threads than cores, switching often, all making a fresh set's first predict at once
    rng = np.random.default_rng(57)
    recs = records(6, rng)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(10):
            models = random_statistics(make_models(seed=20 + round_), np.random.default_rng(round_))
            start = threading.Barrier(4)
            answers = {}

            def run(slot, models=models, start=start, answers=answers):
                start.wait(timeout=10)
                answers[slot] = predict(models, recs)[1]

            threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(answers) == 4
            for target, model in models.items():
                expected = forward(model.net, encode(recs, model.encoder), mode="inference")
                for answer in answers.values():
                    assert np.abs(answer[target] - expected).max() <= 1e-12, (round_, target)
    finally:
        sys.setswitchinterval(interval)
