"""Four-headed task classifier: embeddings + dense stack, trained from scratch.

One Network instance per target. Categorical features pass through embedding
tables, numeric features enter directly; the concatenation feeds dense
layers of widths 256/128/64, each followed by batch normalization, ReLU and
progressive dropout (40/30/30%). Multi-class heads use softmax with sparse
cross-entropy; the binary head uses a single sigmoid unit with binary
cross-entropy. Training runs Adam with class-weighted loss, L2 on dense and
embedding weights, early stopping on validation accuracy, and an immediate
abort on any non-finite loss.

Everything is numpy; forward/backward are hand-derived so gradients can be
checked against central finite differences.

The train-mode step allocates no activation-sized arrays. Each Network keeps
a workspace of scratch buffers keyed by (name, shape), so the full batches
and the last short batch of an epoch each get their own set; the dropout
masks, activations, gates, input gradients and dense weight gradients are
written into it with ``out=``, and ``train`` empties it when it returns.
Arrays that train mode hands back (masks, gradients, cache) are views of
that workspace and hold only until the next train-mode call on the same
network. Inference and "mc" modes allocate fresh arrays, except for masks
drawn by make_dropout_masks; inference alone never touches the workspace,
so concurrent predictions on one network are safe.

Train mode leaves the dense bias out: batch normalization subtracts the
batch mean, which cancels any per-unit bias exactly, so ``z = x @ W`` and the
running mean tracks ``mean(z) + b`` instead. Inference computes
``x @ W + b`` against that running mean, so a model predicts the same
either way, and the train-mode gradient of ``dense<i>:b`` is exactly zero
rather than rounding noise that Adam would turn into bias drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .discretize import TARGET_NAMES, BinSpec, ResourceClasses, classes_to_resource_classes
from .encode import EncodedBatch, EncoderSpec, encode

BN_EPS = 1e-5
PROB_FLOOR = 1e-12


class NanLossError(FloatingPointError):
    """Raised by train_step when the batch loss is not finite."""


@dataclass(frozen=True)
class TrainConfig:
    l2_lambda: float = 1e-4
    dropout_rates: tuple[float, ...] = (0.40, 0.30, 0.30)
    batch_size: int = 256
    learning_rate: float = 5e-5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 4
    max_epochs: int = 200
    bn_momentum: float = 0.99
    seed: int = 0

    def __post_init__(self) -> None:
        if any(not 0.0 <= r < 1.0 for r in self.dropout_rates):
            raise ValueError("dropout rates must lie in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must not be negative")


class Network:
    """Parameters of one classifier head.

    params maps names to arrays: ``emb:<feature>``, ``dense<i>:{W,b,gamma,beta}``,
    ``out:{W,b}``. Batch-norm running statistics live in ``running`` and are
    buffers, not parameters. ``workspace`` holds the train-mode scratch
    arrays; it is never saved and may be cleared at any time.
    """

    def __init__(
        self,
        encoder: EncoderSpec,
        n_classes: int,
        hidden: tuple[int, ...] = (256, 128, 64),
        seed: int = 0,
    ) -> None:
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self.cat_features = tuple((c.name, c.vocab_size, c.embed_dim) for c in encoder.categorical)
        self.n_numeric = len(encoder.numeric)
        self.input_width = encoder.input_width
        self.hidden = tuple(hidden)
        self.n_classes = n_classes

        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        self.running: dict[str, np.ndarray] = {}
        self.workspace: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

        for name, _vocab, dim in self.cat_features:
            shape = (_vocab, dim)
            self.params[f"emb:{name}"] = rng.uniform(-0.05, 0.05, size=shape)

        fan_in = self.input_width
        for i, width in enumerate(self.hidden):
            limit = math.sqrt(6.0 / fan_in)
            self.params[f"dense{i}:W"] = rng.uniform(-limit, limit, size=(fan_in, width))
            self.params[f"dense{i}:b"] = np.zeros(width)
            self.params[f"dense{i}:gamma"] = np.ones(width)
            self.params[f"dense{i}:beta"] = np.zeros(width)
            self.running[f"dense{i}:mean"] = np.zeros(width)
            self.running[f"dense{i}:var"] = np.ones(width)
            fan_in = width

        out_width = 1 if self.binary else n_classes
        limit = math.sqrt(6.0 / fan_in)
        self.params["out:W"] = rng.uniform(-limit, limit, size=(fan_in, out_width))
        self.params["out:b"] = np.zeros(out_width)

    @property
    def binary(self) -> bool:
        return self.n_classes == 2

    def weight_names(self) -> list[str]:
        """Parameters subject to L2: dense and embedding weight matrices."""
        return [k for k in self.params if k.endswith(":W") or k.startswith("emb:")]

    def snapshot(self) -> dict[str, np.ndarray]:
        state = {k: v.copy() for k, v in self.params.items()}
        state.update({f"running/{k}": v.copy() for k, v in self.running.items()})
        return state

    def restore(self, state: dict[str, np.ndarray]) -> None:
        for k in self.params:
            self.params[k] = state[k].copy()
        for k in self.running:
            self.running[k] = state[f"running/{k}"].copy()

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The workspace array for (name, shape); its contents are left over from the last use."""
        key = (name, shape)
        buf = self.workspace.get(key)
        if buf is None:
            buf = self.workspace[key] = np.empty(shape)
        return buf


def make_dropout_masks(
    net: Network, n_rows: int, rates: Sequence[float], rng: np.random.Generator
) -> list[np.ndarray]:
    """Inverted-dropout masks, one per hidden layer: Bernoulli(keep) / keep.

    One uniform draw covers every layer. The masks are views into the
    network's workspace, overwritten by its next draw for the same row count.
    """
    draws = rng.random(out=net.buffer("masks", (n_rows, sum(net.hidden))))
    masks = []
    start = 0
    for width, rate in zip(net.hidden, rates):
        keep = 1.0 - rate
        mask = draws[:, start:start + width]
        np.less(mask, keep, out=mask)
        mask /= keep
        masks.append(mask)
        start += width
    return masks


def _concat_inputs(net: Network, batch: EncodedBatch, out: Optional[np.ndarray] = None) -> np.ndarray:
    segments = []
    for name, vocab, _dim in net.cat_features:
        idx = batch.categorical_indices[name]
        if idx.max(initial=0) >= vocab:
            raise ValueError(f"{name}: index exceeds vocabulary size {vocab}")
        segments.append(net.params[f"emb:{name}"][idx])
    segments.append(batch.numeric_matrix)
    width = sum(s.shape[1] for s in segments)
    if width != net.input_width:
        raise ValueError(
            f"encoded width {width} does not match network input width {net.input_width}"
        )
    return np.concatenate(segments, axis=1, out=out)


def _forward_train(
    net: Network, batch: EncodedBatch, masks: Optional[list[np.ndarray]]
) -> tuple[np.ndarray, list[dict]]:
    """Batch-statistics forward into the workspace: (last hidden output, per-layer cache)."""
    n = batch.row_count
    x = _concat_inputs(net, batch, out=net.buffer("x0", (n, net.input_width)))
    layers = []
    for i, width in enumerate(net.hidden):
        shape = (n, width)
        gamma, beta = net.params[f"dense{i}:gamma"], net.params[f"dense{i}:beta"]
        # z = x @ W without the bias, which the batch mean cancels; centred and scaled in place
        xhat = np.matmul(x, net.params[f"dense{i}:W"], out=net.buffer(f"xhat{i}", shape))
        mu = xhat.mean(axis=0)
        xhat -= mu
        var = np.einsum("ij,ij->j", xhat, xhat) / n     # biased, as normalized
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        out = np.multiply(xhat, gamma, out=net.buffer(f"out{i}", shape))
        out += beta
        # ReLU then dropout is one multiplication by the gate, also d(out)/d(a)
        gate = np.greater(out, 0.0, out=net.buffer(f"gate{i}", shape))
        if masks is not None:
            gate *= masks[i]
        out *= gate
        layers.append({"x_in": x, "xhat": xhat, "gate": gate, "mu": mu, "var": var, "inv_std": inv_std})
        x = out
    return x, layers


def _forward_eval(
    net: Network, batch: EncodedBatch, mode: str, masks: Optional[list[np.ndarray]]
) -> tuple[np.ndarray, list[dict]]:
    """Running-statistics forward, with dropout in "mc" mode: (last hidden output, per-layer cache)."""
    use_dropout = mode == "mc" and masks is not None
    x = _concat_inputs(net, batch)
    layers = []
    for i in range(len(net.hidden)):
        W, b = net.params[f"dense{i}:W"], net.params[f"dense{i}:b"]
        gamma, beta = net.params[f"dense{i}:gamma"], net.params[f"dense{i}:beta"]
        z = x @ W + b
        inv_std = 1.0 / np.sqrt(net.running[f"dense{i}:var"] + BN_EPS)
        xhat = (z - net.running[f"dense{i}:mean"]) * inv_std
        a = gamma * xhat + beta
        out = np.maximum(a, 0.0)
        if use_dropout:
            out *= masks[i]
        layers.append({"x_in": x, "xhat": xhat, "a": a, "inv_std": inv_std})
        x = out
    return x, layers


def _forward_cached(
    net: Network,
    batch: EncodedBatch,
    mode: str,
    dropout_masks: Optional[list[np.ndarray]],
) -> tuple[np.ndarray, dict]:
    # "train": batch statistics + dropout; "inference": running statistics,
    # no dropout; "mc": running statistics with dropout sampling (Monte-Carlo
    # dropout, also what the unbiasedness check needs).
    if mode == "train":
        x, layers = _forward_train(net, batch, dropout_masks)
    else:
        x, layers = _forward_eval(net, batch, mode, dropout_masks)

    logits = x @ net.params["out:W"] + net.params["out:b"]
    if net.binary:
        p = 1.0 / (1.0 + np.exp(-logits[:, 0]))
        probs = np.column_stack([1.0 - p, p])
    else:
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
    cache = {
        "layers": layers, "mode": mode, "masks": dropout_masks,
        "x_last": x, "logits": logits, "probs": probs,
    }
    return probs, cache


def forward(
    net: Network,
    batch: EncodedBatch,
    mode: str = "inference",
    dropout_masks: Optional[list[np.ndarray]] = None,
) -> np.ndarray:
    """Class-probability matrix (rows sum to 1); binary nets emit [1-p, p].

    Inference mode uses running statistics and no dropout. Train mode
    normalizes with batch statistics; "mc" mode keeps running statistics.
    Both apply the given dropout masks (from make_dropout_masks), and
    neither drops anything without them.
    """
    probs, _ = _forward_cached(net, batch, mode, dropout_masks)
    return probs


def class_weight_vector(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (K * n_c); absent classes weigh 0."""
    counts = np.bincount(labels, minlength=n_classes).astype(float)
    weights = np.zeros(n_classes)
    present = counts > 0
    weights[present] = len(labels) / (n_classes * counts[present])
    return weights


def loss(
    probs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    net: Network,
    cfg: TrainConfig,
) -> float:
    """Weighted mean NLL of the true class plus (lambda/2) * sum ||W||^2.

    The weighted mean divides by the sum of sample weights; probabilities
    are floored at 1e-12 before the log.
    """
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= probs.shape[1]:
        raise ValueError("label out of class range")
    p_true = np.clip(probs[np.arange(len(labels)), labels], PROB_FLOOR, None)
    w = np.asarray(weights, dtype=float)[labels]
    data = float((w * -np.log(p_true)).sum() / w.sum())
    l2 = 0.5 * cfg.l2_lambda * sum(
        float(np.vdot(net.params[k], net.params[k])) for k in net.weight_names()
    )
    return data + l2


def _bn_backward(
    da: np.ndarray, xhat: np.ndarray, gamma: np.ndarray, inv_std: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch-norm backward through the batch statistics, in closed form.

    With a = gamma * xhat + beta and xhat the batch-normalized z, returns
    (dz, dgamma, dbeta) where
    dz = gamma * inv_std / n * (n * da - sum(da) - xhat * sum(da * xhat)).
    dz is written over da, and xhat is used as scratch.
    """
    n = da.shape[0]
    dgamma = np.einsum("ij,ij->j", da, xhat)
    dbeta = da.sum(axis=0)
    xhat *= dgamma / n
    da -= xhat
    da -= dbeta / n
    da *= gamma * inv_std
    return da, dgamma, dbeta


def loss_and_grads(
    net: Network,
    batch: EncodedBatch,
    cfg: TrainConfig,
    weights: np.ndarray,
    mode: str = "train",
    dropout_masks: Optional[list[np.ndarray]] = None,
) -> tuple[float, dict[str, np.ndarray], dict]:
    """Backpropagation through the full stack; returns (loss, grads, cache).

    In train mode the dense weight gradients live in the network's workspace
    and the cache's activations are spent by the backward pass.
    """
    labels = batch.labels
    if labels is None:
        raise ValueError("batch carries no labels")
    probs, cache = _forward_cached(net, batch, mode, dropout_masks)
    total = loss(probs, labels, weights, net, cfg)

    n = batch.row_count
    w = np.asarray(weights, dtype=float)[labels]
    w_sum = w.sum()
    grads: dict[str, np.ndarray] = {}

    # output layer: d(data)/d(logits)
    if net.binary:
        p = probs[:, 1]
        dlogits = ((p - labels) * (w / w_sum))[:, None]
    else:
        onehot = np.zeros_like(probs)
        onehot[np.arange(n), labels] = 1.0
        dlogits = (probs - onehot) * (w / w_sum)[:, None]

    x_last = cache["x_last"]
    grads["out:W"] = x_last.T @ dlogits + cfg.l2_lambda * net.params["out:W"]
    grads["out:b"] = dlogits.sum(axis=0)

    train = mode == "train"
    masks = cache["masks"]
    hidden = net.hidden
    n_embedded = sum(dim for _name, _vocab, dim in net.cat_features)
    dx = np.matmul(dlogits, net.params["out:W"].T,
                   out=net.buffer(f"dx{len(hidden) - 1}", x_last.shape) if train else None)
    for i in reversed(range(len(hidden))):
        layer = cache["layers"][i]
        W = net.params[f"dense{i}:W"]
        gamma = net.params[f"dense{i}:gamma"]
        if train:
            dx *= layer["gate"]
            dz, dgamma, dbeta = _bn_backward(dx, layer["xhat"], gamma, layer["inv_std"])
            dW = np.matmul(layer["x_in"].T, dz, out=net.buffer(f"dW{i}", W.shape))
            dW += np.multiply(W, cfg.l2_lambda, out=net.buffer("l2W", W.shape))
            db = np.zeros(hidden[i])        # the bias is not in the train-mode forward
        else:
            da = dx * (layer["a"] > 0)
            if mode == "mc" and masks is not None:
                da *= masks[i]
            dgamma = (da * layer["xhat"]).sum(axis=0)
            dbeta = da.sum(axis=0)
            dz = da * (gamma * layer["inv_std"])
            dW = layer["x_in"].T @ dz + cfg.l2_lambda * W
            db = dz.sum(axis=0)
        grads[f"dense{i}:gamma"] = dgamma
        grads[f"dense{i}:beta"] = dbeta
        grads[f"dense{i}:W"] = dW
        grads[f"dense{i}:b"] = db
        if i:
            dx = np.matmul(dz, W.T, out=net.buffer(f"dx{i - 1}", (n, hidden[i - 1])) if train else None)
        else:
            dx = dz @ W[:n_embedded].T      # of the input, only the embedding columns need it

    # the embeddings fill the first input columns; split their gradient back into the tables
    offset = 0
    for name, _vocab, dim in net.cat_features:
        grad = cfg.l2_lambda * net.params[f"emb:{name}"]
        np.add.at(grad, batch.categorical_indices[name], dx[:, offset:offset + dim])
        grads[f"emb:{name}"] = grad
        offset += dim

    return total, grads, cache


@dataclass
class AdamState:
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0))


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """One bias-corrected Adam step: params, m and v change in place, grads are only read."""
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    step = cfg.learning_rate / (1 - b1 ** state.t)
    v_correction = 1 - b2 ** state.t
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        if state.scratch.size < g.size:
            state.scratch = np.empty(g.size)
        m, v, s = state.m[name], state.v[name], state.scratch[:g.size].reshape(g.shape)
        m *= b1
        m += np.multiply(g, 1 - b1, out=s)
        v *= b2
        np.multiply(g, 1 - b2, out=s)
        v += np.multiply(s, g, out=s)
        # lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, v_correction, out=s)
        np.sqrt(s, out=s)
        s += cfg.adam_eps
        np.divide(m, s, out=s)
        s *= step
        params[name] -= s


def train_step(
    net: Network,
    batch: EncodedBatch,
    cfg: TrainConfig,
    adam_state: AdamState,
    weights: np.ndarray,
    dropout_masks: Optional[list[np.ndarray]] = None,
) -> float:
    """One forward/backward/Adam step; commits batch-norm running statistics.

    Raises NanLossError when the batch loss is not finite so the training
    loop can abort immediately.
    """
    batch_loss, grads, cache = loss_and_grads(
        net, batch, cfg, weights, mode="train", dropout_masks=dropout_masks
    )
    if not np.isfinite(batch_loss):
        raise NanLossError(f"non-finite training loss: {batch_loss}")
    adam_update(net.params, grads, adam_state, cfg)
    mom = cfg.bn_momentum
    for i, layer in enumerate(cache["layers"]):
        # the running mean is of x @ W + b, what inference normalizes
        mean = layer["mu"] + net.params[f"dense{i}:b"]
        net.running[f"dense{i}:mean"] = mom * net.running[f"dense{i}:mean"] + (1 - mom) * mean
        net.running[f"dense{i}:var"] = mom * net.running[f"dense{i}:var"] + (1 - mom) * layer["var"]
    return batch_loss


@dataclass
class EarlyStopper:
    """Stop after `patience` epochs without a strict accuracy improvement."""

    patience: int
    best: float = -np.inf
    best_epoch: int = 0
    epochs_since_best: int = 0

    def update(self, epoch: int, val_accuracy: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_accuracy > self.best:
            self.best = val_accuracy
            self.best_epoch = epoch
            self.epochs_since_best = 0
            return False
        self.epochs_since_best += 1
        return self.epochs_since_best >= self.patience


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0                 # 1-based
    stop_reason: str = ""               # early_stop | max_epochs | nan_abort
    best_val_accuracy: float = float("nan")
    weights_trained: bool = False

    def summary(self) -> dict:
        return {
            "epochs": len(self.train_loss),
            "best_epoch": self.best_epoch,
            "stop_reason": self.stop_reason,
            "best_val_accuracy": self.best_val_accuracy,
            "weights_trained": self.weights_trained,
        }


def train(
    net: Network,
    train_batch: EncodedBatch,
    val_batch: EncodedBatch,
    cfg: TrainConfig,
) -> TrainReport:
    """Mini-batch training with early stopping on validation accuracy.

    Deterministic given cfg.seed: the shuffle and dropout streams come from
    one seeded generator. The best epoch's weights (and running statistics)
    are restored before returning, except after a NaN abort.
    """
    if train_batch.row_count == 0:
        raise ValueError("empty training data")
    if val_batch.row_count == 0:
        raise ValueError("empty validation data")
    if train_batch.labels is None or val_batch.labels is None:
        raise ValueError("training and validation batches need labels")

    weights = class_weight_vector(train_batch.labels, net.n_classes)

    rng = np.random.default_rng(cfg.seed)
    adam_state = AdamState()
    report = TrainReport()
    stopper = EarlyStopper(patience=cfg.patience)
    best_state: Optional[dict[str, np.ndarray]] = None

    try:
        for epoch in range(1, cfg.max_epochs + 1):
            order = rng.permutation(train_batch.row_count)
            batch_losses = []
            try:
                for start in range(0, train_batch.row_count, cfg.batch_size):
                    idx = order[start:start + cfg.batch_size]
                    mini = train_batch.take(idx)
                    masks = make_dropout_masks(net, mini.row_count, cfg.dropout_rates, rng)
                    batch_losses.append(train_step(net, mini, cfg, adam_state, weights, masks))
            except NanLossError:
                report.stop_reason = "nan_abort"
                report.weights_trained = False
                return report

            report.train_loss.append(float(np.mean(batch_losses)))
            val_probs = forward(net, val_batch, mode="inference")
            report.val_loss.append(loss(val_probs, val_batch.labels, weights, net, cfg))
            val_acc = float((val_probs.argmax(axis=1) == val_batch.labels).mean())
            report.val_accuracy.append(val_acc)

            improved = stopper.best < val_acc
            should_stop = stopper.update(epoch, val_acc)
            if improved:
                best_state = net.snapshot()
            if should_stop:
                report.stop_reason = "early_stop"
                break
        else:
            report.stop_reason = "max_epochs"
    finally:
        net.workspace.clear()     # the scratch buffers hold megabytes per head

    report.best_epoch = stopper.best_epoch
    if best_state is not None:
        net.restore(best_state)
        report.weights_trained = True
        report.best_val_accuracy = stopper.best
    return report


@dataclass
class TargetModel:
    """One trained head bundled with the specs its inputs were built from."""

    target: str
    net: Network
    encoder: EncoderSpec
    bins: BinSpec
    train_summary: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.net.input_width != self.encoder.input_width:
            raise ValueError(
                f"{self.target}: encoder width {self.encoder.input_width} does not match "
                f"network input width {self.net.input_width}"
            )
        if self.net.n_classes != self.bins.n_classes:
            raise ValueError(
                f"{self.target}: bin spec has {self.bins.n_classes} classes, "
                f"network {self.net.n_classes}"
            )


def predict(
    models: dict[str, TargetModel],
    records: Sequence,
) -> tuple[list[ResourceClasses], dict[str, np.ndarray]]:
    """Run all four heads on raw task records in one inference pass.

    The records are encoded once per distinct encoder object, so heads that
    share an encoder (every model set from train_all or load_artifact) share
    one encoded batch. Returns per-record ResourceClasses (argmax per target,
    lowest index on ties) and the full probability matrix per target.
    """
    missing = set(TARGET_NAMES) - set(models)
    if missing:
        raise ValueError(f"missing models for targets: {sorted(missing)}")

    batches: dict[int, EncodedBatch] = {}
    probs: dict[str, np.ndarray] = {}
    classes: dict[str, np.ndarray] = {}
    for target, model in models.items():
        key = id(model.encoder)
        if key not in batches:
            batches[key] = encode(records, model.encoder)
        p = forward(model.net, batches[key], mode="inference")
        probs[target] = p
        classes[target] = p.argmax(axis=1)
    return classes_to_resource_classes(classes), probs
