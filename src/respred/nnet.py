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

Train mode computes in the params' dtype (``Network.dtype``): its workspace,
dropout draws, class weights and Adam state take it, so a network whose
params and running statistics are float32 trains in float32 with no upcast
in a step. Inference always computes in float64: _stack widens the params
first, so a float32 network infers exactly what it serves once widened.
``pipeline`` trains its heads that way; a Network is built in float64.

Inference has one arithmetic, one kernel and no dropout. The kernel runs a
stack of heads that share one encoder and one layer shape (_Stack): each
hidden layer's batch normalization, an affine map under the running
statistics, is folded into its dense weights and bias, and the H heads'
folded layers are stacked into (H, in, out) weights, (H, 1, out) biases
and (H, vocab, dim) embedding tables, so a layer of all H heads is one
batched matmul, one add and one ReLU. The output layer is padded to the
widest head with -inf biases, and a binary head's logit z becomes the pair
(0, z), so one softmax serves every head. A model set is one stack, made
on its first predict and kept on its models (``TargetModel.stacked``, see
_model_stack), so a model's params and running statistics must not change
in place after its first predict; heads of another encoder or other layer
widths are refused (check_one_stack). ``forward``'s inference mode and the
per-epoch validation forward are the one-head case, stacked afresh on
every call. A block is INFERENCE_BLOCK_ROWS // H rows of all H heads; the
blocks, each a view of the batch, write their activations into one
scratch store and their probabilities into one output array, so a pass
holds the output and a full and a last block's activations, whatever the
row count. Inference never touches the network's workspace, so
concurrent predictions on one network are safe.

``_forward_cached`` is the unfolded pass: dense layer, batch normalization,
ReLU and, in train mode, dropout mask, over the whole batch. It backs train
mode, whose batch statistics need the whole batch, and ``loss_and_grads`` in
both modes, whose backward loop mirrors it; it is also the reference the
folded arithmetic is tested against. Every pass reads its input rows with
one gather (_gather) into a scratch store, a dict of arrays keyed by (name,
shape) (_buffer). Train mode's store is the network's workspace, so the
full batches and the last short batch of an epoch each get their own set
and a step allocates no activation-sized arrays: its masks, activations,
gates, input gradients and dense weight gradients are written into it with
``out=``, and ``train`` empties it when it returns. Arrays that train mode
hands back (masks, gradients, cache) are views of that workspace and hold
only until the next train-mode call on the same network. The inference
mode of the unfolded pass allocates a store of its own.

Train mode leaves the dense bias out: batch normalization subtracts the
batch mean, which cancels any per-unit bias exactly, so ``z = x @ W`` and the
running mean tracks ``mean(z) + b`` instead. Inference computes
``x @ W + b`` against that running mean, so a model predicts the same
either way, and the train-mode gradient of ``dense<i>:b`` is exactly zero
rather than rounding noise that Adam would turn into bias drift.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, Optional, Sequence

import numpy as np

from .discretize import TARGET_NAMES, BinSpec, ResourceClasses, classes_to_resource_classes
from .encode import EncodedBatch, EncoderSpec, encode

BN_EPS = 1e-5
PROB_FLOOR = 1e-12
# rows per block of an inference forward: the widest activation of a block
# is 1024 x 256 floats (2 MB), and a block's numpy call overhead stays under
# 5% of its arithmetic
INFERENCE_BLOCK_ROWS = 1024


class NanLossError(FloatingPointError):
    """Raised by train_step when the batch loss is not finite."""


@dataclass(frozen=True)
class TrainConfig:
    l2_lambda: float = 1e-4
    batch_size: int = 256
    learning_rate: float = 5e-5
    patience: int = 4
    max_epochs: int = 200
    seed: int = 0
    # constants of the recipe, not settings
    dropout_rates: ClassVar[tuple[float, ...]] = (0.40, 0.30, 0.30)
    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8
    bn_momentum: ClassVar[float] = 0.99

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
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

    @property
    def dtype(self) -> np.dtype:
        """The params' float type, which train mode computes in."""
        return self.params["out:W"].dtype

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


def _buffer(store: dict, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """The array for (name, shape) in store, made on first use; its contents are left over."""
    key = (name, shape)
    buf = store.get(key)
    if buf is None:
        buf = store[key] = np.empty(shape, dtype)
    return buf


def _buffers(net: Network, train: bool) -> Callable[[str, tuple[int, ...]], np.ndarray]:
    """An unfolded pass's buffer store, in the params' dtype: the workspace in train mode, a new dict otherwise."""
    return functools.partial(_buffer, net.workspace if train else {}, dtype=net.dtype)


def make_dropout_masks(
    net: Network, n_rows: int, rates: Sequence[float], rng: np.random.Generator
) -> list[np.ndarray]:
    """Inverted-dropout masks, one per hidden layer: Bernoulli(keep) / keep.

    One uniform draw covers every layer. The masks are views into the
    network's workspace, overwritten by its next draw for the same row count.
    """
    draws = _buffer(net.workspace, "masks", (n_rows, sum(net.hidden)), net.dtype)
    rng.random(out=draws, dtype=draws.dtype)
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


def _gather(
    cat_features: tuple[tuple[str, int, int], ...],
    tables: Sequence[np.ndarray],
    batch: EncodedBatch,
    out: np.ndarray,
) -> np.ndarray:
    """Write a batch's input rows into out, (rows, width) or (H, rows, width), and return it.

    The embeddings, from (vocab, dim) or (H, vocab, dim) tables, come first, then the numeric columns.
    """
    col = 0
    for (name, vocab, dim), table in zip(cat_features, tables):
        try:
            np.take(table, batch.categorical_indices[name], axis=-2, out=out[..., col:col + dim])
        except IndexError:
            raise ValueError(f"{name}: index exceeds vocabulary size {vocab}") from None
        col += dim
    numeric = batch.numeric_matrix
    if col + numeric.shape[1] != out.shape[-1]:
        raise ValueError(
            f"encoded width {col + numeric.shape[1]} does not match network input width {out.shape[-1]}"
        )
    out[..., col:] = numeric
    return out


def _check_call(net: Network, n_rows: int, mode: str, dropout_masks: Optional[list[np.ndarray]]) -> None:
    """Refuse an unknown mode, and masks that are not one (rows, width) array per hidden layer."""
    if mode not in ("train", "inference"):
        raise ValueError(f"unknown forward mode {mode!r}: expected 'train' or 'inference'")
    if dropout_masks is None or mode == "inference":
        return
    if len(dropout_masks) != len(net.hidden):
        raise ValueError(f"{len(dropout_masks)} dropout masks given for {len(net.hidden)} hidden layers")
    for i, (mask, width) in enumerate(zip(dropout_masks, net.hidden)):
        if np.shape(mask) != (n_rows, width):
            raise ValueError(
                f"dropout mask of dense{i} has shape {np.shape(mask)}, expected {(n_rows, width)}"
            )


def _forward_cached(
    net: Network,
    batch: EncodedBatch,
    mode: str,
    dropout_masks: Optional[list[np.ndarray]],
) -> tuple[np.ndarray, dict]:
    """The unfolded pass: (class probabilities, per-layer cache for loss_and_grads).

    It runs the whole batch through dense layer, batch normalization, ReLU
    and, in train mode, dropout mask, as the gradients need them. Train mode
    writes its activations into the network's workspace; inference allocates.
    """
    train = mode == "train"
    buffer = _buffers(net, train)
    n = batch.row_count
    x = _gather(net.cat_features, [net.params[f"emb:{name}"] for name, _, _ in net.cat_features], batch,
                buffer("x0", (n, net.input_width)))
    layers = []
    for i, width in enumerate(net.hidden):
        shape = (n, width)
        W = net.params[f"dense{i}:W"]
        gamma, beta = net.params[f"dense{i}:gamma"], net.params[f"dense{i}:beta"]
        # normalized in place: xhat starts as x @ W
        xhat = np.matmul(x, W, out=buffer(f"xhat{i}", shape))
        if train:
            # the bias is left out: the batch mean cancels it
            mu = xhat.mean(axis=0)
            xhat -= mu
            var = np.einsum("ij,ij->j", xhat, xhat) / n     # biased, as normalized
        else:
            mu, var = net.running[f"dense{i}:mean"], net.running[f"dense{i}:var"]
            xhat += net.params[f"dense{i}:b"]
            xhat -= mu
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        out = np.multiply(xhat, gamma, out=buffer(f"out{i}", shape))
        out += beta
        # ReLU then dropout is one multiplication by the gate, also d(out)/d(a)
        gate = np.greater(out, 0.0, out=buffer(f"gate{i}", shape))
        if train and dropout_masks is not None:
            gate *= dropout_masks[i]
        out *= gate
        layers.append({"x_in": x, "xhat": xhat, "gate": gate, "mu": mu, "var": var, "inv_std": inv_std})
        x = out

    probs = _probabilities(x @ net.params["out:W"] + net.params["out:b"], net.binary)
    return probs, {"layers": layers, "x_last": x}


def _largest_finite_exponent(dtype: type) -> np.floating:
    """The largest x of ``dtype`` whose np.exp is finite."""
    x = np.log(np.finfo(dtype).max)
    with np.errstate(over="ignore"):
        while not np.isfinite(np.exp(x)):
            x = np.nextafter(x, dtype(-np.inf))
        while np.isfinite(np.exp(np.nextafter(x, dtype(np.inf)))):
            x = np.nextafter(x, dtype(np.inf))
    return x


# the sigmoid's exponent bound by dtype: 88.72283 in float32, 709.78 in float64
SIGMOID_EXPONENT_LIMIT = {dt: _largest_finite_exponent(dt) for dt in (np.float32, np.float64)}


def _probabilities(logits: np.ndarray, binary: bool) -> np.ndarray:
    """Softmax along the last axis, written over logits; a binary head's one logit gives [1 - p, p].

    The sigmoid's exponent -logits is bounded where its exp is still finite,
    so exp never overflows and every exponent below the bound keeps its p;
    one above it gives p below 3e-39 (float32) or 6e-309 (float64), not 0.
    """
    if binary:
        exponent = np.minimum(-logits, SIGMOID_EXPONENT_LIMIT[logits.dtype.type])
        p = 1.0 / (1.0 + np.exp(exponent, out=exponent))
        return np.concatenate([1.0 - p, p], axis=1)
    # the ufuncs' own reductions: ndarray.max and .sum call them through a Python wrapper
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return probs


def forward(
    net: Network,
    batch: EncodedBatch,
    mode: str = "inference",
    dropout_masks: Optional[list[np.ndarray]] = None,
) -> np.ndarray:
    """Class-probability matrix (rows sum to 1); binary nets emit [1-p, p].

    "inference" normalizes with the running statistics and drops nothing; it
    ignores dropout masks. "train" normalizes with batch statistics into the
    network's workspace and applies the given masks (from
    make_dropout_masks), dropping nothing without them; masks that are not
    one (rows, width) array per hidden layer are a ValueError, as is any
    other mode.

    Inference is the one-head case of the kernel that ``predict`` serves:
    the network is folded into a stack of one (see _Stack) on every call, so
    a change to its params shows in the next call, and the batch runs
    through the folded layers in blocks of INFERENCE_BLOCK_ROWS rows. Its
    peak memory does not grow with the row count beyond the (rows, classes)
    result. Train mode runs the whole batch, whose statistics it needs,
    through the unfolded pass.
    """
    _check_call(net, batch.row_count, mode, dropout_masks)
    if mode == "train":
        return _forward_cached(net, batch, mode, dropout_masks)[0]
    return _stacked_probs(_stack([net]), batch, {})[0]


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
    _check_call(net, batch.row_count, mode, dropout_masks)
    probs, cache = _forward_cached(net, batch, mode, dropout_masks)
    total = loss(probs, labels, weights, net, cfg)

    n = batch.row_count
    w = np.asarray(weights, dtype=net.dtype)[labels]
    w_sum = w.sum()
    grads: dict[str, np.ndarray] = {}

    # output layer: d(data)/d(logits)
    if net.binary:
        p = probs[:, 1]
        dlogits = ((p - labels.astype(p.dtype)) * (w / w_sum))[:, None]
    else:
        onehot = np.zeros_like(probs)
        onehot[np.arange(n), labels] = 1.0
        dlogits = (probs - onehot) * (w / w_sum)[:, None]

    x_last = cache["x_last"]
    grads["out:W"] = x_last.T @ dlogits + cfg.l2_lambda * net.params["out:W"]
    grads["out:b"] = dlogits.sum(axis=0)

    train = mode == "train"
    buffer = _buffers(net, train)
    hidden = net.hidden
    n_embedded = sum(dim for _name, _vocab, dim in net.cat_features)
    dx = np.matmul(dlogits, net.params["out:W"].T, out=buffer(f"dx{len(hidden) - 1}", x_last.shape))
    for i in reversed(range(len(hidden))):
        layer = cache["layers"][i]
        W = net.params[f"dense{i}:W"]
        gamma = net.params[f"dense{i}:gamma"]
        dx *= layer["gate"]
        if train:
            dz, dgamma, dbeta = _bn_backward(dx, layer["xhat"], gamma, layer["inv_std"])
            db = np.zeros(hidden[i], net.dtype)     # the bias is not in the train-mode forward
        else:
            # running statistics are constants, so the normalization is affine
            dgamma = (dx * layer["xhat"]).sum(axis=0)
            dbeta = dx.sum(axis=0)
            dz = dx * (gamma * layer["inv_std"])
            db = dz.sum(axis=0)
        dW = np.matmul(layer["x_in"].T, dz, out=buffer(f"dW{i}", W.shape))
        dW += np.multiply(W, cfg.l2_lambda, out=buffer("l2W", W.shape))
        grads[f"dense{i}:gamma"] = dgamma
        grads[f"dense{i}:beta"] = dbeta
        grads[f"dense{i}:W"] = dW
        grads[f"dense{i}:b"] = db
        if i:
            dx = np.matmul(dz, W.T, out=buffer(f"dx{i - 1}", (n, hidden[i - 1])))
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
            state.scratch = np.empty(g.size, g.dtype)
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
    epoch_seconds: list[float] = field(default_factory=list)   # wall time per epoch, not in summary()
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
    val_scratch: dict = {}    # the validation forward's activations, reused every epoch

    try:
        for epoch in range(1, cfg.max_epochs + 1):
            started = time.perf_counter()
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
            val_probs = _stacked_probs(_stack([net]), val_batch, val_scratch)[0]
            report.val_loss.append(loss(val_probs, val_batch.labels, weights, net, cfg))
            val_acc = float((val_probs.argmax(axis=1) == val_batch.labels).mean())
            report.val_accuracy.append(val_acc)
            report.epoch_seconds.append(time.perf_counter() - started)

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
    """One trained head bundled with the specs its inputs were built from.

    The heads of a model set share one encoder and one layer shape. The
    first ``predict`` on a set folds them into one stack (see _model_stack)
    and keeps it on its models, so a network's params and running statistics
    must not be changed in place after that call; build a new TargetModel
    around a network that changed.
    """

    target: str
    net: Network
    encoder: EncoderSpec
    bins: BinSpec
    train_summary: dict = field(default_factory=dict)
    # (the stack of the model set this model was first predicted in, its place in that set)
    stacked: Optional[tuple[_Stack, int]] = field(default=None, init=False, repr=False, compare=False)

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


def check_one_stack(models: Mapping[str, TargetModel]) -> None:
    """Refuse an empty model set, or one whose heads do not share one encoder and one layer shape."""
    if not models:
        raise ValueError("a model set needs at least one head")
    first_target, first = next(iter(models.items()))
    shape = (first.encoder, first.net.hidden, first.net.cat_features)
    for target, model in models.items():
        net = model.net
        if (model.encoder, net.hidden, net.cat_features) != shape:
            raise ValueError(f"{target}: the heads of a model set must share one encoder and one layer shape; "
                             f"{target}'s encoder or layer widths {net.hidden} differ from {first_target}'s")


@dataclass(frozen=True, eq=False)
class _Stack:
    """Heads of one encoder and one layer shape, folded and stacked for one inference pass.

    Head h is index h of every array: one (H, vocab, dim) table per
    categorical feature, and per dense layer, the output layer last, a
    (H, in, out) weight and a (H, 1, out) bias. A hidden layer has batch
    normalization folded in: inference normalizes ``x @ W + b`` with the
    running statistics, so with ``s = gamma / sqrt(var + eps)`` it is
    ``relu(x @ (W * s) + ((b - mean) * s + beta))``. The output layer is as
    wide as the head with the most classes. A binary head's one logit z
    sits in column 1 beside a zero logit, since the softmax of (0, z) is
    (1 - sigmoid(z), sigmoid(z)); the columns past a head's classes have a
    -inf bias, so their softmax share is exactly 0. Every array is a float64
    copy: a float32 network computes what it serves once widened. A model
    set's stack names its heads' targets; ``forward``'s names none.
    """

    cat_features: tuple[tuple[str, int, int], ...]
    input_width: int
    embeddings: tuple[np.ndarray, ...]
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    n_classes: tuple[int, ...]
    targets: tuple[str, ...] = ()


def _stack(nets: Sequence[Network], targets: tuple[str, ...] = ()) -> _Stack:
    """The nets' inference layers stacked; they share categorical features and layer widths."""
    params = [{k: v.astype(np.float64, copy=False) for k, v in net.params.items()} for net in nets]
    running = [{k: v.astype(np.float64, copy=False) for k, v in net.running.items()} for net in nets]
    first = nets[0]
    layers = []
    for i in range(len(first.hidden)):
        weights, biases = [], []
        for p, r in zip(params, running):
            s = p[f"dense{i}:gamma"] / np.sqrt(r[f"dense{i}:var"] + BN_EPS)
            weights.append(p[f"dense{i}:W"] * s)
            biases.append((p[f"dense{i}:b"] - r[f"dense{i}:mean"]) * s + p[f"dense{i}:beta"])
        layers.append((np.stack(weights), np.stack(biases)[:, None, :]))
    width = max(net.n_classes for net in nets)
    W_out = np.zeros((len(nets), params[0]["out:W"].shape[0], width))
    b_out = np.full((len(nets), 1, width), -np.inf)
    for h, (net, p) in enumerate(zip(nets, params)):
        b_out[h, 0, :net.n_classes] = 0.0
        first_logit = 1 if net.binary else 0
        W_out[h, :, first_logit:net.n_classes] = p["out:W"]
        b_out[h, 0, first_logit:net.n_classes] = p["out:b"]
    layers.append((W_out, b_out))
    return _Stack(
        cat_features=first.cat_features,
        input_width=first.input_width,
        embeddings=tuple(np.stack([p[f"emb:{name}"] for p in params]) for name, _, _ in first.cat_features),
        layers=tuple(layers),
        n_classes=tuple(net.n_classes for net in nets),
        targets=targets,
    )


def _stacked_probs(stack: _Stack, batch: EncodedBatch, scratch: dict) -> list[np.ndarray]:
    """Each stacked head's (rows, classes) probabilities for a batch.

    A block is INFERENCE_BLOCK_ROWS // H rows of all H heads, so its
    activations take as much memory as INFERENCE_BLOCK_ROWS rows of one
    head. The batch runs as consecutive blocks, each a view of the batch,
    that write their activations into the arrays of ``scratch`` (with fresh
    arrays, each block's megabytes would go back to the OS and fault in
    again) and their probabilities into one (H, rows, width) array. A head's
    result is its view of that array.
    """
    n_heads, n = len(stack.n_classes), batch.row_count
    *hidden, (W_out, b_out) = stack.layers
    probs = np.empty((n_heads, n, W_out.shape[2]))
    block_rows = max(1, INFERENCE_BLOCK_ROWS // n_heads)
    for start in range(0, n, block_rows):
        rows = slice(start, start + block_rows)
        block = batch.take(rows)
        shape = (n_heads, block.row_count)
        x = _gather(stack.cat_features, stack.embeddings, block,
                    _buffer(scratch, "x0", (*shape, stack.input_width)))
        for i, (W, b) in enumerate(hidden):
            x = np.matmul(x, W, out=_buffer(scratch, f"out{i}", (*shape, W.shape[2])))
            x += b
            np.maximum(x, 0.0, out=x)
        # into contiguous scratch: a block of the (H, rows, width) result is strided
        logits = np.matmul(x, W_out, out=_buffer(scratch, "logits", (*shape, W_out.shape[2])))
        logits += b_out
        probs[:, rows] = _probabilities(logits, binary=False)     # a padded column is exp(-inf) = 0
    return [probs[h, :, :k] for h, k in enumerate(stack.n_classes)]


def _model_stack(models: dict[str, TargetModel]) -> _Stack:
    """The stack of a model set, made on its first predict and kept on its models.

    Model i of the set keeps (stack, i), so the kept stack serves only a set
    of these very models in this very order; any other set, a set made of
    new models included, gets a stack of its own. Two threads that both
    make a set's first predict each stack it and store theirs.
    """
    targets = tuple(models)
    kept = next(iter(models.values())).stacked
    # stacks compare by identity: one read of each model's pair, which another thread may replace
    if kept is not None and kept[0].targets == targets and all(
            model.stacked == (kept[0], i) for i, model in enumerate(models.values())):
        return kept[0]
    check_one_stack(models)
    stack = _stack([model.net for model in models.values()], targets)
    for i, model in enumerate(models.values()):
        model.stacked = (stack, i)
    return stack


def predict(
    models: dict[str, TargetModel],
    records: Sequence,
) -> tuple[list[ResourceClasses], dict[str, np.ndarray]]:
    """Run all four heads on raw task records in one inference pass.

    Returns per-record ResourceClasses (argmax per target, lowest index on
    ties) and the full probability matrix per target, from
    :func:`predict_probabilities`.
    """
    probs = predict_probabilities(models, records)
    classes = {target: p.argmax(axis=1) for target, p in probs.items()}
    return classes_to_resource_classes(classes), probs


def predict_probabilities(models: dict[str, TargetModel], records: Sequence) -> dict[str, np.ndarray]:
    """Each head's (n, classes) probability matrix for raw task records.

    The model set is one stack (a set whose heads differ in encoder or layer
    shape is a ValueError naming the head, see check_one_stack), so the
    records are encoded once, with the heads' one encoder, and run in one
    pass per row block, whose activations go into one scratch store. The
    probabilities are those of ``forward(model.net, batch)`` on an unchanged
    network.
    """
    missing = set(TARGET_NAMES) - set(models)
    if missing:
        raise ValueError(f"missing models for targets: {sorted(missing)}")
    stack = _model_stack(models)
    batch = encode(records, next(iter(models.values())).encoder)
    return dict(zip(models, _stacked_probs(stack, batch, {})))
