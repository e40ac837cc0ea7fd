"""A small MLP classifier with an optional siamese late-fusion topology.

The network is an encoder stack of ReLU layers followed by a head whose final
layer is linear. In the siamese topology the encoder is shared between the
two inputs of a pair and the head consumes the concatenated embeddings, so
its input width is twice the encoder output. Dropout, when enabled, applies
to the head input only and only during training (inverted scaling, so
inference needs no correction).

Everything is numpy with explicit caches and hand-written backpropagation;
``forward``/``siamese_forward`` return the cache that ``backward`` consumes.

Parameters, gradients and Adam moments each live in one contiguous float64
vector laid out w0, b0, w1, b1, ... in encoder-then-head order (the
checkpoint body's order); the per-layer (w, b) pairs are views into it.
``backward`` writes every layer's gradient into its view of one buffer, and
``optimizer_step`` is a few vector operations. ``ModelParams`` is validated
when a model is built, loaded or saved; the parameters each optimizer step
makes keep the checked layout and are only checked for non-finite entries.
Parameter updates are functional: ``optimizer_step`` returns new parameter
and state objects and never mutates its arguments.

``train`` and ``predict`` take a columnar ``Dataset``: its feature matrix
feeds the plain topology, and for T1 pairs its two matrices feed the
siamese one. Batches are index arrays into the dataset's rows.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Dataset, Task, atomic_write, confusion_from_predictions, softmax
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    InvalidInputError,
    InvalidStateError,
    NumericError,
)
from .losses import (
    LossConfig,
    _emd_terms,
    _focal_terms,
    batch_loss_gradient,
    loss_gradient,
    validate_loss_for_task,
)
from .metrics import MetricReport, compute_report

OPTIMIZER_KINDS: tuple[str, ...] = ("sgd", "adam")

CHECKPOINT_MAGIC = b"ORDCHKPT"
CHECKPOINT_VERSION = 1


# --- parameters ----------------------------------------------------------------


def _adopt(obj, vector: np.ndarray, layout: tuple) -> None:
    """Make ``vector`` the storage of ``obj``, a ModelParams or Gradients.

    ``layout`` is (number of encoder layers, (out, in) of every layer). The
    vector holds w0, b0, w1, b1, ... in encoder-then-head order, and the
    object's per-layer (w, b) pairs become views into it.
    """
    n_encoder, shapes = layout
    views, off = [], 0
    for out_dim, in_dim in shapes:
        end = off + out_dim * in_dim
        views.append((vector[off:end].reshape(out_dim, in_dim), vector[end : end + out_dim]))
        off = end + out_dim
    object.__setattr__(obj, "vector", vector)
    object.__setattr__(obj, "layout", layout)
    object.__setattr__(obj, "encoder_layers", tuple(views[:n_encoder]))
    object.__setattr__(obj, "head_layers", tuple(views[n_encoder:]))


def _pack(obj) -> None:
    """Copy the per-layer arrays ``obj`` was built with into one vector it owns."""
    layers = (*obj.encoder_layers, *obj.head_layers)
    vector = np.concatenate([np.ravel(a) for layer in layers for a in layer]).astype(np.float64, copy=False)
    _adopt(obj, vector, (len(obj.encoder_layers), tuple(np.shape(w) for w, _ in layers)))


def _over(cls, vector: np.ndarray, layout: tuple, **fields):
    """A ``cls`` (ModelParams or Gradients) over ``vector``, without the
    constructor's checks: for vectors made from an already checked layout."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    _adopt(obj, vector, layout)
    return obj


@dataclass(frozen=True)
class ModelParams:
    """Weights of the encoder and head stacks plus the dropout rate.

    Each layer is a (weight, bias) pair with weight shape (out, in). A head
    input width equal to twice the encoder output marks the siamese topology.

    The constructor validates the layers and copies them into ``vector``;
    ``encoder_layers`` and ``head_layers`` are then views into it.
    """

    encoder_layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    head_layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    dropout_rate: float = 0.0
    vector: np.ndarray = field(init=False, repr=False, compare=False)
    layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.head_layers:
            raise ConfigError("model needs at least one head layer")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        n_enc = len(self.encoder_layers)
        layers = (*self.encoder_layers, *self.head_layers)
        for i, (w, b) in enumerate(layers):
            where = f"encoder layer {i}" if i < n_enc else f"head layer {i - n_enc}"
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ConfigError(f"{where}: weight {w.shape} and bias {b.shape} are inconsistent")
            if i not in (0, n_enc) and w.shape[1] != layers[i - 1][0].shape[0]:
                raise ConfigError(f"{where} input {w.shape[1]} breaks the chain")
        if n_enc:
            enc_out, head_in = layers[n_enc - 1][0].shape[0], layers[n_enc][0].shape[1]
            if head_in not in (enc_out, 2 * enc_out):
                raise ConfigError(
                    f"head input {head_in} must equal the encoder output {enc_out} or twice it"
                )
        _pack(self)
        if not np.all(np.isfinite(self.vector)):
            raise ConfigError("parameters contain non-finite entries")

    @property
    def head_offset(self) -> int:
        """Where the head's parameters start in ``vector``."""
        return sum(w.size + b.size for w, b in self.encoder_layers)

    @property
    def encoder_output_dim(self) -> int:
        if self.encoder_layers:
            return self.encoder_layers[-1][0].shape[0]
        return self.head_layers[0][0].shape[1]

    @property
    def head_input_dim(self) -> int:
        return self.head_layers[0][0].shape[1]

    @property
    def is_siamese(self) -> bool:
        return bool(self.encoder_layers) and self.head_input_dim == 2 * self.encoder_output_dim

    @property
    def input_dim(self) -> int:
        if self.encoder_layers:
            return self.encoder_layers[0][0].shape[1]
        return self.head_input_dim

    @property
    def n_classes(self) -> int:
        return self.head_layers[-1][0].shape[0]


@dataclass(frozen=True)
class Gradients:
    """Per-layer gradients in the ModelParams layout, held in one vector the
    way ModelParams holds its parameters."""

    encoder_layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    head_layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    vector: np.ndarray = field(init=False, repr=False, compare=False)
    layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _pack(self)


def init_params(
    encoder_dims: Sequence[int],
    head_dims: Sequence[int],
    dropout: float = 0.0,
    seed: int | np.random.SeedSequence = 0,
) -> ModelParams:
    """Build freshly initialized parameters.

    Weights draw from the scaled uniform range +-sqrt(6 / (fan_in + fan_out)),
    biases start at zero. Layers are drawn encoder-first in order, so the same
    seed reproduces bit-identical parameters.

    Args:
        encoder_dims: dims chain of the encoder, e.g. (8, 16); a single entry
            means no encoder layers and the head consumes inputs directly.
        head_dims: dims chain of the head, e.g. (16, 3). The first entry must
            equal the encoder output, or twice it for the siamese topology.
    """
    enc = tuple(int(d) for d in encoder_dims)
    head = tuple(int(d) for d in head_dims)
    if len(enc) < 1 or any(d < 1 for d in enc):
        raise ConfigError(f"encoder_dims must be positive ints, got {encoder_dims!r}")
    if len(head) < 2 or any(d < 1 for d in head):
        raise ConfigError(f"head_dims needs at least (in, out) positive ints, got {head_dims!r}")
    if head[0] not in (enc[-1], 2 * enc[-1]):
        raise ConfigError(
            f"head input {head[0]} must equal the encoder output {enc[-1]} or twice it"
        )
    rng = np.random.default_rng(seed)

    def draw(chain: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        layers = []
        for fan_in, fan_out in zip(chain[:-1], chain[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            layers.append((w, np.zeros(fan_out)))
        return tuple(layers)

    return ModelParams(encoder_layers=draw(enc), head_layers=draw(head), dropout_rate=float(dropout))


# --- forward / backward ---------------------------------------------------------


def _as_batch(x: np.ndarray, width: int, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise InvalidInputError(f"{name} must have width {width}, got shape {np.asarray(x).shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr, single


def _encode(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    act = x
    pres = []
    for w, b in params.encoder_layers:
        pre = act @ w.T + b
        pres.append(pre)
        act = np.maximum(pre, 0.0)
    return act, pres


def _head(
    params: ModelParams,
    h: np.ndarray,
    training: bool,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray | None, list[np.ndarray]]:
    mask = None
    if training and params.dropout_rate > 0.0:
        if rng is None:
            raise InvalidInputError("training forward with dropout needs an rng")
        keep = 1.0 - params.dropout_rate
        mask = (rng.random(h.shape) >= params.dropout_rate) / keep
        h = h * mask
    act = h
    pres = []
    last = len(params.head_layers) - 1
    for i, (w, b) in enumerate(params.head_layers):
        pre = act @ w.T + b
        pres.append(pre)
        act = pre if i == last else np.maximum(pre, 0.0)
    return act, mask, pres


def forward(
    params: ModelParams,
    x: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Run the plain topology on a feature vector or a batch of rows.

    Returns the logits and the cache that ``backward`` consumes. Dropout fires
    only when ``training`` is set and the parameters carry a nonzero rate.
    """
    if params.is_siamese:
        raise InvalidInputError("siamese parameters take paired inputs; use siamese_forward")
    xb, single = _as_batch(x, params.input_dim, "x")
    emb, enc_pres = _encode(params, xb)
    logits, mask, head_pres = _head(params, emb, training, rng)
    cache = {
        "mode": "plain",
        "params": params,
        "x": xb,
        "enc_pres": enc_pres,
        "head_input": emb if mask is None else emb * mask,
        "drop_mask": mask,
        "head_pres": head_pres,
        "single": single,
    }
    return (logits[0] if single else logits), cache


def siamese_forward(
    params: ModelParams,
    x_a: np.ndarray,
    x_b: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Run the siamese topology: shared encoder, concatenated embeddings, head."""
    if not params.is_siamese:
        raise InvalidInputError("parameters describe a plain topology; use forward")
    xa, single_a = _as_batch(x_a, params.input_dim, "x_a")
    xb, single_b = _as_batch(x_b, params.input_dim, "x_b")
    if xa.shape[0] != xb.shape[0] or single_a != single_b:
        raise InvalidInputError(f"paired batches differ in length: {xa.shape[0]} vs {xb.shape[0]}")
    emb_a, pres_a = _encode(params, xa)
    emb_b, pres_b = _encode(params, xb)
    fused = np.concatenate([emb_a, emb_b], axis=1)
    logits, mask, head_pres = _head(params, fused, training, rng)
    cache = {
        "mode": "siamese",
        "params": params,
        "x_a": xa,
        "x_b": xb,
        "enc_pres_a": pres_a,
        "enc_pres_b": pres_b,
        "head_input": fused if mask is None else fused * mask,
        "drop_mask": mask,
        "head_pres": head_pres,
        "single": single_a,
    }
    return (logits[0] if single_a else logits), cache


def _layer_grad(g: np.ndarray, inp: np.ndarray, out: tuple[np.ndarray, np.ndarray]) -> None:
    np.matmul(g.T, inp, out=out[0])
    np.sum(g, axis=0, out=out[1])


def _backprop_encoder(
    params: ModelParams,
    x: np.ndarray,
    pres: list[np.ndarray],
    grad_emb: np.ndarray,
    out: Sequence[tuple[np.ndarray, np.ndarray]],
) -> None:
    g = grad_emb
    for i in range(len(params.encoder_layers) - 1, -1, -1):
        g = g * (pres[i] > 0)
        _layer_grad(g, x if i == 0 else np.maximum(pres[i - 1], 0.0), out[i])
        if i > 0:
            g = g @ params.encoder_layers[i][0]


def backward(cache: dict, grad_logits: np.ndarray) -> Gradients:
    """Backpropagate a logit gradient through the cache from a forward pass.

    ``grad_logits`` must match the cached logits' shape; the returned
    gradients have exactly the ModelParams layout, and every layer's gradient
    is written straight into its view of the one gradient vector. In the
    siamese topology the two branches accumulate into the shared encoder
    gradients.
    """
    if not isinstance(cache, dict) or "mode" not in cache or "params" not in cache:
        raise InvalidStateError("backward needs the cache produced by a forward pass")
    params: ModelParams = cache["params"]
    expected = cache["head_pres"][-1].shape
    g = np.asarray(grad_logits, dtype=np.float64)
    if cache["single"]:
        if g.shape != (expected[1],):
            raise InvalidInputError(f"grad_logits shape {g.shape} does not match logits {(expected[1],)}")
        g = g[None, :]
    elif g.shape != expected:
        raise InvalidInputError(f"grad_logits shape {g.shape} does not match logits {expected}")

    grads = _over(Gradients, np.empty_like(params.vector), params.layout)
    for i in range(len(params.head_layers) - 1, -1, -1):
        inp = cache["head_input"] if i == 0 else np.maximum(cache["head_pres"][i - 1], 0.0)
        _layer_grad(g, inp, grads.head_layers[i])
        g = g @ params.head_layers[i][0]
        if i > 0:
            g = g * (cache["head_pres"][i - 1] > 0)
    if cache["drop_mask"] is not None:
        g = g * cache["drop_mask"]

    if cache["mode"] == "plain":
        _backprop_encoder(params, cache["x"], cache["enc_pres"], g, grads.encoder_layers)
    else:
        e = params.encoder_output_dim
        _backprop_encoder(params, cache["x_a"], cache["enc_pres_a"], g[:, :e], grads.encoder_layers)
        branch_b = _over(Gradients, np.empty_like(params.vector), params.layout)
        _backprop_encoder(params, cache["x_b"], cache["enc_pres_b"], g[:, e:], branch_b.encoder_layers)
        n = params.head_offset
        grads.vector[:n] += branch_b.vector[:n]
    return grads


def finite_difference_check_params(
    params: ModelParams,
    inputs: Sequence[np.ndarray],
    target: np.ndarray,
    loss_kind: str,
    cfg: LossConfig | None = None,
    h: float = 1e-5,
) -> float:
    """Compare analytic parameter gradients against central differences.

    ``inputs`` holds one feature vector for the plain topology or the
    (x_a, x_b) pair for the siamese one. Dropout stays off, so the loss is a
    deterministic function of the parameters. Returns the maximum relative
    error |numeric - analytic| / max(|analytic|, 1e-8) over every weight and
    bias entry.
    """
    cfg = cfg if cfg is not None else LossConfig()
    if not (1e-7 <= h <= 1e-3):
        raise InvalidInputError(f"step size h must lie in [1e-7, 1e-3], got {h}")
    expected = 2 if params.is_siamese else 1
    if len(inputs) != expected:
        raise InvalidInputError(
            f"this topology takes {expected} input vector(s), got {len(inputs)}"
        )

    def run(p: ModelParams) -> tuple[np.ndarray, dict]:
        if p.is_siamese:
            return siamese_forward(p, inputs[0], inputs[1])
        return forward(p, inputs[0])

    logits, cache = run(params)
    analytic = backward(cache, loss_gradient(loss_kind, logits, target, cfg)[1]).vector
    vector = params.vector.copy()
    bumped = _over(ModelParams, vector, params.layout, dropout_rate=params.dropout_rate)
    worst = 0.0
    for i, ana in enumerate(analytic):
        orig = vector[i]
        vector[i] = orig + h
        up = loss_gradient(loss_kind, run(bumped)[0], target, cfg)[0]
        vector[i] = orig - h
        down = loss_gradient(loss_kind, run(bumped)[0], target, cfg)[0]
        vector[i] = orig
        numeric = (up - down) / (2.0 * h)
        worst = max(worst, abs(numeric - ana) / max(abs(ana), 1e-8))
    return worst


# --- optimizers -----------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """First-order optimizer selection and hyperparameters.

    weight_decay is decoupled: it subtracts lr * decay * param directly and
    never enters the moment estimates.
    """

    kind: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer {self.kind!r}, expected one of {OPTIMIZER_KINDS}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError(f"optimizer eps must be > 0, got {self.eps}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class OptimizerState:
    """Step counter and first/second moment vectors (None for sgd), laid out
    like ``ModelParams.vector``."""

    config: OptimizerConfig
    step: int
    m: np.ndarray | None
    v: np.ndarray | None


def init_optimizer_state(cfg: OptimizerConfig, params: ModelParams) -> OptimizerState:
    if cfg.kind == "adam":
        zeros = np.zeros_like(params.vector)
        return OptimizerState(config=cfg, step=0, m=zeros, v=zeros)
    return OptimizerState(config=cfg, step=0, m=None, v=None)


def optimizer_step(
    state: OptimizerState, params: ModelParams, grads: Gradients, lr: float
) -> tuple[ModelParams, OptimizerState]:
    """Apply one update and return the new parameters and optimizer state.

    The update is a handful of vector operations on the flat parameter and
    gradient vectors; every entry gets the same arithmetic a per-layer update
    gives it. The new parameters share the old layout and are checked for
    non-finite entries only.
    """
    if not (np.isfinite(lr) and lr > 0):
        raise InvalidInputError(f"learning rate must be finite and > 0, got {lr}")
    if grads.layout != params.layout:
        raise InvalidInputError("gradient layout does not match the parameters")
    cfg = state.config
    p, g = params.vector, grads.vector
    m = v = None
    if cfg.kind == "sgd":
        new = p - lr * g - lr * cfg.weight_decay * p
    else:
        m = cfg.beta1 * state.m + (1 - cfg.beta1) * g
        v = cfg.beta2 * state.v + (1 - cfg.beta2) * g * g
        bias1 = 1 - cfg.beta1 ** (state.step + 1)
        bias2 = 1 - cfg.beta2 ** (state.step + 1)
        new = p - lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.eps) - lr * cfg.weight_decay * p
    if not np.all(np.isfinite(new)):
        raise NumericError("the optimizer step produced non-finite parameters")
    new_params = _over(ModelParams, new, params.layout, dropout_rate=params.dropout_rate)
    return new_params, OptimizerState(cfg, state.step + 1, m, v)


# --- training configuration ------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the data.

    balanced_batches and undersample_majority are mutually exclusive batch
    composition modes; leaving both off shuffles and chunks the epoch plainly.
    freeze_head_epochs keeps the head parameters fixed for the first epochs
    while the learning-rate ramp runs.
    """

    task: Task = Task.T2
    loss_kind: str = "combined"
    loss: LossConfig = field(default_factory=LossConfig)
    encoder_dims: tuple[int, ...] = (16, 32)
    head_dims: tuple[int, ...] = (32, 3)
    dropout: float = 0.0
    epochs: int = 30
    warmup_epochs: int = 0
    lr: float = 1e-3
    lr_decay: float = 0.97
    batch_size: int = 32
    seed: int = 0
    balanced_batches: bool = False
    undersample_majority: float = 0.0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    early_stop_patience: int = 0
    freeze_head_epochs: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "encoder_dims", tuple(int(d) for d in self.encoder_dims))
        object.__setattr__(self, "head_dims", tuple(int(d) for d in self.head_dims))
        validate_loss_for_task(self.loss_kind, self.task)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("warmup_epochs", "freeze_head_epochs"):
            if not (0 <= getattr(self, name) <= self.epochs):
                raise ConfigError(f"{name} must lie in [0, epochs], got {getattr(self, name)}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (0 < self.lr_decay <= 1):
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.balanced_batches and self.batch_size < self.task.n_classes:
            raise ConfigError(
                f"balanced batches need batch_size >= {self.task.n_classes}, got {self.batch_size}"
            )
        for name in ("undersample_majority", "early_stop_patience", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.balanced_batches and self.undersample_majority > 0:
            raise ConfigError("balanced_batches and undersample_majority cannot both be active")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.head_dims and self.head_dims[-1] != self.task.n_classes:
            raise ConfigError(
                f"head output {self.head_dims[-1]} must equal the task's {self.task.n_classes} classes"
            )


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    lr: float
    val_report: MetricReport


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch training statistics plus the index of the best epoch."""

    entries: tuple[EpochStats, ...]
    best_epoch: int

    @property
    def best_average(self) -> float:
        return self.entries[self.best_epoch].val_report.average


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Linear warmup from zero to cfg.lr, then exponential decay.

    Epoch 0 takes the first ramp step (lr / warmup_epochs); the epoch equal to
    warmup_epochs is the first at full lr, decaying by lr_decay per epoch after.
    """
    if epoch < 0:
        raise InvalidInputError(f"epoch must be >= 0, got {epoch}")
    if epoch < cfg.warmup_epochs:
        return cfg.lr * (epoch + 1) / cfg.warmup_epochs
    return cfg.lr * cfg.lr_decay ** (epoch - cfg.warmup_epochs)


# --- batching --------------------------------------------------------------------


def make_batches(labels: np.ndarray, cfg: TrainConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Compose one epoch of batches as index arrays into ``labels``, one label per row.

    Balanced mode puts floor(batch_size / C) samples of every class into each
    batch, drawing minority classes with replacement; the majority class sets
    the number of batches. Undersample mode caps the majority class at
    undersample_majority times the largest minority count for the epoch.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if n == 0:
        raise InvalidInputError("cannot batch an empty dataset")
    n_classes = cfg.task.n_classes

    if cfg.balanced_batches:
        per_class = cfg.batch_size // n_classes
        class_idx = [np.flatnonzero(labels == c) for c in range(n_classes)]
        for c, idx in enumerate(class_idx):
            if idx.size == 0:
                raise DataError(f"balanced batches need samples of class {c}, none present")
        n_batches = int(math.ceil(max(idx.size for idx in class_idx) / per_class))
        streams = []
        for idx in class_idx:
            needed = n_batches * per_class
            if idx.size >= needed:
                streams.append(rng.permutation(idx)[:needed])
            else:
                streams.append(rng.choice(idx, size=needed, replace=True))
        batches = []
        for b in range(n_batches):
            batch = np.concatenate([s[b * per_class : (b + 1) * per_class] for s in streams])
            rng.shuffle(batch)
            batches.append(batch)
        return batches

    if cfg.undersample_majority > 0:
        counts = np.bincount(labels, minlength=n_classes)
        majority = int(np.argmax(counts))
        rest = np.delete(counts, majority)
        if rest.size == 0 or rest.max() == 0:
            raise DataError("undersampling needs at least one non-majority class with samples")
        cap = max(1, int(round(cfg.undersample_majority * int(rest.max()))))
        maj_idx = rng.permutation(np.flatnonzero(labels == majority))[:cap]
        pool = np.concatenate([maj_idx, np.flatnonzero(labels != majority)])
        pool = rng.permutation(pool)
        return [pool[i : i + cfg.batch_size] for i in range(0, pool.size, cfg.batch_size)]

    pool = rng.permutation(n)
    return [pool[i : i + cfg.batch_size] for i in range(0, pool.size, cfg.batch_size)]


# --- training and prediction ------------------------------------------------------


def _logits_for(params: ModelParams, data: Dataset) -> np.ndarray:
    if data.x_b is None:
        return forward(params, data.x, training=False)[0]
    return siamese_forward(params, data.x, data.x_b, training=False)[0]


def _loss_diagnostics(logits: np.ndarray, targets: np.ndarray, cfg: LossConfig) -> str:
    probs = softmax(logits)
    focal = float(np.mean(_focal_terms(probs, targets, cfg)[0]))
    emd = float(np.mean(_emd_terms(probs, targets)[0]))
    return f"focal={focal!r} emd={emd!r}"


# A diverging run overflows; the loop reports the non-finite logits, loss or
# parameters as one NumericError, without numpy's warnings on top.
@np.errstate(over="ignore", invalid="ignore")
def train(data: Dataset, val_data: Dataset, cfg: TrainConfig) -> tuple[ModelParams, TrainHistory]:
    """Train from scratch and return the best-validation parameters.

    The train and validation sets must be patient-disjoint and hold the
    config's task. Validation runs after every epoch; the returned parameters
    are those of the epoch with the highest validation challenge average, and
    early stopping fires after ``early_stop_patience`` epochs without
    improving it (0 disables).

    Identical inputs and config produce bit-identical parameters and history.
    """
    overlap = np.intersect1d(data.patient_id, val_data.patient_id)
    if overlap.size:
        raise InvalidInputError(f"train/val patients overlap: {overlap[:5].tolist()}")
    for d in (data, val_data):
        if len(d) == 0:
            raise InvalidInputError("dataset is empty")
        if d.task is not cfg.task:
            raise InvalidInputError(f"dataset holds {d.task.value} rows but the config trains {cfg.task.value}")
    feat_dim = data.x.shape[1]
    if cfg.encoder_dims[0] != feat_dim:
        raise ConfigError(f"encoder input {cfg.encoder_dims[0]} does not match feature dim {feat_dim}")
    pairs = data.x_b is not None
    want_head_in = 2 * cfg.encoder_dims[-1] if pairs else cfg.encoder_dims[-1]
    if cfg.head_dims[0] != want_head_in:
        raise ConfigError(
            f"head input {cfg.head_dims[0]} must be {want_head_in} for {'pair' if pairs else 'plain'} rows "
            f"with encoder output {cfg.encoder_dims[-1]}"
        )

    n_classes = cfg.task.n_classes
    onehot = np.eye(n_classes)[data.labels]

    seed_init, seed_batch, seed_drop = np.random.SeedSequence(cfg.seed).spawn(3)
    params = init_params(cfg.encoder_dims, cfg.head_dims, cfg.dropout, seed=seed_init)
    opt_state = init_optimizer_state(cfg.optimizer, params)
    rng_batch = np.random.default_rng(seed_batch)
    rng_drop = np.random.default_rng(seed_drop)

    head_offset = params.head_offset
    history: list[EpochStats] = []
    best_params = params
    best_epoch = 0
    best_avg = -np.inf

    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        loss_sum = 0.0
        sample_count = 0
        for batch_no, idx in enumerate(make_batches(data.labels, cfg, rng_batch)):
            targets = onehot[idx]
            if pairs:
                logits, cache = siamese_forward(
                    params, data.x[idx], data.x_b[idx], training=True, rng=rng_drop
                )
            else:
                logits, cache = forward(params, data.x[idx], training=True, rng=rng_drop)
            if not np.isfinite(logits).all():
                raise NumericError(f"non-finite logits at epoch {epoch} batch {batch_no}: the run diverged")
            loss_value, grad_logits = batch_loss_gradient(cfg.loss_kind, logits, targets, cfg.loss)
            if not np.isfinite(loss_value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} batch {batch_no}: "
                    + _loss_diagnostics(logits, targets, cfg.loss)
                )
            grads = backward(cache, grad_logits)
            if epoch < cfg.freeze_head_epochs:
                grads.vector[head_offset:] = 0.0
            params, opt_state = optimizer_step(opt_state, params, grads, lr)
            loss_sum += loss_value * idx.size
            sample_count += idx.size

        val_pred = np.argmax(_logits_for(params, val_data), axis=1)
        cm = confusion_from_predictions(val_data.labels, val_pred, n_classes)
        report = compute_report(cm, cfg.task)
        history.append(
            EpochStats(epoch=epoch, train_loss=loss_sum / sample_count, lr=lr, val_report=report)
        )
        if report.average > best_avg:
            best_avg = report.average
            best_params = params
            best_epoch = epoch
        elif cfg.early_stop_patience > 0 and epoch - best_epoch >= cfg.early_stop_patience:
            break

    return best_params, TrainHistory(entries=tuple(history), best_epoch=best_epoch)


def predict(params: ModelParams, data: Dataset) -> np.ndarray:
    """Class probabilities as an (N, C) matrix, one row per dataset row in
    order. Dropout never fires here."""
    if data.x_b is not None and not params.is_siamese:
        raise InvalidInputError("pair data needs siamese parameters")
    if data.x_b is None and params.is_siamese:
        raise InvalidInputError("siamese parameters need pair data")
    return softmax(_logits_for(params, data))


# --- checkpoints -------------------------------------------------------------------


def save_checkpoint(path: str | os.PathLike, params: ModelParams) -> None:
    """Validate the parameters and write them to a binary checkpoint, atomically.

    Layout: 8-byte magic, u32 version, f64 dropout rate, u32 layer counts for
    encoder and head, per-layer (out, in) u32 pairs, the parameter vector as
    row-major little-endian f64 (each layer's weight then bias, in order), and
    a trailing CRC32 of everything before it.
    """
    params = ModelParams(params.encoder_layers, params.head_layers, params.dropout_rate)
    header = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    header.append(struct.pack("<d", params.dropout_rate))
    header.append(struct.pack("<II", len(params.encoder_layers), len(params.head_layers)))
    header += [struct.pack("<II", out_dim, in_dim) for out_dim, in_dim in params.layout[1]]
    payload = b"".join(header) + params.vector.astype("<f8", copy=False).tobytes()
    atomic_write(path, payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def load_checkpoint(path: str | os.PathLike) -> ModelParams:
    """Read and validate a checkpoint written by ``save_checkpoint``.

    Raises CheckpointError on a bad magic string, version mismatch, truncated
    data, checksum failure, or parameters that do not form a model.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(CHECKPOINT_MAGIC) + 4 + 4:
        raise CheckpointError(f"checkpoint {path} is truncated")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    payload, (crc_stored,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"checkpoint {path} failed its checksum")
    off = len(CHECKPOINT_MAGIC)

    def take(fmt: str) -> tuple:
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(payload):
            raise CheckpointError(f"checkpoint {path} is truncated")
        vals = struct.unpack_from(fmt, payload, off)
        off += size
        return vals

    (version,) = take("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, expected {CHECKPOINT_VERSION}"
        )
    (dropout,) = take("<d")
    n_enc, n_head = take("<II")
    shapes = tuple(take("<II") for _ in range(n_enc + n_head))
    body = len(payload) - off
    expected = 8 * sum(out_dim * (in_dim + 1) for out_dim, in_dim in shapes)
    if body < expected:
        raise CheckpointError(f"checkpoint {path} is truncated")
    if body > expected:
        raise CheckpointError(f"checkpoint {path} carries {body - expected} unexpected trailing bytes")
    raw = _over(ModelParams, np.frombuffer(payload, dtype="<f8", offset=off), (n_enc, shapes))
    try:
        return ModelParams(raw.encoder_layers, raw.head_layers, dropout)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint {path} holds inconsistent parameters: {exc}") from exc
