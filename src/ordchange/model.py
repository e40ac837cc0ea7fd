"""A small MLP classifier, run on one input (plain) or on two (siamese).

The network is an encoder stack of ReLU layers followed by a head whose final
layer is linear. The plain model is the one-branch case of the siamese one:
the shared encoder embeds each branch's input, and the head reads the
embeddings side by side, so its input width is the encoder output times the
number of branches (``ModelParams.n_branches``, 1 or 2). Dropout, when
enabled, applies to the head input only and only during training (inverted
scaling, so inference needs no correction).

Everything is numpy with explicit caches and hand-written backpropagation:
``forward`` takes one (N, d) matrix per branch and returns the cache that
``backward`` consumes, and ``backward`` returns the gradient as one vector.

Parameters, gradients and Adam moments each live in one contiguous float64
vector laid out w0, b0, w1, b1, ... in encoder-then-head order (the
checkpoint body's order); the per-layer (w, b) pairs of ``ModelParams`` are
views into it. ``backward`` writes every layer's gradient into its view of
the gradient vector, and ``optimizer_step`` is a few vector operations.
``ModelParams`` is validated when a model is built, copied, loaded or
saved; an optimizer step keeps the checked layout and only checks its
result for non-finite entries.

``forward``, ``backward`` and ``losses.batch_loss_gradient`` allocate their
results and leave their arguments as they are. ``optimizer_step`` updates
the parameter vector and the Adam moments in place, so ``train`` keeps one
live set of them and copies the parameters of each improving epoch.

``train`` and ``predict`` take a columnar ``Dataset`` and feed the network
its ``inputs``: the feature matrix, or for T1 pairs both matrices. Batches
are index arrays into the dataset's rows.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Dataset, Task, as_prob_rows, atomic_write, confusion_from_predictions, softmax
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
    central_difference_error,
    validate_loss_for_task,
)
from .metrics import MetricReport, compute_report

OPTIMIZER_KINDS: tuple[str, ...] = ("sgd", "adam")

CHECKPOINT_MAGIC = b"ORDCHKPT"
CHECKPOINT_VERSION = 1


# --- parameters ----------------------------------------------------------------


def _views(vector: np.ndarray, layout: tuple) -> tuple[tuple, tuple]:
    """The per-layer (w, b) views of ``vector``: the encoder's, then the head's.

    ``layout`` is (number of encoder layers, (out, in) of every layer), and
    the vector holds w0, b0, w1, b1, ... in encoder-then-head order.
    """
    n_encoder, shapes = layout
    views, off = [], 0
    for out_dim, in_dim in shapes:
        end = off + out_dim * in_dim
        views.append((vector[off:end].reshape(out_dim, in_dim), vector[end : end + out_dim]))
        off = end + out_dim
    return tuple(views[:n_encoder]), tuple(views[n_encoder:])


@dataclass(frozen=True)
class ModelParams:
    """Weights of the encoder and head stacks plus the dropout rate.

    Each layer is a (weight, bias) pair with weight shape (out, in). The head
    input width is the encoder output times ``n_branches``: 1 for the plain
    model, 2 for the siamese one.

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
            if 0 in w.shape:
                raise ConfigError(f"{where}: weight {w.shape} has a zero dimension")
            if i not in (0, n_enc) and w.shape[1] != layers[i - 1][0].shape[0]:
                raise ConfigError(f"{where} input {w.shape[1]} breaks the chain")
        if n_enc:
            enc_out, head_in = layers[n_enc - 1][0].shape[0], layers[n_enc][0].shape[1]
            if head_in not in (enc_out, 2 * enc_out):
                raise ConfigError(
                    f"head input {head_in} must equal the encoder output {enc_out} or twice it"
                )
        vector = np.concatenate([np.ravel(a) for layer in layers for a in layer]).astype(np.float64, copy=False)
        layout = (n_enc, tuple(w.shape for w, _ in layers))
        encoder, head = _views(vector, layout)
        vars(self).update(encoder_layers=encoder, head_layers=head, vector=vector, layout=layout)
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
    def n_branches(self) -> int:
        """How many inputs the network reads per row: 1 plain, 2 siamese."""
        return self.head_input_dim // self.encoder_output_dim

    @property
    def input_dim(self) -> int:
        if self.encoder_layers:
            return self.encoder_layers[0][0].shape[1]
        return self.head_input_dim


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
            equal the encoder output, or twice it for the siamese topology,
            which needs at least one encoder layer.
    """
    enc = tuple(int(d) for d in encoder_dims)
    head = tuple(int(d) for d in head_dims)
    if len(enc) < 1 or any(d < 1 for d in enc):
        raise ConfigError(f"encoder_dims must be positive ints, got {encoder_dims!r}")
    if len(head) < 2 or any(d < 1 for d in head):
        raise ConfigError(f"head_dims needs at least (in, out) positive ints, got {head_dims!r}")
    # Twice the encoder output is the siamese head, which needs an encoder to share.
    if head[0] != enc[-1] and (head[0] != 2 * enc[-1] or len(enc) == 1):
        raise ConfigError(
            f"head input {head[0]} must equal the encoder output {enc[-1]}, "
            "or twice it when the encoder has layers"
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


def _as_batch(x: np.ndarray, width: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise InvalidInputError(f"{name} must have width {width}, got shape {np.asarray(x).shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _stack(
    layers: Sequence[tuple], act: np.ndarray, relu_last: bool
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Run ``act`` through (w, b) layers with a ReLU after each, the last one
    only if ``relu_last``. Returns the output and each layer's input and
    pre-activation."""
    ins, pres = [], []
    for i, (w, b) in enumerate(layers):
        ins.append(act)
        pres.append(act @ w.T + b)
        act = pres[-1] if i == len(layers) - 1 and not relu_last else np.maximum(pres[-1], 0.0)
    return act, ins, pres


def forward(
    params: ModelParams,
    inputs: Sequence[np.ndarray],
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Run the network on one (N, d) matrix per branch: ``(x,)`` for the
    plain model, ``(x, x_b)`` for the siamese one.

    The shared encoder embeds each branch and the head reads the embeddings
    side by side. Returns the (N, C) logits and the cache that ``backward``
    consumes. Dropout fires only when ``training`` is set and the parameters
    carry a nonzero rate.
    """
    if len(inputs) != params.n_branches:
        raise InvalidInputError(f"the model takes {params.n_branches} input(s) per row, got {len(inputs)}")
    xs = [_as_batch(x, params.input_dim, name) for x, name in zip(inputs, ("x", "x_b"))]
    if xs[-1].shape[0] != xs[0].shape[0]:
        raise InvalidInputError(f"paired batches differ in length: {xs[0].shape[0]} vs {xs[-1].shape[0]}")
    embs, enc_ins, enc_pres = zip(*(_stack(params.encoder_layers, x, relu_last=True) for x in xs))
    head_input = embs[0] if len(embs) == 1 else np.concatenate(embs, axis=1)
    mask = None
    if training and params.dropout_rate > 0.0:
        if rng is None:
            raise InvalidInputError("training forward with dropout needs an rng")
        mask = (rng.random(head_input.shape) >= params.dropout_rate) / (1.0 - params.dropout_rate)
        head_input = head_input * mask
    logits, head_ins, head_pres = _stack(params.head_layers, head_input, relu_last=False)
    cache = {
        "params": params,
        "enc_ins": enc_ins,
        "enc_pres": enc_pres,
        "drop_mask": mask,
        "head_ins": head_ins,
        "head_pres": head_pres,
    }
    return logits, cache


def _backprop(
    layers: Sequence[tuple],
    ins: list[np.ndarray],
    pres: list[np.ndarray],
    g: np.ndarray,
    out: Sequence[tuple[np.ndarray, np.ndarray]],
    relu_last: bool,
) -> np.ndarray:
    """Backpropagate ``g``, the gradient at the output of a stack that
    ``_stack`` ran (``relu_last`` as there), and write each layer's gradient
    into its (w, b) views in ``out``. Returns the gradient at the first
    layer's pre-activation."""
    for i in range(len(layers) - 1, -1, -1):
        if relu_last or i < len(layers) - 1:
            g = g * (pres[i] > 0)
        np.matmul(g.T, ins[i], out=out[i][0])
        np.add.reduce(g, axis=0, out=out[i][1])
        if i > 0:
            g = g @ layers[i][0]
    return g


def backward(cache: dict, grad_logits: np.ndarray) -> np.ndarray:
    """Backpropagate a logit gradient through the cache from a forward pass.

    ``grad_logits`` must match the cached logits' shape. Returns the gradient
    as one vector laid out like ``ModelParams.vector``; every layer's gradient
    is written straight into its view of it. Each branch after the first is
    backpropagated into a scratch vector and added into the shared encoder
    gradient.
    """
    if not isinstance(cache, dict) or "head_pres" not in cache or "params" not in cache:
        raise InvalidStateError("backward needs the cache produced by a forward pass")
    params: ModelParams = cache["params"]
    expected = cache["head_pres"][-1].shape
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != expected:
        raise InvalidInputError(f"grad_logits shape {g.shape} does not match logits {expected}")

    grad = np.empty_like(params.vector)
    encoder_grads, head_grads = _views(grad, params.layout)
    g = _backprop(params.head_layers, cache["head_ins"], cache["head_pres"], g, head_grads, relu_last=False)
    g = g @ params.head_layers[0][0]
    if cache["drop_mask"] is not None:
        g = g * cache["drop_mask"]
    e = params.encoder_output_dim
    for k, (ins, pres) in enumerate(zip(cache["enc_ins"], cache["enc_pres"])):
        if k == 0:
            _backprop(params.encoder_layers, ins, pres, g[:, :e], encoder_grads, relu_last=True)
        else:
            branch = np.empty_like(grad)
            branch_grads = _views(branch, params.layout)[0]
            _backprop(params.encoder_layers, ins, pres, g[:, k * e : (k + 1) * e], branch_grads, relu_last=True)
            grad[: params.head_offset] += branch[: params.head_offset]
    return grad


def finite_difference_check_params(
    params: ModelParams,
    inputs: Sequence[np.ndarray],
    target: np.ndarray,
    loss_kind: str,
    cfg: LossConfig | None = None,
    h: float = 1e-5,
) -> float:
    """Compare analytic parameter gradients against central differences.

    ``inputs`` holds one feature vector per branch: ``(x,)`` for the plain
    model, ``(x_a, x_b)`` for the siamese one; each becomes a one-row batch,
    and ``batch_loss_gradient`` gives the loss and logit gradient as in
    training. Dropout stays off, so the loss is a deterministic function of
    the parameters. Returns ``central_difference_error`` over every weight
    and bias entry.
    """
    batch = [np.asarray(x, dtype=np.float64)[None, :] for x in inputs]
    targets = as_prob_rows([target])
    logits, cache = forward(params, batch)
    analytic = backward(cache, batch_loss_gradient(loss_kind, logits, targets, cfg)[1])
    bumped = ModelParams(params.encoder_layers, params.head_layers, params.dropout_rate)
    return central_difference_error(
        lambda _: batch_loss_gradient(loss_kind, forward(bumped, batch)[0], targets, cfg)[0], bumped.vector, analytic, h
    )


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
        # Two arrays: the moments are updated in place.
        return OptimizerState(cfg, step=0, m=np.zeros_like(params.vector), v=np.zeros_like(params.vector))
    return OptimizerState(config=cfg, step=0, m=None, v=None)


def optimizer_step(
    state: OptimizerState,
    params: ModelParams,
    grads: np.ndarray,
    lr: float,
    freeze_head: bool = False,
) -> tuple[ModelParams, OptimizerState]:
    """Apply one update in place and return the parameters and the new state.

    ``grads`` is a gradient vector laid out like ``params.vector``, as
    ``backward`` returns it. The update is a handful of vector operations
    on ``params.vector`` and the Adam moments of ``state``, which the
    returned state shares; every entry gets the same arithmetic a per-layer
    update gives it. The updated parameters are checked for non-finite
    entries only. ``freeze_head`` leaves the head's parameters and moments
    as they are, weight decay included.
    """
    if not (np.isfinite(lr) and lr > 0):
        raise InvalidInputError(f"learning rate must be finite and > 0, got {lr}")
    p, g = params.vector, np.asarray(grads, dtype=np.float64)
    if g.shape != p.shape:
        raise InvalidInputError(f"gradient vector shape {g.shape} does not match the parameters' {p.shape}")
    cfg = state.config
    # In place, each with the operands and order of the expression in its
    # comment, so the update is bit-identical to it.
    n = params.head_offset if freeze_head else None
    p, g = p[:n], g[:n]
    step, scratch = np.empty_like(p), np.empty_like(p)
    if cfg.kind == "sgd":
        np.multiply(g, lr, out=step)  # step = lr * g
    else:
        t = state.step + 1
        m, v = state.m[:n], state.v[:n]
        m *= cfg.beta1  # m = beta1 * m + (1 - beta1) * g
        m += np.multiply(g, 1 - cfg.beta1, out=scratch)
        v *= cfg.beta2  # v = beta2 * v + (1 - beta2) * g * g
        np.multiply(g, 1 - cfg.beta2, out=scratch)
        scratch *= g
        v += scratch
        np.divide(m, 1 - cfg.beta1**t, out=step)  # step = lr * (m / bias1) / (sqrt(v / bias2) + eps)
        step *= lr
        np.divide(v, 1 - cfg.beta2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += cfg.eps
        step /= scratch
    decay = np.multiply(p, lr * cfg.weight_decay, out=scratch)  # p = p - step - lr * weight_decay * p
    p -= step
    p -= decay
    if not np.isfinite(p).all():
        raise NumericError("the optimizer step produced non-finite parameters")
    return params, OptimizerState(cfg, state.step + 1, state.m, state.v)


# --- training configuration ------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the data.

    balanced_batches and undersample_majority are mutually exclusive batch
    composition modes; leaving both off shuffles and chunks the epoch plainly.
    freeze_head_epochs keeps the head parameters fixed for the first epochs
    while the learning-rate ramp runs. val_ratio and folds pick the
    patient-disjoint splits that the ``train`` command fits one after another.
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
    val_ratio: float = 0.2
    folds: int = 0

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
        # The rate rises through the warmup and falls after it, so its first
        # epoch, last warmup epoch and last epoch hold its extremes.
        for epoch in sorted({0, max(self.warmup_epochs - 1, 0), self.epochs - 1}):
            rate = lr_schedule(epoch, self)
            if not (math.isfinite(rate) and rate > 0):
                raise ConfigError(
                    f"lr={self.lr}, lr_decay={self.lr_decay}, warmup_epochs={self.warmup_epochs} and "
                    f"epochs={self.epochs} give epoch {epoch} a learning rate of {rate}; it must be finite and > 0"
                )
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
        if self.folds < 0 or self.folds == 1:
            raise ConfigError(f"folds must be 0 (single split) or >= 2, got {self.folds}")
        if not (0.0 < self.val_ratio < 1.0):
            raise ConfigError(f"val_ratio must lie in (0, 1), got {self.val_ratio}")


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
    inputs = data.inputs
    want_head_in = len(inputs) * cfg.encoder_dims[-1]
    if cfg.head_dims[0] != want_head_in:
        raise ConfigError(
            f"head input {cfg.head_dims[0]} must be {want_head_in} for {'pair' if len(inputs) == 2 else 'plain'} "
            f"rows with encoder output {cfg.encoder_dims[-1]}"
        )

    n_classes = cfg.task.n_classes
    onehot = np.eye(n_classes)[data.labels]

    seed_init, seed_batch, seed_drop = np.random.SeedSequence(cfg.seed).spawn(3)
    # The live parameters and optimizer state, which every step updates in place.
    params = init_params(cfg.encoder_dims, cfg.head_dims, cfg.dropout, seed=seed_init)
    opt_state = init_optimizer_state(cfg.optimizer, params)
    rng_batch = np.random.default_rng(seed_batch)
    rng_drop = np.random.default_rng(seed_drop)

    history: list[EpochStats] = []
    best_params = params
    best_epoch = 0
    best_avg = -np.inf

    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        frozen = epoch < cfg.freeze_head_epochs
        loss_sum = 0.0
        sample_count = 0
        for batch_no, idx in enumerate(make_batches(data.labels, cfg, rng_batch)):
            targets = onehot[idx]
            logits, cache = forward(params, [x[idx] for x in inputs], training=True, rng=rng_drop)
            if not np.isfinite(logits).all():
                raise NumericError(f"non-finite logits at epoch {epoch} batch {batch_no}: the run diverged")
            loss_value, grad_logits = batch_loss_gradient(cfg.loss_kind, logits, targets, cfg.loss)
            if not math.isfinite(loss_value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} batch {batch_no}: "
                    + _loss_diagnostics(logits, targets, cfg.loss)
                )
            grads = backward(cache, grad_logits)
            params, opt_state = optimizer_step(opt_state, params, grads, lr, freeze_head=frozen)
            loss_sum += loss_value * idx.size
            sample_count += idx.size

        val_pred = np.argmax(forward(params, val_data.inputs)[0], axis=1)
        cm = confusion_from_predictions(val_data.labels, val_pred, n_classes)
        report = compute_report(cm, cfg.task)
        history.append(
            EpochStats(epoch=epoch, train_loss=loss_sum / sample_count, lr=lr, val_report=report)
        )
        if report.average > best_avg:
            best_avg = report.average
            best_params = ModelParams(params.encoder_layers, params.head_layers, params.dropout_rate)
            best_epoch = epoch
        elif cfg.early_stop_patience > 0 and epoch - best_epoch >= cfg.early_stop_patience:
            break

    return best_params, TrainHistory(entries=tuple(history), best_epoch=best_epoch)


# Logits that overflow end in softmax's one InvalidInputError, without numpy's warnings.
@np.errstate(over="ignore", invalid="ignore")
def predict(params: ModelParams, data: Dataset) -> np.ndarray:
    """Class probabilities as an (N, C) matrix, one row per dataset row in
    order. Dropout never fires here."""
    return softmax(forward(params, data.inputs)[0])


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
    encoder, head = _views(np.frombuffer(payload, dtype="<f8", offset=off), (n_enc, shapes))
    try:
        return ModelParams(encoder, head, dropout)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint {path} holds inconsistent parameters: {exc}") from exc
