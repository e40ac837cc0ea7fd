"""A small MLP classifier with an optional siamese late-fusion topology.

The network is an encoder stack of ReLU layers followed by a head whose final
layer is linear. In the siamese topology the encoder is shared between the
two inputs of a pair and the head consumes the concatenated embeddings, so
its input width is twice the encoder output. Dropout, when enabled, applies
to the head input only and only during training (inverted scaling, so
inference needs no correction).

Everything is numpy with explicit caches and hand-written backpropagation;
``forward``/``siamese_forward`` return the cache that ``backward`` consumes.
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

from .core import Dataset, Task, confusion_from_predictions, softmax
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
    _emd_rows,
    _focal_rows,
    batch_loss_gradient,
    loss_gradient,
    validate_loss_for_task,
)
from .metrics import MetricReport, compute_report

OPTIMIZER_KINDS: tuple[str, ...] = ("sgd", "adam")

CHECKPOINT_MAGIC = b"ORDCHKPT"
CHECKPOINT_VERSION = 1


# --- parameters ----------------------------------------------------------------


def _check_layer(w: np.ndarray, b: np.ndarray, where: str) -> None:
    if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
        raise ConfigError(f"{where}: weight {w.shape} and bias {b.shape} are inconsistent")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
        raise ConfigError(f"{where}: parameters contain non-finite entries")


@dataclass(frozen=True)
class ModelParams:
    """Weights of the encoder and head stacks plus the dropout rate.

    Each layer is a (weight, bias) pair with weight shape (out, in). A head
    input width equal to twice the encoder output marks the siamese topology.
    """

    encoder_layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    head_layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    dropout_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.head_layers:
            raise ConfigError("model needs at least one head layer")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        object.__setattr__(self, "encoder_layers", tuple((w, b) for w, b in self.encoder_layers))
        object.__setattr__(self, "head_layers", tuple((w, b) for w, b in self.head_layers))
        for i, (w, b) in enumerate(self.encoder_layers):
            _check_layer(w, b, f"encoder layer {i}")
            if i > 0 and w.shape[1] != self.encoder_layers[i - 1][0].shape[0]:
                raise ConfigError(f"encoder layer {i} input {w.shape[1]} breaks the chain")
        for i, (w, b) in enumerate(self.head_layers):
            _check_layer(w, b, f"head layer {i}")
            if i > 0 and w.shape[1] != self.head_layers[i - 1][0].shape[0]:
                raise ConfigError(f"head layer {i} input {w.shape[1]} breaks the chain")
        if self.encoder_layers:
            enc_out = self.encoder_layers[-1][0].shape[0]
            head_in = self.head_layers[0][0].shape[1]
            if head_in not in (enc_out, 2 * enc_out):
                raise ConfigError(
                    f"head input {head_in} must equal the encoder output {enc_out} or twice it"
                )

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
    """Per-layer gradients mirroring the ModelParams layout."""

    encoder_layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    head_layers: tuple[tuple[np.ndarray, np.ndarray], ...]


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


def _backprop_encoder(
    params: ModelParams, x: np.ndarray, pres: list[np.ndarray], grad_emb: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.encoder_layers)  # type: ignore[list-item]
    g = grad_emb
    for i in range(len(params.encoder_layers) - 1, -1, -1):
        g = g * (pres[i] > 0)
        inp = x if i == 0 else np.maximum(pres[i - 1], 0.0)
        grads[i] = (g.T @ inp, g.sum(axis=0))
        g = g @ params.encoder_layers[i][0]
    return grads


def backward(cache: dict, grad_logits: np.ndarray) -> Gradients:
    """Backpropagate a logit gradient through the cache from a forward pass.

    ``grad_logits`` must match the cached logits' shape; the returned
    gradients have exactly the ModelParams layout. In the siamese topology
    the two branches accumulate into the shared encoder gradients.
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

    head_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.head_layers)  # type: ignore[list-item]
    for i in range(len(params.head_layers) - 1, -1, -1):
        inp = cache["head_input"] if i == 0 else np.maximum(cache["head_pres"][i - 1], 0.0)
        head_grads[i] = (g.T @ inp, g.sum(axis=0))
        g = g @ params.head_layers[i][0]
        if i > 0:
            g = g * (cache["head_pres"][i - 1] > 0)
    if cache["drop_mask"] is not None:
        g = g * cache["drop_mask"]

    if cache["mode"] == "plain":
        enc_grads = _backprop_encoder(params, cache["x"], cache["enc_pres"], g)
    else:
        e = params.encoder_output_dim
        grads_a = _backprop_encoder(params, cache["x_a"], cache["enc_pres_a"], g[:, :e])
        grads_b = _backprop_encoder(params, cache["x_b"], cache["enc_pres_b"], g[:, e:])
        enc_grads = [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(grads_a, grads_b)]
    return Gradients(encoder_layers=tuple(enc_grads), head_layers=tuple(head_grads))


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
    analytic = loss_gradient(loss_kind, logits, target, cfg)
    flat_g = _flatten_grads(backward(cache, analytic.grad_logits))
    flat_p = [np.array(a) for a in _flatten(params)]
    worst = 0.0
    for arr, g_arr in zip(flat_p, flat_g):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_gradient(loss_kind, run(_rebuild(params, flat_p))[0], target, cfg).value
            arr[idx] = orig - h
            down = loss_gradient(loss_kind, run(_rebuild(params, flat_p))[0], target, cfg).value
            arr[idx] = orig
            numeric = (up - down) / (2.0 * h)
            ana = g_arr[idx]
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
    """Step counter and first/second moment estimates (empty for sgd)."""

    config: OptimizerConfig
    step: int
    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]


def _flatten(params: ModelParams) -> list[np.ndarray]:
    out = []
    for w, b in (*params.encoder_layers, *params.head_layers):
        out.extend((w, b))
    return out


def _flatten_grads(grads: Gradients) -> list[np.ndarray]:
    out = []
    for w, b in (*grads.encoder_layers, *grads.head_layers):
        out.extend((w, b))
    return out


def _rebuild(params: ModelParams, flat: list[np.ndarray]) -> ModelParams:
    n_enc = len(params.encoder_layers)
    pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(len(flat) // 2)]
    return ModelParams(
        encoder_layers=tuple(pairs[:n_enc]),
        head_layers=tuple(pairs[n_enc:]),
        dropout_rate=params.dropout_rate,
    )


def init_optimizer_state(cfg: OptimizerConfig, params: ModelParams) -> OptimizerState:
    if cfg.kind == "adam":
        zeros = tuple(np.zeros_like(a) for a in _flatten(params))
        return OptimizerState(config=cfg, step=0, m=zeros, v=zeros)
    return OptimizerState(config=cfg, step=0, m=(), v=())


def optimizer_step(
    state: OptimizerState, params: ModelParams, grads: Gradients, lr: float
) -> tuple[ModelParams, OptimizerState]:
    """Apply one update and return the new parameters and optimizer state."""
    if not (np.isfinite(lr) and lr > 0):
        raise InvalidInputError(f"learning rate must be finite and > 0, got {lr}")
    flat_p = _flatten(params)
    flat_g = _flatten_grads(grads)
    if len(flat_p) != len(flat_g) or any(p.shape != g.shape for p, g in zip(flat_p, flat_g)):
        raise InvalidInputError("gradient layout does not match the parameters")
    cfg = state.config
    if cfg.kind == "sgd":
        new = [p - lr * g - lr * cfg.weight_decay * p for p, g in zip(flat_p, flat_g)]
        return _rebuild(params, new), OptimizerState(cfg, state.step + 1, (), ())
    t = state.step + 1
    new_m = tuple(cfg.beta1 * m + (1 - cfg.beta1) * g for m, g in zip(state.m, flat_g))
    new_v = tuple(cfg.beta2 * v + (1 - cfg.beta2) * g * g for v, g in zip(state.v, flat_g))
    bias1 = 1 - cfg.beta1**t
    bias2 = 1 - cfg.beta2**t
    new = [
        p - lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.eps) - lr * cfg.weight_decay * p
        for p, m, v in zip(flat_p, new_m, new_v)
    ]
    return _rebuild(params, new), OptimizerState(cfg, t, new_m, new_v)


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
        if not (0 <= self.warmup_epochs <= self.epochs):
            raise ConfigError(f"warmup_epochs must lie in [0, epochs], got {self.warmup_epochs}")
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
        if self.undersample_majority < 0:
            raise ConfigError(f"undersample_majority must be >= 0, got {self.undersample_majority}")
        if self.balanced_batches and self.undersample_majority > 0:
            raise ConfigError("balanced_batches and undersample_majority cannot both be active")
        if self.early_stop_patience < 0:
            raise ConfigError(f"early_stop_patience must be >= 0, got {self.early_stop_patience}")
        if not (0 <= self.freeze_head_epochs <= self.epochs):
            raise ConfigError(f"freeze_head_epochs must lie in [0, epochs], got {self.freeze_head_epochs}")
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
    focal = float(np.mean(_focal_rows(probs, targets, cfg)))
    emd = float(np.mean(_emd_rows(probs, targets)))
    return f"focal={focal!r} emd={emd!r}"


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
            loss_value, grad_logits = batch_loss_gradient(cfg.loss_kind, logits, targets, cfg.loss)
            if not np.isfinite(loss_value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} batch {batch_no}: "
                    + _loss_diagnostics(logits, targets, cfg.loss)
                )
            grads = backward(cache, grad_logits)
            if epoch < cfg.freeze_head_epochs:
                grads = Gradients(
                    encoder_layers=grads.encoder_layers,
                    head_layers=tuple((np.zeros_like(w), np.zeros_like(b)) for w, b in grads.head_layers),
                )
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
    """Write parameters to a binary checkpoint, atomically.

    Layout: 8-byte magic, u32 version, f64 dropout rate, u32 layer counts for
    encoder and head, per-layer (out, in) u32 pairs, row-major little-endian
    f64 weight then bias arrays in order, and a trailing CRC32 of everything
    before it.
    """
    header = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    header.append(struct.pack("<d", params.dropout_rate))
    header.append(struct.pack("<II", len(params.encoder_layers), len(params.head_layers)))
    all_layers = (*params.encoder_layers, *params.head_layers)
    for w, _ in all_layers:
        header.append(struct.pack("<II", w.shape[0], w.shape[1]))
    body = [np.ascontiguousarray(a, dtype="<f8").tobytes() for w, b in all_layers for a in (w, b)]
    payload = b"".join(header) + b"".join(body)
    blob = payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path: str | os.PathLike) -> ModelParams:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises CheckpointError on a bad magic string, version mismatch, truncated
    data, or checksum failure.
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
    shapes = [take("<II") for _ in range(n_enc + n_head)]
    layers = []
    for out_dim, in_dim in shapes:
        (w_bytes,) = (payload[off : off + 8 * out_dim * in_dim],)
        off += 8 * out_dim * in_dim
        b_bytes = payload[off : off + 8 * out_dim]
        off += 8 * out_dim
        if len(w_bytes) != 8 * out_dim * in_dim or len(b_bytes) != 8 * out_dim:
            raise CheckpointError(f"checkpoint {path} is truncated")
        w = np.frombuffer(w_bytes, dtype="<f8").reshape(out_dim, in_dim).copy()
        b = np.frombuffer(b_bytes, dtype="<f8").copy()
        layers.append((w, b))
    if off != len(payload):
        raise CheckpointError(f"checkpoint {path} carries {len(payload) - off} unexpected trailing bytes")
    try:
        return ModelParams(
            encoder_layers=tuple(layers[:n_enc]),
            head_layers=tuple(layers[n_enc:]),
            dropout_rate=dropout,
        )
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint {path} holds inconsistent parameters: {exc}") from exc
