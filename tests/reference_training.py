"""The per-layer training step that the flat parameter vector replaced.

Parameters, gradients and Adam moments are lists of per-layer arrays here:
every optimizer step flattens the layers, updates each array on its own and
rebuilds (and re-validates) a ``ModelParams``. Forward and backward allocate
a fresh array for every result, and each loss term has one function for its
per-row values and another for its derivative with respect to the
probabilities. The arithmetic of each array is what ``ordchange.model`` and
``ordchange.losses`` now do on one vector, partly in place, so the two must
agree bit for bit. Balanced batches are concatenated and shuffled one batch
at a time, and ``model.make_batches`` must return the same index arrays and
take the same draws.
"""

from __future__ import annotations

import math

import numpy as np

from ordchange.core import softmax
from ordchange.model import ModelParams

# --- optimizer ---------------------------------------------------------------------


def _flatten(params) -> list[np.ndarray]:
    out = []
    for w, b in (*params.encoder_layers, *params.head_layers):
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


def init_moments(kind: str, params) -> tuple[tuple, tuple]:
    if kind == "adam":
        zeros = tuple(np.zeros_like(a) for a in _flatten(params))
        return zeros, zeros
    return (), ()


def optimizer_step(
    cfg, step: int, m: tuple, v: tuple, params, flat_g: list[np.ndarray], lr: float, freeze_head: bool = False
):
    """One update with the per-layer gradients from ``backward``; returns
    (params, step, m, v). With ``freeze_head`` the head layers' arrays and
    moments are carried over as they are."""
    flat_p = _flatten(params)
    n_updated = 2 * len(params.encoder_layers) if freeze_head else len(flat_p)
    if cfg.kind == "sgd":
        new = [p - lr * g - lr * cfg.weight_decay * p for p, g in zip(flat_p, flat_g)]
        return _rebuild(params, new[:n_updated] + flat_p[n_updated:]), step + 1, (), ()
    t = step + 1
    new_m = tuple(cfg.beta1 * m + (1 - cfg.beta1) * g for m, g in zip(m, flat_g))
    new_v = tuple(cfg.beta2 * v + (1 - cfg.beta2) * g * g for v, g in zip(v, flat_g))
    bias1 = 1 - cfg.beta1**t
    bias2 = 1 - cfg.beta2**t
    new = [
        p - lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.eps) - lr * cfg.weight_decay * p
        for p, m, v in zip(flat_p, new_m, new_v)
    ]
    return (
        _rebuild(params, new[:n_updated] + flat_p[n_updated:]),
        t,
        new_m[:n_updated] + m[n_updated:],
        new_v[:n_updated] + v[n_updated:],
    )


# --- forward -----------------------------------------------------------------------


def _stack(layers, act, relu_last):
    pres = []
    for i, (w, b) in enumerate(layers):
        pre = act @ w.T + b
        pres.append(pre)
        act = pre if i == len(layers) - 1 and not relu_last else np.maximum(pre, 0.0)
    return act, pres


def forward(params, inputs, rng):
    """Training forward pass over one (N, d) matrix per branch; returns the
    logits and the cache that ``backward`` reads."""
    xs = [np.asarray(x, dtype=np.float64) for x in inputs]
    embs, enc_pres = zip(*(_stack(params.encoder_layers, x, relu_last=True) for x in xs))
    head_input = embs[0] if len(embs) == 1 else np.concatenate(embs, axis=1)
    mask = None
    if params.dropout_rate > 0.0:
        mask = (rng.random(head_input.shape) >= params.dropout_rate) / (1.0 - params.dropout_rate)
        head_input = head_input * mask
    logits, head_pres = _stack(params.head_layers, head_input, relu_last=False)
    return logits, dict(
        params=params, inputs=xs, enc_pres=enc_pres, head_input=head_input, drop_mask=mask, head_pres=head_pres
    )


# --- backward ----------------------------------------------------------------------


def _backprop_encoder(params, x, pres, grad_emb):
    grads = [None] * len(params.encoder_layers)
    g = grad_emb
    for i in range(len(params.encoder_layers) - 1, -1, -1):
        g = g * (pres[i] > 0)
        inp = x if i == 0 else np.maximum(pres[i - 1], 0.0)
        grads[i] = (g.T @ inp, g.sum(axis=0))
        g = g @ params.encoder_layers[i][0]
    return grads


def backward(cache: dict, grad_logits: np.ndarray) -> list[np.ndarray]:
    """Per-layer backward over a batch cache from ``forward``; returns the
    gradient arrays in parameter order: w0, b0, w1, b1, ..."""
    params = cache["params"]
    g = np.asarray(grad_logits, dtype=np.float64)
    head_grads = [None] * len(params.head_layers)
    for i in range(len(params.head_layers) - 1, -1, -1):
        inp = cache["head_input"] if i == 0 else np.maximum(cache["head_pres"][i - 1], 0.0)
        head_grads[i] = (g.T @ inp, g.sum(axis=0))
        g = g @ params.head_layers[i][0]
        if i > 0:
            g = g * (cache["head_pres"][i - 1] > 0)
    if cache["drop_mask"] is not None:
        g = g * cache["drop_mask"]
    e = params.encoder_output_dim
    branches = [
        _backprop_encoder(params, x, pres, g[:, k * e : (k + 1) * e])
        for k, (x, pres) in enumerate(zip(cache["inputs"], cache["enc_pres"]))
    ]
    enc_grads = branches[0]
    for other in branches[1:]:
        enc_grads = [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(enc_grads, other)]
    return [a for w, b in (*enc_grads, *head_grads) for a in (w, b)]


# --- losses ------------------------------------------------------------------------


def _ce_rows(P, Y, eps):
    return -np.sum(Y * np.log(np.maximum(P, eps)), axis=1)


def _focal_rows(P, Y, cfg):
    log_pc = np.log(np.maximum(P, cfg.epsilon))
    return -cfg.alpha * np.sum(Y * (1.0 - P) ** cfg.gamma * log_pc, axis=1)


def _emd_rows(P, Y):
    diff = np.cumsum(Y, axis=1) - np.cumsum(P, axis=1)
    return np.sqrt(np.mean(diff * diff, axis=1))


def _loss_rows(kind, P, Y, cfg):
    if kind == "ce":
        return _ce_rows(P, Y, cfg.epsilon)
    if kind == "focal":
        return _focal_rows(P, Y, cfg)
    if kind == "emd":
        return _emd_rows(P, Y)
    return cfg.focal_weight * _focal_rows(P, Y, cfg) + cfg.emd_weight * _emd_rows(P, Y)


def _ce_grad_p(P, Y, eps):
    return np.where(P > eps, -Y / np.maximum(P, eps), 0.0)


def _focal_grad_p(P, Y, cfg):
    log_pc = np.log(np.maximum(P, cfg.epsilon))
    one_minus = 1.0 - P
    d_log = np.where(P > cfg.epsilon, one_minus**cfg.gamma / np.maximum(P, cfg.epsilon), 0.0)
    if cfg.gamma > 0:
        safe_base = np.where(one_minus > 0, one_minus, 1.0)
        d_pow = np.where(one_minus > 0, cfg.gamma * safe_base ** (cfg.gamma - 1.0) * log_pc, 0.0)
    else:
        d_pow = np.zeros_like(P)
    return -cfg.alpha * Y * (d_log - d_pow)


def _emd_grad_p(P, Y):
    n_classes = P.shape[1]
    diff = np.cumsum(Y, axis=1) - np.cumsum(P, axis=1)
    value = np.sqrt(np.mean(diff * diff, axis=1))
    suffix = np.cumsum(diff[:, ::-1], axis=1)[:, ::-1]
    safe = np.where(value > 0, value, 1.0)
    grad = -suffix / (n_classes * safe[:, None])
    return np.where(value[:, None] > 0, grad, 0.0)


def _grad_p_rows(kind, P, Y, cfg):
    if kind == "ce":
        return _ce_grad_p(P, Y, cfg.epsilon)
    if kind == "focal":
        return _focal_grad_p(P, Y, cfg)
    if kind == "emd":
        return _emd_grad_p(P, Y)
    return cfg.focal_weight * _focal_grad_p(P, Y, cfg) + cfg.emd_weight * _emd_grad_p(P, Y)


def batch_loss_gradient(kind, logits, targets, cfg) -> tuple[float, np.ndarray]:
    Z = np.asarray(logits, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    P = softmax(Z)
    values = _loss_rows(kind, P, Y, cfg)
    grad_p = _grad_p_rows(kind, P, Y, cfg)
    grad = P * (grad_p - np.sum(grad_p * P, axis=1, keepdims=True)) / Z.shape[0]
    return float(np.mean(values)), grad


# --- batching ----------------------------------------------------------------------


def balanced_batches(labels: np.ndarray, batch_size: int, n_classes: int, rng: np.random.Generator) -> list:
    """One epoch of balanced batches: floor(batch_size / n_classes) indices of
    every class per batch, each batch concatenated class by class and then
    shuffled. Every class must be present."""
    per_class = batch_size // n_classes
    class_idx = [np.flatnonzero(labels == c) for c in range(n_classes)]
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
