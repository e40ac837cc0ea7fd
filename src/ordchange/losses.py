"""Training losses over class distributions and their analytic logit gradients.

Four kinds, named by ``LOSS_KINDS``:

  ce        -sum_i y_i log(max(p_i, eps))
  focal     -alpha * sum_i y_i (1 - p_i)^gamma log(max(p_i, eps))
  emd       sqrt( (1/C) * sum_i (CDF_y(i) - CDF_p(i))^2 )
  combined  focal_weight * focal + emd_weight * emd

The EMD term compares cumulative distributions, so it is only meaningful when
class indices are ordinal; configuration for the 4-class pair task therefore
rejects it (see ``validate_loss_for_task``).

``loss_value`` is the one scalar entry point: the loss of one probability
vector against a target. Internally each term has one function that
evaluates a whole batch and returns its per-row values together with their
gradient with respect to the probabilities, so a training step computes the
shared logs, powers and cumulative sums once. ``batch_loss_gradient`` chains
that path through softmax and is the one gradient entry point: training
calls it on every batch, and the gradient checks on a one-row batch. The
combined kind scales a term by its weight only when the weight is not 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Task, as_prob_rows, softmax
from .errors import ConfigError, InvalidInputError

LOSS_KINDS: tuple[str, ...] = ("ce", "focal", "emd", "combined")

# Relative-error floor for gradient checking; below this magnitude the
# denominator saturates instead of amplifying finite-difference noise.
_REL_FLOOR = 1e-8


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters for the focal and combined objectives.

    gamma = 0 with alpha = 1 makes the focal term collapse to cross-entropy.
    epsilon clamps the log argument and must stay in (0, 1e-3].
    """

    alpha: float = 1.0
    gamma: float = 2.0
    focal_weight: float = 1.0
    emd_weight: float = 1.0
    epsilon: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "focal_weight", "emd_weight"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if not (0.0 < self.epsilon <= 1e-3):
            raise ConfigError(f"epsilon must lie in (0, 1e-3], got {self.epsilon}")


def check_loss_kind(loss_kind: str) -> None:
    """Reject a name that is not one of ``LOSS_KINDS``."""
    if loss_kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {loss_kind!r}, expected one of {LOSS_KINDS}")


def validate_loss_for_task(loss_kind: str, task: Task) -> None:
    """Reject loss kinds that are unknown or undefined for a task's label set.

    The 4-class pair task includes a class without an ordinal rank, so any
    objective with an EMD term is a configuration error there.
    """
    check_loss_kind(loss_kind)
    if task is Task.T1 and loss_kind in ("emd", "combined"):
        raise ConfigError(
            f"loss {loss_kind!r} needs ordinal classes and is not valid for task t1"
        )


def loss_value(kind: str, p_hat: np.ndarray, y: np.ndarray, cfg: LossConfig | None = None) -> float:
    """The ``kind`` loss of a predicted probability vector against a target
    probability vector of the same length, both checked by the row gate;
    defaults apply when cfg is omitted."""
    p, t = as_prob_rows([p_hat, y])
    return float(_terms(kind, p[None, :], t[None, :], cfg or LossConfig())[0][0])


# --- row-vectorized internals -------------------------------------------------
# P and Y are (N, C) with each row a probability vector. Each term has one
# function returning its per-row values and dL/dp together, so the log, the
# focal weight and the cumulative sums are computed once per batch. These
# carry the only copies of the formulas; ``loss_value``, the gradient checks
# and the training loop all call them. They call the ufunc methods
# (``np.add.reduce``, ``np.add.accumulate``) in place of ``np.sum``,
# ``np.mean`` and ``np.cumsum``, whose Python wrappers cost as much as the
# arithmetic on a training batch, and update their own temporaries in place.


def _ce_terms(P: np.ndarray, Y: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    clamped = np.maximum(P, eps)
    values = -np.add.reduce(Y * np.log(clamped), axis=1)
    # d/dp of -y log(max(p, eps)): the clamp region contributes zero slope.
    return values, np.where(P > eps, -Y / clamped, 0.0)


def _focal_terms(P: np.ndarray, Y: np.ndarray, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    clamped = np.maximum(P, cfg.epsilon)
    log_pc = np.log(clamped)
    one_minus = 1.0 - P
    weight = one_minus**cfg.gamma
    values = np.add.reduce(Y * weight * log_pc, axis=1)
    values *= -cfg.alpha
    d_log = np.where(P > cfg.epsilon, weight / clamped, 0.0)
    if cfg.gamma > 0:
        # Guarded so gamma < 1 does not produce 0^(negative) at p == 1; the
        # true limit of the product there is 0. The base is substituted before
        # the power because where() evaluates both branches. At gamma 0 this
        # term is zero and d_log stays as it is.
        below_one = one_minus > 0
        safe_base = np.where(below_one, one_minus, 1.0)
        d_log -= np.where(below_one, cfg.gamma * safe_base ** (cfg.gamma - 1.0) * log_pc, 0.0)
    grad = -cfg.alpha * Y
    grad *= d_log
    return values, grad


def _emd_terms(P: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_classes = P.shape[1]
    diff = np.add.accumulate(Y, axis=1) - np.add.accumulate(P, axis=1)
    values = np.add.reduce(diff * diff, axis=1)
    values /= n_classes
    np.sqrt(values, out=values)
    # dL/dCDF_p(i) = -diff_i / (C * L); dCDF_p(i)/dp_k = 1 for i >= k, so the
    # per-probability gradient is the suffix sum. Defined as zero at L == 0.
    suffix = np.add.accumulate(diff[:, ::-1], axis=1)[:, ::-1]
    nonzero = values > 0
    grad = -suffix / (n_classes * np.where(nonzero, values, 1.0)[:, None])
    return values, np.where(nonzero[:, None], grad, 0.0)


def _terms(kind: str, P: np.ndarray, Y: np.ndarray, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-row loss values and their gradient with respect to P."""
    if kind == "ce":
        return _ce_terms(P, Y, cfg.epsilon)
    if kind == "focal":
        return _focal_terms(P, Y, cfg)
    if kind == "emd":
        return _emd_terms(P, Y)
    check_loss_kind(kind)  # "combined" is the one kind left
    focal, focal_grad = _focal_terms(P, Y, cfg)
    emd, emd_grad = _emd_terms(P, Y)
    # x * 1.0 is x bit for bit, so a weight of 1.0 (the default) needs no pass.
    if cfg.focal_weight != 1.0:
        focal *= cfg.focal_weight
        focal_grad *= cfg.focal_weight
    if cfg.emd_weight != 1.0:
        emd *= cfg.emd_weight
        emd_grad *= cfg.emd_weight
    focal += emd
    focal_grad += emd_grad
    return focal, focal_grad


def batch_loss_gradient(
    loss_kind: str, logits: np.ndarray, targets: np.ndarray, cfg: LossConfig | None = None
) -> tuple[float, np.ndarray]:
    """Mean loss at softmax(logits) against the target rows over an (N >= 1, C)
    batch, and its gradient with respect to every logit row; the gradient
    already carries the 1/N factor of the mean.
    """
    cfg = cfg or LossConfig()
    Z = np.asarray(logits, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if Z.ndim != 2 or Z.shape != Y.shape or not Z.shape[0]:
        raise InvalidInputError(f"expected matching (N >= 1, C) arrays, got {Z.shape} and {Y.shape}")
    P = softmax(Z)
    values, grad_p = _terms(loss_kind, P, Y, cfg)
    # Softmax Jacobian applied rowwise: dL/dz = p * (g - <g, p>). Entries of
    # each output row sum to zero by construction.
    grad = grad_p - np.add.reduce(grad_p * P, axis=1, keepdims=True)
    grad *= P
    grad /= Z.shape[0]
    return float(np.add.reduce(values)) / values.size, grad


def central_difference_error(
    loss_at: Callable[[np.ndarray], float], vector: np.ndarray, analytic: np.ndarray, h: float
) -> float:
    """Check an analytic gradient of ``loss_at(vector)`` against central differences.

    Each entry of ``vector`` in turn is moved by +h and -h in place, and
    restored. Returns the max over entries of |numeric - analytic| /
    max(|analytic|, 1e-8), which is NaN when any entry's error is, so a NaN
    gradient fails every ``< tolerance`` test. ``h`` must lie in [1e-7, 1e-3].
    """
    if not (1e-7 <= h <= 1e-3):
        raise InvalidInputError(f"step size h must lie in [1e-7, 1e-3], got {h}")
    numeric = np.empty(len(analytic))
    for i in range(len(analytic)):
        orig = vector[i]
        vector[i] = orig + h
        up = loss_at(vector)
        vector[i] = orig - h
        down = loss_at(vector)
        vector[i] = orig
        numeric[i] = (up - down) / (2.0 * h)
    return float(np.max(np.abs(numeric - analytic) / np.maximum(np.abs(analytic), _REL_FLOOR), initial=0.0))


def finite_difference_check(
    loss_kind: str,
    z: np.ndarray,
    y: np.ndarray,
    cfg: LossConfig | None = None,
    h: float = 1e-5,
) -> float:
    """Compare the logit gradient that ``batch_loss_gradient`` gives the
    one-row batch ``z`` against central differences and return
    ``central_difference_error`` over the logits."""
    zv = np.array(z, dtype=np.float64)
    t = as_prob_rows([y])[0]
    _, grad = batch_loss_gradient(loss_kind, zv[None], t[None], cfg)
    return central_difference_error(lambda v: loss_value(loss_kind, softmax(v), t, cfg), zv, grad[0], h)
