"""Multiclass evaluation metrics computed from a confusion matrix.

Conventions shared by every function here:

  * matrices have rows = true class, columns = predicted class;
  * degenerate denominators yield 0.0, so batch evaluation never aborts;
  * one kernel computes the whole suite from one checked matrix, with a
    machine-readable flag per degenerate case; ``compute_report`` returns
    those flags as report data, and each metric function its own value.

Note on specificity: it is macro-averaged one-vs-rest true-negative rate,
which is one of several possible multiclass readings. Classes whose
one-vs-rest negatives are empty are skipped from the average.

The challenge score is the plain mean of a fixed metric subset per task:
micro F1, Rk correlation, and specificity for the 4-class pair task, plus
quadratic-weighted kappa for the 3-class ordinal task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .core import Task
from .errors import ConfigError, InvalidInputError, UndefinedMetricError


T1_AVERAGE_COMPONENTS: tuple[str, ...] = ("micro_f1", "rk_correlation", "specificity")
T2_AVERAGE_COMPONENTS: tuple[str, ...] = (
    "qw_kappa",
    "micro_f1",
    "rk_correlation",
    "specificity",
)


@dataclass(frozen=True)
class MetricReport:
    """Full metric suite for one confusion matrix.

    ``flags`` lists the degenerate-metric markers raised while computing,
    e.g. "rk_correlation:degenerate" or "specificity:skipped_class:0".
    """

    task: Task
    micro_f1: float
    specificity: float
    rk_correlation: float
    cohens_kappa: float
    qw_kappa: float
    balanced_accuracy: float
    average: float
    flags: tuple[str, ...] = ()

    def values(self) -> dict[str, float]:
        """The metrics by name, in ``METRIC_NAMES`` order."""
        return {name: getattr(self, name) for name in METRIC_NAMES}


# The float fields between ``task`` and ``flags``, in declaration order: the
# columns of the history and report CSVs.
METRIC_NAMES: tuple[str, ...] = tuple(f.name for f in fields(MetricReport) if f.name not in ("task", "flags"))


# The largest total the suite scores: the kernel's products of marginals reach the total to the fourth power.
_MAX_TOTAL = float(np.finfo(np.float64).max) ** 0.25


def _check_cm(cm: np.ndarray) -> np.ndarray:
    arr = np.asarray(cm)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise InvalidInputError(f"confusion matrix must be square with C >= 2, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        raise InvalidInputError("confusion matrix must be numeric")
    arr = arr.astype(np.float64)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidInputError("confusion matrix entries must be finite and non-negative")
    with np.errstate(over="ignore"):  # a sum past float64's range is inf, and rejected below
        total = arr.sum()
    if total == 0:
        raise UndefinedMetricError("confusion matrix has no samples")
    if total > _MAX_TOTAL:
        raise InvalidInputError(f"confusion matrix total {total:.6g} is over {_MAX_TOTAL:.6g}, too large to score")
    return arr


def _suite(arr: np.ndarray) -> tuple[dict[str, float], tuple[str, ...]]:
    """Every metric of a matrix that ``_check_cm`` passed, by its
    ``MetricReport`` name in ``METRIC_NAMES`` order, and the degenerate flags:
    the skipped specificity classes, then the degenerate rk, kappa and
    weighted kappa, then the classes balanced accuracy skips."""
    n_classes, s, c = arr.shape[0], arr.sum(), np.trace(arr)
    rows, cols, diag = arr.sum(axis=1), arr.sum(axis=0), np.diag(arr)
    fp, tn = cols - diag, s - rows - cols + diag
    negatives = tn + fp != 0  # classes with one-vs-rest negatives
    chance = float(np.dot(cols, rows))  # the sum of the marginal products
    cov_xx, cov_yy = s * s - float(np.dot(cols, cols)), s * s - float(np.dot(rows, rows))
    rk_flat = cov_xx <= 0 or cov_yy <= 0
    p_e = chance / (s * s)
    kappa_flat = abs(1.0 - p_e) < 1e-15
    idx = np.arange(n_classes, dtype=np.float64)
    w = (idx[:, None] - idx[None, :]) ** 2 / (n_classes - 1) ** 2
    denom = float(np.sum(w * np.outer(rows / s, cols / s)))
    qw_flat = denom < 1e-15
    present = rows != 0
    values = {
        "micro_f1": float(c / s),
        "specificity": float(np.mean(tn[negatives] / (tn + fp)[negatives])),
        "rk_correlation": 0.0 if rk_flat else float((c * s - chance) / math.sqrt(cov_xx * cov_yy)),
        "cohens_kappa": 0.0 if kappa_flat else float((c / s - p_e) / (1.0 - p_e)),
        "qw_kappa": 0.0 if qw_flat else float(1.0 - np.sum(w * (arr / s)) / denom),
        "balanced_accuracy": float(np.mean(diag[present] / rows[present])),
    }
    flags = (
        *(f"specificity:skipped_class:{k}" for k in np.flatnonzero(~negatives)),
        *(f"{name}:degenerate" for name, flat in
          (("rk_correlation", rk_flat), ("cohens_kappa", kappa_flat), ("qw_kappa", qw_flat)) if flat),
        *(f"balanced_accuracy:empty_class:{k}" for k in np.flatnonzero(~present)),
    )
    return values, flags


def micro_f1(cm: np.ndarray) -> float:
    """Micro-averaged F1; for single-label data this equals plain accuracy."""
    return _suite(_check_cm(cm))[0]["micro_f1"]


def specificity(cm: np.ndarray) -> float:
    """Macro-averaged one-vs-rest specificity TN / (TN + FP).

    A class with no one-vs-rest negatives (every sample truly belongs to it)
    is skipped and flagged.
    """
    return _suite(_check_cm(cm))[0]["specificity"]


def rk_correlation(cm: np.ndarray) -> float:
    """K-category correlation coefficient (multiclass Matthews correlation).

    Returns 0.0 with a flag when either marginal is constant, which makes the
    denominator vanish.
    """
    return _suite(_check_cm(cm))[0]["rk_correlation"]


def cohens_kappa(cm: np.ndarray) -> float:
    """Cohen's kappa: agreement beyond chance from the matrix marginals."""
    return _suite(_check_cm(cm))[0]["cohens_kappa"]


def quadratic_weighted_kappa(cm: np.ndarray) -> float:
    """Kappa with quadratic disagreement weights (i - j)^2 / (C - 1)^2.

    For C = 2 the weights are 0/1 and the value coincides with Cohen's kappa.
    """
    return _suite(_check_cm(cm))[0]["qw_kappa"]


def balanced_accuracy(cm: np.ndarray) -> float:
    """Mean per-class recall over classes that actually occur in the truth."""
    return _suite(_check_cm(cm))[0]["balanced_accuracy"]


def challenge_average(task: Task, values: Mapping[str, float]) -> float:
    """Mean of the task's challenge metrics.

    Args:
        task: selects the component subset (T1 drops the weighted kappa).
        values: mapping containing at least the required component names.

    Raises:
        ConfigError: when a required component is missing.
    """
    components = T1_AVERAGE_COMPONENTS if task is Task.T1 else T2_AVERAGE_COMPONENTS
    missing = [name for name in components if name not in values]
    if missing:
        raise ConfigError(f"challenge average for {task.value} missing components: {missing}")
    return float(np.mean([float(values[name]) for name in components]))


def compute_report(cm: np.ndarray, task: Task) -> MetricReport:
    """Evaluate the full metric suite, with its degenerate-metric flags."""
    arr = _check_cm(cm)
    if arr.shape[0] != task.n_classes:
        raise InvalidInputError(
            f"confusion matrix has {arr.shape[0]} classes, task {task.value} expects {task.n_classes}"
        )
    values, flags = _suite(arr)
    return MetricReport(task=task, average=challenge_average(task, values), flags=flags, **values)
