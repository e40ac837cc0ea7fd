"""The metric functions, ``compute_report`` and ``confusion_from_predictions``
that the one-pass metric kernel ``ordchange.metrics.suite`` and the
``np.bincount`` confusion count replaced, kept as a test oracle.

Each metric checks its matrix itself and reports a degenerate case as a
``DegenerateMetricWarning``; ``compute_report`` runs all six and collects
those warnings as its flags. ``confusion_from_predictions`` converts each
label by ``int`` and counts with ``np.add.at``. They share with
``ordchange`` only ``MetricReport``, ``challenge_average`` and the errors.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable

import numpy as np

from ordchange.core import ClassLabel, Task
from ordchange.errors import InvalidInputError, UndefinedMetricError
from ordchange.metrics import MetricReport, challenge_average


class DegenerateMetricWarning(UserWarning):
    """Signals a metric that fell back to 0.0 or skipped a class."""


def _flag(message: str) -> None:
    warnings.warn(message, DegenerateMetricWarning, stacklevel=3)


def _check_cm(cm: np.ndarray) -> np.ndarray:
    arr = np.asarray(cm)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise InvalidInputError(f"confusion matrix must be square with C >= 2, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        raise InvalidInputError("confusion matrix must be numeric")
    arr = arr.astype(np.float64)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidInputError("confusion matrix entries must be finite and non-negative")
    if arr.sum() == 0:
        raise UndefinedMetricError("confusion matrix has no samples")
    return arr


def micro_f1(cm: np.ndarray) -> float:
    """Micro-averaged F1; for single-label data this equals plain accuracy."""
    arr = _check_cm(cm)
    return float(np.trace(arr) / arr.sum())


def specificity(cm: np.ndarray) -> float:
    """Macro-averaged one-vs-rest specificity TN / (TN + FP).

    A class with no one-vs-rest negatives (every sample truly belongs to it)
    is skipped and flagged.
    """
    arr = _check_cm(cm)
    total = arr.sum()
    rows = arr.sum(axis=1)
    cols = arr.sum(axis=0)
    diag = np.diag(arr)
    per_class = []
    for k in range(arr.shape[0]):
        fp = cols[k] - diag[k]
        tn = total - rows[k] - cols[k] + diag[k]
        if tn + fp == 0:
            _flag(f"specificity:skipped_class:{k}")
            continue
        per_class.append(tn / (tn + fp))
    return float(np.mean(per_class))


def rk_correlation(cm: np.ndarray) -> float:
    """K-category correlation coefficient (multiclass Matthews correlation).

    Returns 0.0 with a flag when either marginal is constant, which makes the
    denominator vanish.
    """
    arr = _check_cm(cm)
    s = arr.sum()
    c = np.trace(arr)
    t_k = arr.sum(axis=1)
    p_k = arr.sum(axis=0)
    cov_xy = c * s - float(np.dot(p_k, t_k))
    cov_xx = s * s - float(np.dot(p_k, p_k))
    cov_yy = s * s - float(np.dot(t_k, t_k))
    if cov_xx <= 0 or cov_yy <= 0:
        _flag("rk_correlation:degenerate")
        return 0.0
    return float(cov_xy / math.sqrt(cov_xx * cov_yy))


def cohens_kappa(cm: np.ndarray) -> float:
    """Cohen's kappa: agreement beyond chance from the matrix marginals."""
    arr = _check_cm(cm)
    s = arr.sum()
    p_o = np.trace(arr) / s
    p_e = float(np.dot(arr.sum(axis=1), arr.sum(axis=0))) / (s * s)
    if abs(1.0 - p_e) < 1e-15:
        _flag("cohens_kappa:degenerate")
        return 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def quadratic_weighted_kappa(cm: np.ndarray) -> float:
    """Kappa with quadratic disagreement weights (i - j)^2 / (C - 1)^2.

    For C = 2 the weights are 0/1 and the value coincides with Cohen's kappa.
    """
    arr = _check_cm(cm)
    n_classes = arr.shape[0]
    s = arr.sum()
    idx = np.arange(n_classes, dtype=np.float64)
    w = (idx[:, None] - idx[None, :]) ** 2 / (n_classes - 1) ** 2
    observed = arr / s
    expected = np.outer(arr.sum(axis=1) / s, arr.sum(axis=0) / s)
    denom = float(np.sum(w * expected))
    if denom < 1e-15:
        _flag("qw_kappa:degenerate")
        return 0.0
    return float(1.0 - np.sum(w * observed) / denom)


def balanced_accuracy(cm: np.ndarray) -> float:
    """Mean per-class recall over classes that actually occur in the truth."""
    arr = _check_cm(cm)
    rows = arr.sum(axis=1)
    recalls = []
    for k in range(arr.shape[0]):
        if rows[k] == 0:
            _flag(f"balanced_accuracy:empty_class:{k}")
            continue
        recalls.append(arr[k, k] / rows[k])
    return float(np.mean(recalls))


def compute_report(cm: np.ndarray, task: Task) -> MetricReport:
    """Evaluate the full metric suite, collecting degenerate-metric flags."""
    arr = _check_cm(cm)
    if arr.shape[0] != task.n_classes:
        raise InvalidInputError(
            f"confusion matrix has {arr.shape[0]} classes, task {task.value} expects {task.n_classes}"
        )
    flags: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateMetricWarning)
        values = {
            "micro_f1": micro_f1(arr),
            "specificity": specificity(arr),
            "rk_correlation": rk_correlation(arr),
            "cohens_kappa": cohens_kappa(arr),
            "qw_kappa": quadratic_weighted_kappa(arr),
            "balanced_accuracy": balanced_accuracy(arr),
        }
    for w in caught:
        if issubclass(w.category, DegenerateMetricWarning):
            flags.append(str(w.message))
    return MetricReport(
        task=task,
        average=challenge_average(task, values),
        flags=tuple(flags),
        **values,
    )


def confusion_from_predictions(
    truth: Iterable[int | ClassLabel],
    pred: Iterable[int | ClassLabel],
    n_classes: int,
) -> np.ndarray:
    """Build a confusion matrix with rows = true class, columns = predicted.

    Args:
        truth: true class values in [0, n_classes).
        pred: predicted class values, same length as truth.
        n_classes: number of classes C, at least 2.

    Returns:
        (C, C) int64 array; entry [t, p] counts samples with truth t predicted p.
    """
    if n_classes < 2:
        raise InvalidInputError("confusion matrix needs at least 2 classes")
    t = np.asarray([int(v) for v in truth], dtype=np.int64)
    p = np.asarray([int(v) for v in pred], dtype=np.int64)
    if t.shape != p.shape:
        raise InvalidInputError(f"truth and prediction lengths differ: {t.shape[0]} vs {p.shape[0]}")
    if t.size and (t.min() < 0 or t.max() >= n_classes):
        raise InvalidInputError("truth labels outside [0, n_classes)")
    if p.size and (p.min() < 0 or p.max() >= n_classes):
        raise InvalidInputError("predicted labels outside [0, n_classes)")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm
