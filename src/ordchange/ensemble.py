"""Combining predictions across models and enforcing volume-level agreement.

Predictions are arrays: the models' probabilities arrive as one (M, N, C)
stack, M models over the same N records in one row order, and each entry
point checks its input once. Putting rows in that order is the caller's job;
this module knows nothing of record keys. Both voting rules are one kernel,
``group_vote``, which gives each group of rows one label:

  * a group is Stable when the fraction of its rows labeled Stable is at
    least the threshold;
  * otherwise the majority among its non-Stable rows wins (among all rows
    with ``majority_includes_stable``), and a tied majority breaks by the
    configured rule: the highest mean probability over the counted rows and
    then the lower class, or the most severe class.

The non-Stable-majority reading keeps the rules from collapsing into plain
majority voting. The three entry points:

  * ``mean_ensemble``: the mean over models, then the argmax (ties to the
    lower class).
  * ``unanimity_ensemble``: ``group_vote`` over each record's M argmax
    labels at threshold 1.0, so a record is Stable only when every model
    says Stable; the probabilities reported are the across-model means.
  * ``volume_consistency``: ``group_vote`` over the B-scans of each volume
    at ``stable_ratio_threshold``, broadcast back to every B-scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import ClassLabel, as_prob_rows
from .errors import ConfigError, InvalidInputError


class TieBreak(Enum):
    MEAN_PROBABILITY = "mean_probability"
    MOST_SEVERE = "most_severe"


@dataclass(frozen=True)
class PostprocessConfig:
    """Knobs for the voting and volume-consistency rules."""

    stable_ratio_threshold: float = 0.8
    tie_break: TieBreak = TieBreak.MEAN_PROBABILITY
    majority_includes_stable: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.stable_ratio_threshold <= 1.0):
            raise ConfigError(
                f"stable_ratio_threshold must lie in (0, 1], got {self.stable_ratio_threshold}"
            )
        if not isinstance(self.tie_break, TieBreak):
            raise ConfigError(f"tie_break must be a TieBreak, got {self.tie_break!r}")


def _checked(stack: np.ndarray) -> np.ndarray:
    """``stack`` as a float64 (M, N, C) array of at least one model whose
    every row passes the simplex gate."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or not stack.shape[0]:
        raise InvalidInputError(f"need an (M >= 1, N, C) stack of probabilities, got shape {stack.shape}")
    as_prob_rows(stack.reshape(-1, stack.shape[2]))
    return stack


def group_vote(
    groups: np.ndarray, labels: np.ndarray, probs: np.ndarray, threshold: float, cfg: PostprocessConfig
) -> np.ndarray:
    """One label per group of rows, by the rule in the module docstring.

    Args:
        groups: (N,) group ids; every id in [0, G) must occur.
        labels: (N,) class labels in [0, C).
        probs: (N, C) probability rows, already validated.
        threshold: the stable fraction at or above which a group is Stable.
        cfg: the tie-break and ``majority_includes_stable`` settings.

    Returns:
        (G,) int64 labels. Sums run in row order, so a group's mean equals
        ``np.mean`` over its counted rows bit for bit.
    """
    n_groups = int(groups.max()) + 1 if groups.size else 0
    n_classes = probs.shape[1]
    stable = labels == ClassLabel.STABLE
    stable_group = np.bincount(groups, stable, n_groups) / np.bincount(groups, minlength=n_groups) >= threshold
    counted = np.ones_like(stable) if cfg.majority_includes_stable else ~stable
    # Each (group, class) pair is one bincount cell, group-major.
    first_cell = groups[counted] * n_classes
    votes = np.bincount(first_cell + labels[counted], minlength=n_groups * n_classes).reshape(n_groups, n_classes)
    tied = votes == votes.max(axis=1, keepdims=True)
    if cfg.tie_break is TieBreak.MOST_SEVERE:
        winner = n_classes - 1 - np.argmax(tied[:, ::-1], axis=1)
    else:
        cells = (first_cell[:, np.newaxis] + np.arange(n_classes)).ravel()
        sums = np.bincount(cells, probs[counted].ravel(), n_groups * n_classes).reshape(n_groups, n_classes)
        mean = sums / np.maximum(votes.sum(axis=1, keepdims=True), 1)
        # argmax takes the first of equal means, i.e. the lower class.
        winner = np.argmax(np.where(tied, mean, -np.inf), axis=1)
    return np.where(stable_group, int(ClassLabel.STABLE), winner)


def mean_ensemble(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average the (M, N, C) probabilities across models and take the argmax
    per record. Returns the (N,) labels and the (N, C) mean probabilities;
    argmax ties resolve to the lower class.
    """
    mean = np.mean(_checked(stack), axis=0)
    return mean.argmax(axis=1), mean


def unanimity_ensemble(
    stack: np.ndarray, cfg: PostprocessConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the unanimity vote per record across the (M, N, C) probabilities.

    Each record's group holds its models' rows in model order. Returns the
    (N,) labels and the (N, C) mean probabilities; downstream volume
    tie-breaking uses the means.
    """
    stack = _checked(stack)
    n_models, n_records, n_classes = stack.shape
    rows = stack.transpose(1, 0, 2).reshape(-1, n_classes)
    groups = np.repeat(np.arange(n_records), n_models)
    labels = group_vote(groups, rows.argmax(axis=1), rows, 1.0, cfg or PostprocessConfig())
    return labels, np.mean(stack, axis=0)


def volume_consistency(
    volume_ids: Sequence[str] | np.ndarray,
    labels: np.ndarray,
    probs: np.ndarray,
    cfg: PostprocessConfig | None = None,
) -> np.ndarray:
    """Force one label per volume and broadcast it to the B-scans.

    A volume is Stable when the fraction of its B-scans labeled Stable is at
    least ``stable_ratio_threshold`` (inclusive); otherwise the majority
    among its non-Stable B-scans wins, ties per the config. Returns the (N,)
    relabeled B-scans in input order.
    """
    cfg = cfg or PostprocessConfig()
    volume_ids = np.asarray(volume_ids, dtype=str)
    if not volume_ids.size:
        raise InvalidInputError("volume consistency needs at least one prediction")
    labels, probs = np.asarray(labels, dtype=np.int64), as_prob_rows(probs)
    if volume_ids.shape != labels.shape or labels.shape != probs.shape[:1]:
        raise InvalidInputError(
            f"volume ids, labels and probabilities disagree on the row count: "
            f"{volume_ids.shape}, {labels.shape}, {probs.shape}"
        )
    missing = np.flatnonzero(volume_ids == "")
    if missing.size:
        raise InvalidInputError(
            f"volume consistency needs volume ids on every record; {missing.size} of "
            f"{volume_ids.size} rows carry no volume_id, the first is row {missing[0]}"
        )
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise InvalidInputError(f"labels must lie in [0, {probs.shape[1]})")
    _, volume = np.unique(volume_ids, return_inverse=True)
    return group_vote(volume, labels, probs, cfg.stable_ratio_threshold, cfg)[volume]
