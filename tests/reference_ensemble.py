"""The per-record voting rules that the group-vote kernel replaced.

A prediction set is a tuple of (key, probability vector) entries, every
vector checked on its own. The unanimity vote runs once per record over the
models' argmax labels, the volume rule once per volume over its B-scans, and
both hand a tied majority to ``_majority``, which counts votes in a dict and
averages the tied rows' probabilities with ``np.mean``. ``ordchange.ensemble``
now does the same on arrays, so the two must agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ordchange.core import ClassLabel, as_prob_vector
from ordchange.ensemble import PostprocessConfig, TieBreak
from ordchange.errors import AlignmentError, InvalidInputError

STABLE = int(ClassLabel.STABLE)


@dataclass(frozen=True)
class PredictionSet:
    """One model's probabilities, keyed by record."""

    model_id: str
    entries: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        checked = []
        seen = set()
        width = None
        for key, probs in self.entries:
            if key in seen:
                raise InvalidInputError(f"prediction set {self.model_id} repeats key {key!r}")
            seen.add(key)
            vec = as_prob_vector(probs)
            if width is None:
                width = vec.shape[0]
            elif vec.shape[0] != width:
                raise InvalidInputError(
                    f"prediction set {self.model_id} mixes {width}- and {vec.shape[0]}-class rows"
                )
            checked.append((key, vec))
        object.__setattr__(self, "entries", tuple(checked))

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.entries)

    def as_dict(self) -> dict[str, np.ndarray]:
        return dict(self.entries)


class BscanPrediction(NamedTuple):
    """A per-B-scan label with its volume membership and probabilities."""

    key: str
    volume_id: str
    label: int
    probs: np.ndarray


def _check_aligned(sets: Sequence[PredictionSet]) -> None:
    if not sets:
        raise InvalidInputError("need at least one prediction set")
    base = set(sets[0].keys)
    width = sets[0].entries[0][1].shape[0] if sets[0].entries else None
    for ps in sets[1:]:
        other = set(ps.keys)
        if other != base:
            missing = sorted(base ^ other)[:10]
            raise AlignmentError(
                f"prediction sets {sets[0].model_id!r} and {ps.model_id!r} disagree on keys; "
                f"first offenders: {missing}"
            )
        if ps.entries and ps.entries[0][1].shape[0] != width:
            raise InvalidInputError("prediction sets disagree on the number of classes")


def _argmax_lowest(probs: np.ndarray) -> int:
    # np.argmax already returns the first maximum, i.e. the lower class index.
    return int(np.argmax(probs))


def mean_ensemble(sets: Sequence[PredictionSet]) -> list[tuple[str, int, np.ndarray]]:
    """Average probabilities across models and take the argmax per record."""
    _check_aligned(sets)
    lookups = [ps.as_dict() for ps in sets[1:]]
    out = []
    for key, probs in sets[0].entries:
        stack = [probs] + [lk[key] for lk in lookups]
        mean = np.mean(stack, axis=0)
        out.append((key, _argmax_lowest(mean), mean))
    return out


def _majority(labels: Sequence[int], probs: Sequence[np.ndarray], cfg: PostprocessConfig) -> int:
    """Majority vote with the configured tie-breaking, assuming labels non-empty."""
    counts: dict[int, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    top = max(counts.values())
    tied = sorted(c for c, n in counts.items() if n == top)
    if len(tied) == 1:
        return tied[0]
    if cfg.tie_break is TieBreak.MOST_SEVERE:
        return tied[-1]
    mean = np.mean(np.stack(probs), axis=0)
    best = max(tied, key=lambda c: (mean[c], -c))
    return best


def stable_unanimity_vote(preds: Sequence[tuple[int, np.ndarray]], cfg: PostprocessConfig | None = None) -> int:
    """Stable only when every model predicts Stable; otherwise the majority
    among the non-Stable predictions (or all, with ``majority_includes_stable``)."""
    cfg = cfg or PostprocessConfig()
    if not preds:
        raise InvalidInputError("unanimity vote needs at least one prediction")
    labels = [int(lab) for lab, _ in preds]
    probs = [as_prob_vector(p) for _, p in preds]
    if all(lab == STABLE for lab in labels):
        return STABLE
    if cfg.majority_includes_stable:
        return _majority(labels, probs, cfg)
    keep = [i for i, lab in enumerate(labels) if lab != STABLE]
    return _majority([labels[i] for i in keep], [probs[i] for i in keep], cfg)


def unanimity_ensemble(
    sets: Sequence[PredictionSet], cfg: PostprocessConfig | None = None
) -> list[tuple[str, int, np.ndarray]]:
    """The unanimity vote per record, reporting the across-model mean probabilities."""
    cfg = cfg or PostprocessConfig()
    _check_aligned(sets)
    lookups = [ps.as_dict() for ps in sets[1:]]
    out = []
    for key, probs in sets[0].entries:
        stack = [probs] + [lk[key] for lk in lookups]
        votes = [(_argmax_lowest(p), p) for p in stack]
        label = stable_unanimity_vote(votes, cfg)
        out.append((key, label, np.mean(stack, axis=0)))
    return out


def volume_consistency(
    preds: Sequence[BscanPrediction], cfg: PostprocessConfig | None = None
) -> tuple[dict[str, int], list[BscanPrediction]]:
    """One label per volume: Stable when at least ``stable_ratio_threshold`` of
    its B-scans say Stable, else the non-Stable majority; broadcast back."""
    cfg = cfg or PostprocessConfig()
    if not preds:
        raise InvalidInputError("volume consistency needs at least one prediction")
    by_volume: dict[str, list[BscanPrediction]] = {}
    for p in preds:
        if not p.volume_id:
            raise InvalidInputError(f"record {p.key!r} carries no volume_id")
        by_volume.setdefault(p.volume_id, []).append(p)

    volume_labels: dict[str, int] = {}
    for vol, group in by_volume.items():
        labels = [int(g.label) for g in group]
        probs = [as_prob_vector(g.probs) for g in group]
        stable_fraction = sum(1 for lab in labels if lab == STABLE) / len(labels)
        if stable_fraction >= cfg.stable_ratio_threshold:
            volume_labels[vol] = STABLE
        elif cfg.majority_includes_stable:
            volume_labels[vol] = _majority(labels, probs, cfg)
        else:
            keep = [i for i, lab in enumerate(labels) if lab != STABLE]
            volume_labels[vol] = _majority([labels[i] for i in keep], [probs[i] for i in keep], cfg)

    relabeled = [p._replace(label=volume_labels[p.volume_id]) for p in preds]
    return volume_labels, relabeled
