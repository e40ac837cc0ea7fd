"""Core domain types: change classes, tasks, probability vectors, confusion
matrices, the columnar ``Dataset`` carried through generation, training
and prediction, and the atomic file write behind every output.

Probability and logit vectors are plain float64 numpy arrays.
``as_prob_rows`` is the probability gate, for a matrix of rows or a
one-row list, and ``softmax`` is the logit gate; everything downstream
assumes its inputs went through one of them. Label arrays and every int64
column go through one rule, ``_int_column``: a 1-D array of whole numbers
that int64 holds exactly.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .errors import InvalidInputError

# Tolerance for the probability simplex checks. Tighter trips on ordinary
# accumulated float error, looser would hide real bugs.
PROB_TOL = 1e-9


class ClassLabel(IntEnum):
    """Change category.

    The first three classes are ordinal and their rank equals their numeric
    value (Reduced < Stable < Worsened along the severity axis). OTHER has no
    ordinal rank and only exists in task T1.
    """

    REDUCED = 0
    STABLE = 1
    WORSENED = 2
    OTHER = 3


class Task(Enum):
    """The two classification tasks.

    T1 compares two visits of the same eye (4 classes, OTHER included),
    T2 forecasts change from a single visit (3 ordinal classes only).
    """

    T1 = "t1"
    T2 = "t2"

    @property
    def n_classes(self) -> int:
        return 4 if self is Task.T1 else 3


def as_prob_rows(p: Sequence[Sequence[float]] | np.ndarray, *, tol: float = PROB_TOL) -> np.ndarray:
    """Validate an (N, C >= 2) matrix whose every row is a probability vector:
    entries in [0, 1] and each row summing to 1, both within tol."""
    try:
        arr = np.asarray(p, dtype=np.float64)
    except ValueError as exc:
        raise InvalidInputError(f"probability matrix mixes row lengths: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise InvalidInputError(f"probability rows must form an (N, C >= 2) matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("probability vector contains non-finite entries")
    if np.any(arr < -tol) or np.any(arr > 1.0 + tol):
        raise InvalidInputError("probability entries must lie in [0, 1]")
    totals = arr.sum(axis=1)
    off = np.flatnonzero(np.abs(totals - 1.0) > tol)
    if off.size:
        raise InvalidInputError(f"probabilities sum to {float(totals[off[0]])!r}, expected 1 within {tol}")
    return arr


def softmax(z: np.ndarray) -> np.ndarray:
    """Stabilized softmax over the last axis.

    The running maximum is subtracted before exponentiation, so inputs with
    magnitudes up to about 1e4 neither overflow nor produce NaN. Rows of the
    output are valid probability vectors. A vector or each matrix row must
    hold at least 2 finite logits.
    """
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise InvalidInputError(f"softmax expects a vector or matrix, got shape {arr.shape}")
    if arr.shape[-1] < 2 or not np.isfinite(arr).all():
        raise InvalidInputError("logit rows must have length >= 2 and be finite")
    exp = arr - arr.max(axis=-1, keepdims=True)
    np.exp(exp, out=exp)
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


def confusion_from_predictions(
    truth: Sequence[int | ClassLabel] | np.ndarray,
    pred: Sequence[int | ClassLabel] | np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """The (C, C) int64 confusion matrix of two equally long label arrays in
    [0, C), C = n_classes >= 2: entry [t, p] counts the samples of true class
    t predicted as p."""
    if n_classes < 2:
        raise InvalidInputError("confusion matrix needs at least 2 classes")
    t, p = _int_column("truth labels", truth), _int_column("predicted labels", pred)
    if t.shape != p.shape:
        raise InvalidInputError(f"truth and prediction lengths differ: {t.shape[0]} vs {p.shape[0]}")
    if t.size and (t.min() < 0 or t.max() >= n_classes):
        raise InvalidInputError("truth labels outside [0, n_classes)")
    if p.size and (p.min() < 0 or p.max() >= n_classes):
        raise InvalidInputError("predicted labels outside [0, n_classes)")
    return np.bincount(t * n_classes + p, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def _int_column(name: str, values) -> np.ndarray:
    """``values`` as a 1-D int64 array. Any other shape, or a value that int64
    cannot hold exactly (a fraction, NaN, inf, a number out of its range or
    text), raises ``InvalidInputError`` naming ``name``."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-D array, got shape {arr.shape}")
    if np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range floats cast to junk, which != finds
            out = arr.astype(np.int64)
        if not np.any(out != arr):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError(f"{name} must be whole numbers that int64 holds exactly")


def _column(name: str, values, dtype) -> np.ndarray:
    """A read-only view of ``values`` as an array of ``dtype``, an int64 one by
    the ``_int_column`` rule; copies only to convert."""
    arr = (_int_column(f"column {name}", values) if dtype is np.int64 else np.asarray(values, dtype=dtype)).view()
    arr.setflags(write=False)
    return arr


_SCAN_COLUMNS = ("visit_id", "volume_id", "bscan_index")
_DTYPES = {
    "x": np.float64,
    "labels": np.int64,
    "patient_id": str,
    "x_b": np.float64,
    "visit_id": str,
    "volume_id": str,
    "bscan_index": np.int64,
}


@dataclass(frozen=True, eq=False)
class Dataset:
    """A labeled dataset held as columns, one row per sample.

    T2 rows are B-scans: ``x`` holds their features and ``visit_id``,
    ``volume_id`` and ``bscan_index`` locate them. T1 rows are visit pairs of
    one patient: ``x`` holds the earlier visit's features, ``x_b`` the later
    one's, and the three B-scan columns are None. The task follows from
    whether ``x_b`` is present.

    The constructor checks the whole dataset once: matching shapes, finite
    features, labels valid for the task, ``bscan_index >= 0``, and for T2 a
    unique (volume_id, bscan_index) per row with one label per volume.
    Every column is stored as a read-only array.
    """

    x: np.ndarray
    labels: np.ndarray
    patient_id: np.ndarray
    x_b: np.ndarray | None = None
    visit_id: np.ndarray | None = None
    volume_id: np.ndarray | None = None
    bscan_index: np.ndarray | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) is not None:
                object.__setattr__(self, f.name, _column(f.name, getattr(self, f.name), _DTYPES[f.name]))
        if self.x.ndim != 2 or self.x.shape[1] == 0:
            raise InvalidInputError(f"features must be a (rows, dim >= 1) matrix, got shape {self.x.shape}")
        n = self.x.shape[0]
        if self.x_b is not None and self.x_b.shape != self.x.shape:
            raise InvalidInputError(f"paired feature shapes differ: {self.x.shape} vs {self.x_b.shape}")
        present = [name for name in _SCAN_COLUMNS if getattr(self, name) is not None]
        wanted = list(_SCAN_COLUMNS) if self.x_b is None else []
        if present != wanted:
            raise InvalidInputError(f"{self.task.value} data takes the columns {wanted}, got {present}")
        for name in ("labels", "patient_id", *present):
            if getattr(self, name).shape != (n,):
                raise InvalidInputError(f"column {name} has shape {getattr(self, name).shape}, expected ({n},)")
        if not (np.isfinite(self.x).all() and (self.x_b is None or np.isfinite(self.x_b).all())):
            raise InvalidInputError("features contain non-finite entries")
        bad = self.labels[(self.labels < 0) | (self.labels >= self.task.n_classes)]
        if bad.size:
            raise InvalidInputError(f"label {bad[0]} is not valid for task {self.task.value}")
        if self.bscan_index is not None:
            self._check_volumes()

    def _check_volumes(self) -> None:
        if self.bscan_index.size and self.bscan_index.min() < 0:
            raise InvalidInputError(f"bscan_index must be >= 0, got {self.bscan_index.min()}")
        _, volume = np.unique(self.volume_id, return_inverse=True)
        order = np.lexsort((self.bscan_index, volume))
        vol, idx, lab = volume[order], self.bscan_index[order], self.labels[order]
        same_volume = vol[1:] == vol[:-1]
        dup = np.flatnonzero(same_volume & (idx[1:] == idx[:-1]))
        if dup.size:
            row = order[dup[0]]
            raise InvalidInputError(f"duplicate row key {self.volume_id[row]}/{self.bscan_index[row]}")
        clash = np.flatnonzero(same_volume & (lab[1:] != lab[:-1]))
        if clash.size:
            a, b = order[clash[0]], order[clash[0] + 1]
            raise InvalidInputError(
                f"volume {self.volume_id[a]} carries conflicting labels "
                f"{ClassLabel(int(self.labels[a])).name} and {ClassLabel(int(self.labels[b])).name}"
            )

    @property
    def task(self) -> Task:
        return Task.T2 if self.x_b is None else Task.T1

    @property
    def inputs(self) -> tuple[np.ndarray, ...]:
        """The feature matrices a model reads, one per branch: ``(x,)`` or ``(x, x_b)``."""
        return (self.x,) if self.x_b is None else (self.x, self.x_b)

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, rows: np.ndarray) -> Dataset:
        """The rows picked by an index array or a boolean mask, in that order."""
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return Dataset(**{name: None if col is None else col[rows] for name, col in columns.items()})


def atomic_write(path: str | os.PathLike, data: str | bytes | Callable[[BinaryIO], None]) -> None:
    """Write bytes, text as UTF-8, or whatever ``data(fh)`` writes to the open
    binary file, to ``path`` through a temporary file and a rename, so ``path``
    holds either its old content or all of the new. Missing directories on
    the way to ``path`` are created first. The temporary file is removed when
    either step fails."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data if isinstance(data, bytes) else data.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
