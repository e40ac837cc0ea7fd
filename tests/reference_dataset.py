"""The per-row dataset reader that the columnar ``Dataset`` replaced.

Every CSV row becomes a frozen, validated record; the records are then
stacked into matrices with ``np.stack``, the way training and prediction
used to do it. Nothing here is shared with ``ordchange.cli.read_dataset_csv``
or ``ordchange.core.Dataset``, so agreement between the two readers is a
real check rather than a tautology.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


def _frozen_features(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"features must be a non-empty 1-D vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("features contain non-finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BscanRecord:
    patient_id: str
    visit_id: str
    volume_id: str
    bscan_index: int
    features: np.ndarray
    label: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _frozen_features(self.features))
        if self.bscan_index < 0:
            raise ValueError(f"bscan_index must be >= 0, got {self.bscan_index}")


@dataclass(frozen=True)
class PairRecord:
    patient_id: str
    features_a: np.ndarray
    features_b: np.ndarray
    label: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "features_a", _frozen_features(self.features_a))
        object.__setattr__(self, "features_b", _frozen_features(self.features_b))
        if self.features_a.shape != self.features_b.shape:
            raise ValueError("paired feature dims differ")


def read_records(path) -> tuple[str, list, list[str]]:
    """Return the task value ("t1" or "t2"), one record per row, and the case ids."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if header[:6] == ["case_id", "patient_id", "visit_id", "volume_id", "bscan_index", "label"]:
        dim = len(header) - 6
        records = [
            BscanRecord(
                patient_id=row[1],
                visit_id=row[2],
                volume_id=row[3],
                bscan_index=int(row[4]),
                features=np.array([float(v) for v in row[6 : 6 + dim]]),
                label=int(row[5]),
            )
            for row in rows
        ]
        return "t2", records, [row[0] for row in rows]
    if header[:3] == ["case_id", "patient_id", "label"]:
        dim = (len(header) - 3) // 2
        records = [
            PairRecord(
                patient_id=row[1],
                features_a=np.array([float(v) for v in row[3 : 3 + dim]]),
                features_b=np.array([float(v) for v in row[3 + dim : 3 + 2 * dim]]),
                label=int(row[2]),
            )
            for row in rows
        ]
        return "t1", records, [row[0] for row in rows]
    raise ValueError(f"{path}: unrecognized dataset header")


def read_columns(path) -> tuple[str, dict[str, list | np.ndarray], list[str]]:
    """Read with ``read_records`` and stack the records into columns."""
    task, records, case_ids = read_records(path)
    cols: dict[str, list | np.ndarray] = {
        "labels": np.asarray([r.label for r in records], dtype=np.int64),
        "patient_id": [r.patient_id for r in records],
    }
    if task == "t2":
        cols["x"] = np.stack([r.features for r in records])
        cols["visit_id"] = [r.visit_id for r in records]
        cols["volume_id"] = [r.volume_id for r in records]
        cols["bscan_index"] = [r.bscan_index for r in records]
    else:
        cols["x"] = np.stack([r.features_a for r in records])
        cols["x_b"] = np.stack([r.features_b for r in records])
    return task, cols, case_ids
