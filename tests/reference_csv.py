"""The three CSV readers that ``cli._read_csv`` and the field declarations
replaced, kept as a test oracle.

Each reader matches its header with its own header helper and ``layout``
callback, parses its int columns its own way (``int`` over a column, one
``np.array`` call, a list comprehension) and checks its own label range.
They share with ``ordchange.cli`` only what the declarations did not
change: ``_read_table``, ``_record_lines``, ``_check_unique`` and the
``Predictions`` and ``Dataset`` tables.
"""

from __future__ import annotations

import os

import numpy as np

from ordchange.cli import _ROUNDED_PROB_TOL, Predictions, _check_unique, _read_table, _record_lines
from ordchange.core import ClassLabel, Dataset, Task, as_prob_rows
from ordchange.errors import DataError, InvalidInputError


def dataset_header(task: Task, dim: int) -> list[str]:
    if task is Task.T2:
        return ["case_id", "patient_id", "visit_id", "volume_id", "bscan_index", "label"] + [
            f"f{i}" for i in range(dim)
        ]
    return ["case_id", "patient_id", "label"] + [f"a{i}" for i in range(dim)] + [
        f"b{i}" for i in range(dim)
    ]


def truth_header(task: Task) -> list[str]:
    return [name for name in dataset_header(task, 0) if name != "visit_id"]


def pred_header(n_classes: int, with_final: bool) -> list[str]:
    header = ["case_id", "patient_id", "volume_id", "bscan_index", "true_label"]
    header += [f"p_{ClassLabel(c).name.lower()}" for c in range(n_classes)]
    header.append("pred_label")
    if with_final:
        header += ["final_label", "postprocessed"]
    return header


def read_dataset_csv(path: str | os.PathLike) -> tuple[Task, Dataset, list[str]]:
    def layout(header: list[str]) -> tuple:
        if header[:6] == dataset_header(Task.T2, 0):
            task = Task.T2
        elif header[:3] == dataset_header(Task.T1, 0):
            task = Task.T1
        else:
            raise DataError(f"{path}: unrecognized dataset header")
        n_ids = len(dataset_header(task, 0))
        dim = (len(header) - n_ids) // (2 if task is Task.T1 else 1)
        if header != dataset_header(task, dim):
            raise DataError(f"{path}: malformed {task.value} dataset header")
        return (task, dim), [("ids", object, n_ids), ("x", np.float64, len(header) - n_ids)]

    (task, dim), table = _read_table(path, layout)
    ids, feats = table["ids"], np.ascontiguousarray(table["x"])
    try:
        # The label is the last id column of either layout.
        columns = {"patient_id": ids[:, 1], "labels": list(map(int, ids[:, -1]))}
        if task is Task.T2:
            columns.update(visit_id=ids[:, 2], volume_id=ids[:, 3], bscan_index=list(map(int, ids[:, 4])))
        for name in ("labels", "bscan_index"):  # an int beyond int64 fails here, where Dataset used to fail it
            if name in columns:
                columns[name] = np.array(columns[name], dtype=np.int64)
        data = Dataset(x=feats[:, :dim], x_b=feats[:, dim:] if task is Task.T1 else None, **columns)
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed dataset row: {exc}") from exc
    case_ids = ids[:, 0].tolist()
    _check_unique(path, case_ids)
    return task, data, case_ids


def read_predictions_csv(path: str | os.PathLike) -> Predictions:
    def layout(header: list[str]) -> tuple:
        layouts = [(c, f) for c in (4, 3) for f in (True, False) if header == pred_header(c, f)]
        if not layouts:
            raise DataError(f"{path}: unrecognized prediction header")
        n_classes, n_labels = layouts[0][0], len(header) - 5 - layouts[0][0]
        return layouts[0], [("ids", object, 5), ("probs", np.float64, n_classes), ("labels", object, n_labels)]

    (n_classes, with_final), table = _read_table(path, layout)
    if not len(table["ids"]):
        raise DataError(f"{path}: holds no prediction rows")
    header = pred_header(n_classes, with_final)
    ids, probs = table["ids"], np.ascontiguousarray(table["probs"])
    # true_label, pred_label[, final_label, postprocessed]: all but the flag are labels.
    int_columns = [4, *range(5 + n_classes, len(header))]
    try:
        ints = np.array(np.hstack([ids[:, 4:], table["labels"]]), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed prediction row: {exc}") from exc
    try:
        as_prob_rows(probs, tol=_ROUNDED_PROB_TOL)
    except InvalidInputError:
        for i in range(len(probs)):
            try:
                as_prob_rows(probs[i : i + 1], tol=_ROUNDED_PROB_TOL)
            except InvalidInputError as exc:
                raise DataError(f"{path}: line {_record_lines(path)[i]}: {exc}") from exc
    labels = ints[:, :3]
    off = np.argwhere((labels < 0) | (labels >= n_classes))
    if off.size:
        i, j = off[0]
        line = _record_lines(path)[i]
        raise DataError(f"{path}: line {line}: {header[int_columns[j]]} {labels[i, j]} outside [0, {n_classes})")
    case_ids = ids[:, 0].tolist()
    _check_unique(path, case_ids)
    return Predictions(
        case_ids, ids[:, 1], ids[:, 2], ids[:, 3], true_label=ints[:, 0], probs=probs, pred_label=ints[:, 1],
        final_label=ints[:, 2] if with_final else None, postprocessed=ints[:, 3] if with_final else None,
    )


def read_truth_csv(path: str | os.PathLike, task: Task) -> tuple[list[str], np.ndarray]:
    def layout(header: list[str]) -> tuple:
        if header != truth_header(task):
            raise DataError(f"{path}: unrecognized truth header for task {task.value}")
        return None, [("ids", object, len(header))]

    ids = _read_table(path, layout)[1]["ids"]
    try:
        labels = [int(label) for label in ids[:, -1]]
    except ValueError as exc:
        raise DataError(f"{path}: malformed truth row: {exc}") from exc
    for i, label in enumerate(labels):
        if not 0 <= label < task.n_classes:
            raise DataError(f"{path}: line {_record_lines(path)[i]}: label {label} is not valid for task {task.value}")
    case_ids = ids[:, 0].tolist()
    _check_unique(path, case_ids)
    return case_ids, np.array(labels, dtype=np.int64)
