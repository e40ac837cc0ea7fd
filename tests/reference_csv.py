"""The three CSV readers that ``cli._read_csv`` and the field declarations
replaced, kept as a test oracle.

Each reader matches its header with its own header helper and ``layout``
callback, parses its int columns its own way (``int`` over a column, one
``np.array`` call, a list comprehension) and checks its own label range.
The text pass is a frozen copy of ``cli._read_table`` and
``cli._record_lines`` as the declarations left them, and the twin reader
one of ``cli._read_twin`` and ``cli._twin_key``. The repeated-id check
``_check_unique`` and the prediction simplex tolerance
``_ROUNDED_PROB_TOL`` are frozen copies too, so a change to any of them in
``ordchange.cli`` shows as a difference. The oracle shares with
``ordchange.cli`` only the ``Predictions`` and ``Dataset`` tables.
"""

from __future__ import annotations

import csv
import os
import re
import zlib
from collections import Counter
from itertools import chain, islice
from typing import Callable, Iterator, Sequence

import numpy as np

from ordchange.cli import Predictions
from ordchange.core import ClassLabel, Dataset, Task, as_prob_rows
from ordchange.errors import AlignmentError, DataError, InvalidInputError

# The simplex tolerance of a prediction row read back: 9 written decimals
# move each of up to 4 probabilities by at most 0.5e-9.
_ROUNDED_PROB_TOL = 3e-9


def _check_unique(path: str | os.PathLike, case_ids: Sequence[str]) -> None:
    counts = Counter(case_ids)
    if len(counts) != len(case_ids):
        repeated = next(key for key, n in counts.items() if n > 1)
        raise AlignmentError(f"{path}: case_id {repeated!r} appears more than once")


def _twin_key(path: str | os.PathLike) -> list[int]:
    """The key a twin holds of its CSV: format version 1, then the CSV's
    byte length and CRC-32."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return [1, len(blob), zlib.crc32(blob)]


def _read_twin(path: str | os.PathLike, groups: Sequence[tuple]) -> dict[str, np.ndarray] | None:
    """The fields of a CSV read from its twin ``<path>.npy``, or None when
    the twin is missing, unreadable or stale (its key is not the CSV's), or
    its records are not one (N, width) array per ``(name, type, width)``
    group: text for an ``object`` group, float64 for a float one."""
    try:
        with open(f"{os.fspath(path)}.npy", "rb") as fh:
            if np.load(fh, allow_pickle=False).tolist() != _twin_key(path):
                return None
            table = {name: np.load(fh, allow_pickle=False) for name, _, _ in groups}
            if fh.read(1):
                return None
    except (OSError, ValueError, EOFError, MemoryError):
        return None
    n_rows = table[groups[0][0]].shape[:1]
    for name, kind, width in groups:
        arr = table[name]
        if arr.shape != (*n_rows, width) or not (arr.dtype.kind == "U" if kind is object else arr.dtype == kind):
            return None
    return {name: table[name].astype(object) if kind is object else table[name] for name, kind, _ in groups}


def _record_lines(path: str | os.PathLike) -> list[int]:
    """The file line each data record of a CSV starts on, by one ``csv`` pass.

    The ``csv`` module defines a record. Raises DataError on text that is not
    UTF-8, and names the first record it rejects or whose field count is not
    the header's: a field over the limit when one of its lines is, or else a
    quote not closed when a quoted field runs on to the end of the file, or
    over lines into the field limit."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            n_fields, starts = len(next(reader)), [reader.line_num + 1]
            for row in reader:
                if len(row) != n_fields:
                    break
                starts.append(reader.line_num + 1)
            else:
                return starts[:-1]
            is_last = next(fh, None) is None
            fh.seek(0)  # after the last line, '"' closes a quoted field left open, or else reads as a record [""]
            if not is_last or list(csv.reader(chain(fh, ['"'])))[-1] == [""]:
                raise DataError(f"{path}: line {starts[-1]} has {len(row)} fields, expected {n_fields}")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            # csv does not say whether the field it stopped in is quoted; a line of the record over the limit
            # holds a field over it, else a quoted field ran on over lines.
            fh.seek(0)
            record = islice(fh, starts[-1] - 1, reader.line_num)
            if reader.line_num == starts[-1] or any(len(line) > csv.field_size_limit() for line in record):
                raise DataError(f"{path}: line {starts[-1]}: {exc}") from None
    raise DataError(f"{path}: line {starts[-1]}: quote not closed (read to line {reader.line_num})")


def _read_table(path: str | os.PathLike, layout: Callable[[list[str]], tuple]) -> tuple[object, dict[str, np.ndarray]]:
    """Read a CSV into one array per group of fields, from its twin when
    ``_read_twin`` takes it (only ``write_dataset_csv`` writes one), else in
    one structured ``np.loadtxt`` pass.

    ``layout(header)`` checks the header and returns what the caller keeps of
    it and the ``(name, type, width)`` groups of a row's fields (``object``
    fields hold text). ``_record_lines`` judges the file when it is not UTF-8,
    ``loadtxt`` rejects a row, or a line is blank or over the ``csv`` limit."""
    options = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 1}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader, lineno, starts = csv.reader(fh), 1, None

        def lines() -> Iterator[str]:
            nonlocal lineno, starts
            for lineno, line in enumerate(fh, reader.line_num + 1):
                if starts is None and (line[0] in "\r\n" or len(line) > csv.field_size_limit()):
                    starts = _record_lines(path)
                yield line

        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty CSV")
            info, groups = layout(header)
            table = _read_twin(path, groups)
            if table is not None:
                return info, table
            dtype = np.dtype([(name, kind, (width,)) for name, kind, width in groups])
            rows = lines()
            first = next(rows, None)  # loadtxt warns on a file with no rows
            table = np.empty(0, dtype) if first is None else np.loadtxt(chain([first], rows), dtype, **options)
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        except ValueError as exc:  # text that is not UTF-8, or a row loadtxt rejects on its last line
            start = max(line for line in starts or _record_lines(path) if line <= lineno)
            raise DataError(f"{path}: line {start}: {re.sub(' at row [0-9]+,', ' at', str(exc))}") from None
    return info, {name: table[name] for name in dtype.names}


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
