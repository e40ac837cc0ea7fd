"""Command line interface.

Commands:
    gen        write a synthetic dataset (and its ground truth) as CSV
    train      train one model or several patient-disjoint folds from a CSV
    predict    load a checkpoint and write per-record class probabilities
    ensemble   combine prediction CSVs (mean or unanimity), optionally with
               the volume-consistency rule
    eval       score a prediction CSV against a truth CSV
    gradcheck  compare analytic gradients against central finite differences

Exit codes: 0 ok, 2 io, 3 configuration, 4 numeric failure (a training run
that diverges), 5 checkpoint, 6 record-key misalignment, 7 gradient check
failure. (Bad command lines exit 2 via argparse.)

Configuration files are flat ``key=value`` lines; ``#`` starts a comment and
blank lines are skipped. Unknown or repeated keys, and numbers that are not
finite, are rejected. Every command writes a run manifest (JSON) next to its
outputs; reruns with identical inputs and seed produce byte-identical
outputs, manifests excepted for their timing field. ``train`` fits its folds
one after another.

A dataset CSV becomes a ``core.Dataset``; a prediction CSV becomes a
``Predictions`` table of columns. ``predict`` builds that table from the
dataset's columns and the model's (N, C) probabilities, ``ensemble`` votes
on one (M, N, C) stack of its input tables' ``probs`` and writes the first
table with its label columns replaced, and ``eval`` scores one label column.
``_row_order`` matches one file's rows to another file's keys for both.
Each file is checked once, when ``_read_table`` reads it in one structured
``np.loadtxt`` pass. ``_write_csv`` writes every CSV from its columns, with
no ``csv.writer``: it quotes each text column once and formats each row of
a float matrix by ``repr`` as it writes that line into the temporary file
that ``core.atomic_write`` renames. The bytes are ``csv.writer``'s.

``write_dataset_csv`` also writes a binary twin of the dataset CSV,
``<csv>.npy``, keyed by the CSV's length and CRC-32. ``read_dataset_csv``
takes its columns from the twin in place of the ``loadtxt`` pass when the
key matches the CSV and the arrays have the header's shapes; otherwise it
parses the text. Both reads end in the same checks.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time
import zlib
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .core import ClassLabel, Dataset, Task, _column, as_prob_rows, atomic_write, confusion_from_predictions
from .datagen import GenConfig, gen_t1_pairs, gen_t2_volumes
from .ensemble import (
    PostprocessConfig,
    TieBreak,
    mean_ensemble,
    unanimity_ensemble,
    volume_consistency,
)
from .errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    DataError,
    InvalidInputError,
    NumericError,
)
from .losses import LOSS_KINDS, LossConfig, check_loss_kind, finite_difference_check
from .metrics import METRIC_NAMES, MetricReport, compute_report
from .model import (
    TrainConfig,
    finite_difference_check_params,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)


# --- small formatting and io helpers ---------------------------------------------


_QUOTE_CHARS = re.compile('[,"\r\n]')  # what csv.writer(lineterminator="\r\n") quotes


def _quoted(column: Iterable) -> list[str]:
    """Each field of a column as csv.writer writes it: floats by repr, ints by
    str, and text that holds a comma, a quote or a line break in quotes."""
    text = list(map(str, column))
    if not _QUOTE_CHARS.search("".join(text)):
        return text
    return ['"' + t.replace('"', '""') + '"' if _QUOTE_CHARS.search(t) else t for t in text]


def _write_csv(path: str | os.PathLike, header: Sequence[str], columns: Sequence[Iterable], floats=None) -> None:
    """Write the header, then each row of the (one or more) text columns
    followed by that row of the float matrix ``floats`` (one or more columns)
    when given, as csv.writer with CR LF line ends would, each ended by LF."""
    lines = map(",".join, zip(*map(_quoted, columns)))
    if floats is not None:
        lines = (f"{text},{','.join(map(float.__repr__, row.tolist()))}" for text, row in zip(lines, floats))

    def write(fh) -> None:  # csv writes a row of one empty field as ""
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        text.writelines((line or '""') + "\n" for line in chain([",".join(_quoted(header))], lines))
        text.detach()  # flushes, and leaves fh to atomic_write

    atomic_write(path, write)


def _record_lines(path: str | os.PathLike) -> list[int]:
    """The file line each data record of a CSV starts on, by one ``csv`` pass.

    The ``csv`` module defines a record. Raises DataError on text that is not
    UTF-8, and names the first record it rejects or whose field count is not
    the header's: a quote not closed when a quoted field runs on to the end
    of the file, or over lines into the field limit."""
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
            if reader.line_num == starts[-1]:
                raise DataError(f"{path}: line {starts[-1]}: {exc}") from None
    raise DataError(f"{path}: line {starts[-1]}: quote not closed (read to line {reader.line_num})")


# The first value of a twin's key; a change of the twin's layout changes it.
_TWIN_VERSION = 1


def _twin_key(path: str | os.PathLike) -> list[int]:
    """The key a twin holds of its CSV: the format version, then the CSV's
    byte length and CRC-32, read in 1 MiB chunks."""
    size = crc = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            size, crc = size + len(chunk), zlib.crc32(chunk, crc)
    return [_TWIN_VERSION, size, crc]


def _write_twin(path: str | os.PathLike, columns: Sequence[Sequence], floats: np.ndarray) -> None:
    """Write ``<path>.npy``, the binary twin of the CSV just written to
    ``path`` from these text columns and float matrix: three ``np.save``
    records, the CSV's key, the (N, K) text of the columns and the matrix."""
    key = np.array(_twin_key(path), dtype=np.int64)
    arrays = (key, np.array(columns, dtype=str).T, np.ascontiguousarray(floats, dtype=np.float64))

    def write(fh) -> None:
        for arr in arrays:
            np.save(fh, arr, allow_pickle=False)

    atomic_write(f"{os.fspath(path)}.npy", write)


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
    n_rows = table[groups[0][0]].shape[:1]  # a first record that is not 2-D matches no shape below
    for name, kind, width in groups:
        arr = table[name]
        if arr.shape != (*n_rows, width) or not (arr.dtype.kind == "U" if kind is object else arr.dtype == kind):
            return None
    # Text as the object arrays loadtxt gives, so that both reads go on alike.
    return {name: table[name].astype(object) if kind is object else table[name] for name, kind, _ in groups}


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


def _write_manifest(
    path: str | os.PathLike,
    args,
    started: float,
    inputs: Sequence[str],
    outputs: Sequence[str],
    config_text: str = "",
    seed: int | None = None,
) -> None:
    payload = {
        "command": args.command,
        "argv": list(sys.argv[1:] if args.argv is None else args.argv),
        "config": config_text,
        "seed": seed,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "version": __version__,
        "duration_seconds": round(time.monotonic() - started, 6),
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --- key=value configuration -------------------------------------------------------
#
# GenConfig and TrainConfig, with the LossConfig and OptimizerConfig that
# TrainConfig nests, define every config key and its default; the type of the
# default picks the key's parser. This table holds the only departures.

# Config keys named differently from the dataclass field they set.
_FIELD_OF_KEY = {"loss": "loss_kind", "optimizer": "kind", "adam_eps": "eps"}


def _as_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _as_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parser(default) -> Callable[[str], object]:
    """The parser of a key with this default; an Enum default parses as its Enum."""
    if isinstance(default, (str, Enum)):
        return type(default)
    if isinstance(default, bool):
        return _as_bool
    if isinstance(default, int):
        return int
    if isinstance(default, float):
        return _as_float
    if isinstance(default, tuple):
        item = _parser(default[0])
        return lambda raw: tuple(item(part) for part in raw.split(","))
    raise TypeError(f"no config parser for the default {default!r}")


def _field_defaults(cls) -> dict[str, object]:
    """The default of each field of ``cls`` and of the configs it nests."""
    defaults: dict[str, object] = {}
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            defaults.update(_field_defaults(f.default_factory))
        else:
            defaults[f.name] = f.default
    return defaults


def _schema(cls) -> dict[str, Callable[[str], object]]:
    key_of = {name: key for key, name in _FIELD_OF_KEY.items()}
    return {key_of.get(name, name): _parser(default) for name, default in _field_defaults(cls).items()}


GEN_SCHEMA = _schema(GenConfig)
TRAIN_SCHEMA = _schema(TrainConfig)


def parse_kv_config(text: str, schema: dict[str, Callable[[str], object]], source: str) -> dict:
    """Parse flat key=value configuration text against a typed schema."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if key not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = schema[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _load_config(path: str | None, schema: dict[str, Callable[[str], object]]) -> tuple[dict, str]:
    if path is None:
        return {}, ""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_kv_config(text, schema, source=path), text


def _construct(cls, given: dict):
    """``cls`` from the given field values; nested configs are built from the
    same dict, and fields absent from it keep their defaults."""
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            kwargs[f.name] = _construct(f.default_factory, given)
        elif f.name in given:
            kwargs[f.name] = given[f.name]
    return cls(**kwargs)


def _build_config(cls, values: dict, args):
    """The ``cls`` config of a command from its parsed config values and its
    command-line overrides."""
    overrides = {key: getattr(args, key, None) for key in ("task", "loss", "seed", "folds")}
    given = {**values, **{key: value for key, value in overrides.items() if value is not None}}
    given = {_FIELD_OF_KEY.get(key, key): value for key, value in given.items()}
    task = given["task"] = Task(given.get("task", cls.task))  # --task gives the text of a Task
    if cls is TrainConfig:  # the head's output width follows the task
        given.setdefault("head_dims", TrainConfig.head_dims[:-1] + (task.n_classes,))
    return _construct(cls, given)


# --- dataset CSV schemas ------------------------------------------------------------


def _dataset_header(task: Task, dim: int) -> list[str]:
    if task is Task.T2:
        return ["case_id", "patient_id", "visit_id", "volume_id", "bscan_index", "label"] + [
            f"f{i}" for i in range(dim)
        ]
    return ["case_id", "patient_id", "label"] + [f"a{i}" for i in range(dim)] + [
        f"b{i}" for i in range(dim)
    ]


def _case_ids(data: Dataset) -> list[str]:
    if data.task is Task.T2:
        return [f"{v}/{i}" for v, i in zip(data.volume_id.tolist(), data.bscan_index.tolist())]
    return [f"pair{i:06d}" for i in range(len(data))]


def write_dataset_csv(path: str | os.PathLike, data: Dataset) -> None:
    ids = [_case_ids(data), data.patient_id.tolist()]
    if data.task is Task.T2:
        ids += [data.visit_id.tolist(), data.volume_id.tolist(), data.bscan_index.tolist()]
    ids.append(data.labels.tolist())
    feats = data.x if data.x_b is None else np.hstack(data.inputs)  # a pair row's halves side by side
    # A feature is written as its repr, the shortest text that reads back exactly.
    _write_csv(path, _dataset_header(data.task, data.x.shape[1]), ids, feats)
    _write_twin(path, ids, feats)


def _truth_header(task: Task) -> list[str]:
    return [name for name in _dataset_header(task, 0) if name != "visit_id"]


def write_truth_csv(path: str | os.PathLike, data: Dataset) -> None:
    ids = [data.volume_id.tolist(), data.bscan_index.tolist()] if data.task is Task.T2 else []
    _write_csv(path, _truth_header(data.task), [_case_ids(data), data.patient_id.tolist(), *ids, data.labels.tolist()])


def read_dataset_csv(path: str | os.PathLike) -> tuple[Task, Dataset, list[str]]:
    """Read a dataset CSV, detecting the task from its header.

    Returns the task, the dataset, and the per-row case ids in file order.
    The CSV's twin, or else one ``np.loadtxt`` pass, gives the id columns as
    text and the features as one float64 matrix; a pair row's halves become
    the views ``x`` and ``x_b``. The id columns then go through ``int`` and
    the ``Dataset`` checks.
    """

    def layout(header: list[str]) -> tuple:
        if header[:6] == _dataset_header(Task.T2, 0):
            task = Task.T2
        elif header[:3] == _dataset_header(Task.T1, 0):
            task = Task.T1
        else:
            raise DataError(f"{path}: unrecognized dataset header")
        n_ids = len(_dataset_header(task, 0))
        dim = (len(header) - n_ids) // (2 if task is Task.T1 else 1)
        if header != _dataset_header(task, dim):
            raise DataError(f"{path}: malformed {task.value} dataset header")
        return (task, dim), [("ids", object, n_ids), ("x", np.float64, len(header) - n_ids)]

    (task, dim), table = _read_table(path, layout)
    ids, feats = table["ids"], np.ascontiguousarray(table["x"])
    try:
        # The label is the last id column of either layout.
        columns = {"patient_id": ids[:, 1], "labels": list(map(int, ids[:, -1]))}
        if task is Task.T2:
            columns.update(visit_id=ids[:, 2], volume_id=ids[:, 3], bscan_index=list(map(int, ids[:, 4])))
        data = Dataset(x=feats[:, :dim], x_b=feats[:, dim:] if task is Task.T1 else None, **columns)
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed dataset row: {exc}") from exc
    case_ids = ids[:, 0].tolist()
    _check_unique(path, case_ids)
    return task, data, case_ids


# --- prediction CSV schema -----------------------------------------------------------


# The id columns not listed here hold text.
_PRED_DTYPES = {
    "true_label": np.int64,
    "probs": np.float64,
    "pred_label": np.int64,
    "final_label": np.int64,
    "postprocessed": np.int64,
}


@dataclass(frozen=True, eq=False)
class Predictions:
    """A prediction CSV held as columns, one row per record.

    The id columns hold their text as the file does (``volume_id`` and
    ``bscan_index`` are empty for t1 pairs); ``probs`` is the (N, C) matrix
    of class probabilities. ``final_label`` and ``postprocessed`` are None
    unless the table comes from ``ensemble``. Every column is stored as a
    read-only array; ``read_predictions_csv`` does the checking.
    """

    case_id: np.ndarray
    patient_id: np.ndarray
    volume_id: np.ndarray
    bscan_index: np.ndarray
    true_label: np.ndarray
    probs: np.ndarray
    pred_label: np.ndarray
    final_label: np.ndarray | None = None
    postprocessed: np.ndarray | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) is not None:
                object.__setattr__(self, f.name, _column(getattr(self, f.name), _PRED_DTYPES.get(f.name, str)))


# Writing rounds each probability to 9 decimals, by at most 0.5e-9, so a row
# of up to 4 classes that summed to 1 within core.PROB_TOL (1e-9) still does
# within this.
_ROUNDED_PROB_TOL = 3e-9


def _pred_header(n_classes: int, with_final: bool) -> list[str]:
    header = ["case_id", "patient_id", "volume_id", "bscan_index", "true_label"]
    header += [f"p_{ClassLabel(c).name.lower()}" for c in range(n_classes)]
    header.append("pred_label")
    if with_final:
        header += ["final_label", "postprocessed"]
    return header


def write_predictions_csv(path: str | os.PathLike, table: Predictions) -> None:
    n_rows, n_classes = table.probs.shape
    if not n_rows:
        raise InvalidInputError("refusing to write an empty prediction CSV")
    if n_classes not in {task.n_classes for task in Task}:
        raise ConfigError(f"cannot serialize {n_classes}-class probabilities")
    # One formatting pass over the row-major matrix; text[j::C] is class j's column.
    text = ["%.9f" % v for v in table.probs.ravel().tolist()]
    columns = [table.case_id, table.patient_id, table.volume_id, table.bscan_index, table.true_label]
    columns = [c.tolist() for c in columns] + [text[j::n_classes] for j in range(n_classes)]
    columns.append(table.pred_label.tolist())
    with_final = table.final_label is not None
    if with_final:
        columns += [table.final_label.tolist(), table.postprocessed.tolist()]
    _write_csv(path, _pred_header(n_classes, with_final), columns)


def read_predictions_csv(path: str | os.PathLike) -> Predictions:
    """Read a prediction CSV into a table that holds the values as written, so
    writing it back gives the same bytes. Every probability row must pass the
    simplex gate within ``_ROUNDED_PROB_TOL``, every label column must name a
    class of the file's width, and every case_id must be unique."""

    def layout(header: list[str]) -> tuple:
        layouts = [(c, f) for c in (4, 3) for f in (True, False) if header == _pred_header(c, f)]
        if not layouts:
            raise DataError(f"{path}: unrecognized prediction header")
        # Labels stay text here, so that a label beyond int64 fails below with int's message.
        n_classes, n_labels = layouts[0][0], len(header) - 5 - layouts[0][0]
        return layouts[0], [("ids", object, 5), ("probs", np.float64, n_classes), ("labels", object, n_labels)]

    (n_classes, with_final), table = _read_table(path, layout)
    if not len(table["ids"]):
        raise DataError(f"{path}: holds no prediction rows")
    header = _pred_header(n_classes, with_final)
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
        # Name the first row the gate rejects, the way label errors do. Each
        # check of the gate is a check of each row, so one row fails.
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
    """The case ids and the int64 labels of a truth CSV, in file order."""

    def layout(header: list[str]) -> tuple:
        if header != _truth_header(task):
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


def _check_unique(path: str | os.PathLike, case_ids: Sequence[str]) -> None:
    counts = Counter(case_ids)
    if len(counts) != len(case_ids):
        repeated = next(key for key, n in counts.items() if n > 1)
        raise AlignmentError(f"{path}: case_id {repeated!r} appears more than once")


def _row_order(keys: list[str], base: list[str], what: str) -> np.ndarray:
    """The indices that put the rows keyed by ``keys`` in the order of ``base``.

    Both lists hold unique keys, as every reader checks. A key that only
    one of them holds raises AlignmentError, naming ``what``, the count of
    such keys and the first 10 of them.
    """
    row_of = dict(zip(keys, range(len(keys))))
    offenders = sorted(row_of.keys() ^ set(base))
    if offenders:
        raise AlignmentError(f"{what} disagree on keys ({len(offenders)} total); first offenders: {offenders[:10]}")
    return np.fromiter((row_of[key] for key in base), np.intp, len(base))


# --- history and report CSVs ---------------------------------------------------------


def _report_fields(report: MetricReport) -> list[str]:
    return [*(f"{v:.6f}" for v in report.values().values()), ";".join(report.flags)]


def _write_history_csv(path: str | os.PathLike, history) -> None:
    rows = [[e.epoch, f"{e.train_loss:.9f}", f"{e.lr:.9f}", *_report_fields(e.val_report)] for e in history.entries]
    _write_csv(path, ["epoch", "train_loss", "lr", *METRIC_NAMES, "flags"], list(zip(*rows)))


def _write_report_csv(path: str | os.PathLike, report: MetricReport) -> None:
    row = [report.task.value, *_report_fields(report)]
    _write_csv(path, ["task", *METRIC_NAMES, "flags"], [[field] for field in row])


# --- commands -------------------------------------------------------------------------


def cmd_gen(args) -> int:
    started = time.monotonic()
    values, config_text = _load_config(args.config, GEN_SCHEMA)
    cfg = _build_config(GenConfig, values, args)
    data = gen_t2_volumes(cfg) if cfg.task is Task.T2 else gen_t1_pairs(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = out_dir / "dataset.csv"
    truth_path = out_dir / "truth.csv"
    write_dataset_csv(dataset_path, data)
    write_truth_csv(truth_path, data)
    counts = np.bincount(data.labels, minlength=cfg.task.n_classes)
    summary = ", ".join(f"{ClassLabel(c).name.lower()}={n}" for c, n in enumerate(counts.tolist()) if n)
    print(f"wrote {len(data)} {cfg.task.value} records to {dataset_path} ({summary})")
    inputs = [args.config] if args.config else []
    outputs = [str(dataset_path), f"{dataset_path}.npy", str(truth_path)]
    _write_manifest(out_dir / "manifest.json", args, started, inputs, outputs, config_text, cfg.seed)
    return 0


def _fold_val_patients(patients: list[str], folds: int, val_ratio: float, seed: int) -> list[set[str]]:
    order = list(patients)
    np.random.default_rng(seed).shuffle(order)
    if folds >= 2:
        if folds > len(order):
            raise DataError(f"cannot make {folds} folds from {len(order)} patients")
        return [set(order[i::folds]) for i in range(folds)]
    n_val = max(1, round(val_ratio * len(order)))
    if n_val >= len(order):
        raise DataError(f"val_ratio {val_ratio} leaves no training patients out of {len(order)}")
    return [set(order[:n_val])]


def cmd_train(args) -> int:
    started = time.monotonic()
    values, config_text = _load_config(args.config, TRAIN_SCHEMA)
    cfg = _build_config(TrainConfig, values, args)
    data_task, data, _ = read_dataset_csv(args.data)
    if data_task is not cfg.task:
        raise ConfigError(
            f"dataset {args.data} holds {data_task.value} records but config says {cfg.task.value}"
        )
    patients = np.unique(data.patient_id).tolist()
    if len(patients) < 2:
        raise DataError("need at least two patients for a patient-disjoint split")
    val_sets = _fold_val_patients(patients, cfg.folds, cfg.val_ratio, cfg.seed)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if len(val_sets) == 1:
        ckpt_paths = [out]
    else:
        ckpt_paths = [out.with_name(f"{out.stem}.fold{i}{out.suffix}") for i in range(len(val_sets))]

    outputs: list[str] = []
    for i, (val_patients, ckpt_path) in enumerate(zip(val_sets, ckpt_paths)):
        in_val = np.isin(data.patient_id, list(val_patients))
        train_data, val_data = data.take(~in_val), data.take(in_val)
        params, history = train(train_data, val_data, replace(cfg, seed=cfg.seed + i))
        save_checkpoint(ckpt_path, params)
        history_path = f"{ckpt_path}.history.csv"
        _write_history_csv(history_path, history)
        print(
            f"fold {i}: best val average {history.best_average:.6f} "
            f"at epoch {history.best_epoch} ({len(train_data)} train / {len(val_data)} val records)"
        )
        outputs += [str(ckpt_path), history_path]
    inputs = [p for p in (args.config, args.data) if p]
    _write_manifest(f"{out}.manifest.json", args, started, inputs, outputs, config_text, cfg.seed)
    return 0


def cmd_predict(args) -> int:
    started = time.monotonic()
    params = load_checkpoint(args.ckpt)
    task, data, case_ids = read_dataset_csv(args.data)
    if not len(data):
        raise DataError(f"{args.data}: dataset holds no records")
    probs = predict(params, data)
    if task is Task.T2:
        volumes, indices = data.volume_id, data.bscan_index.astype(str)
    else:
        volumes = indices = np.full(len(data), "")
    table = Predictions(
        case_ids, data.patient_id, volumes, indices, true_label=data.labels, probs=probs,
        pred_label=probs.argmax(axis=1),
    )
    write_predictions_csv(args.out, table)
    print(f"wrote {len(data)} predictions to {args.out}")
    _write_manifest(f"{args.out}.manifest.json", args, started, [args.ckpt, args.data], [str(args.out)])
    return 0


def cmd_ensemble(args) -> int:
    started = time.monotonic()
    tables = [read_predictions_csv(p) for p in args.preds]
    widths = {table.probs.shape[1] for table in tables}
    if len(widths) != 1:
        raise ConfigError(f"prediction files mix class counts {sorted(widths)}; cannot ensemble")
    first = tables[0]
    base = first.case_id.tolist()
    stack = np.stack([
        table.probs[_row_order(table.case_id.tolist(), base, f"prediction files {args.preds[0]} and {path}")]
        for path, table in zip(args.preds, tables)
    ])
    # Each row is renormalized to undo the 9-decimal rounding of the files.
    stack /= stack.sum(axis=2, keepdims=True)
    pp_cfg = PostprocessConfig(
        stable_ratio_threshold=args.stable_threshold,
        tie_break=TieBreak(args.tie_break),
        majority_includes_stable=args.majority_includes_stable,
    )
    if args.mode == "mean":
        labels, probs = mean_ensemble(stack)
    else:
        labels, probs = unanimity_ensemble(stack, pp_cfg)
    final = labels
    if args.postprocess:
        final = volume_consistency(first.volume_id, labels, probs, pp_cfg)
    flag = np.full(len(labels), int(args.postprocess))
    write_predictions_csv(
        args.out, replace(first, probs=probs, pred_label=labels, final_label=final, postprocessed=flag)
    )
    print(
        f"combined {len(args.preds)} prediction file(s) with mode={args.mode}"
        + (", volume consistency applied" if args.postprocess else "")
        + f"; wrote {args.out}"
    )
    _write_manifest(f"{args.out}.manifest.json", args, started, args.preds, [str(args.out)])
    return 0


def cmd_eval(args) -> int:
    started = time.monotonic()
    task = Task(args.task)
    pred = read_predictions_csv(args.pred)
    truth_ids, truth_labels = read_truth_csv(args.truth, task)
    order = _row_order(truth_ids, pred.case_id.tolist(), f"prediction file {args.pred} and truth file {args.truth}")
    if pred.probs.shape[1] != task.n_classes:
        raise ConfigError(
            f"predictions carry {pred.probs.shape[1]} classes, task {task.value} expects {task.n_classes}"
        )
    labels = pred.pred_label if pred.final_label is None else pred.final_label
    cm = confusion_from_predictions(truth_labels[order], labels, task.n_classes)
    report = compute_report(cm, task)
    print(f"task                {task.value}")
    for name, value in report.values().items():
        print(f"{name:<19} {value:.6f}")
    if report.flags:
        print(f"flags               {';'.join(report.flags)}")
    out = args.out or f"{args.pred}.report.csv"
    _write_report_csv(out, report)
    _write_manifest(f"{out}.manifest.json", args, started, [args.pred, args.truth], [str(out)])
    return 0


def cmd_gradcheck(args) -> int:
    kinds = [k.strip() for k in args.losses.split(",") if k.strip()]
    for kind in kinds:
        check_loss_kind(kind)
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    gammas = (0.0, 1.0, 2.0, 5.0)
    tolerance = 1e-5
    lines = []

    def one_cfg(trial: int) -> LossConfig:
        return LossConfig(gamma=gammas[trial % len(gammas)])

    for kind in kinds:
        worst = 0.0
        for trial in range(args.trials):
            n_classes = 3 + (trial % 2)
            # Scale 2: wider logits push near-zero probability coordinates into
            # the central-difference noise floor and fail spuriously.
            z = rng.normal(0.0, 2.0, size=n_classes)
            y = np.eye(n_classes)[rng.integers(0, n_classes)]
            if trial % 3 == 2:  # exercise soft targets as well as one-hot
                y = rng.dirichlet(np.ones(n_classes))
            worst = max(worst, finite_difference_check(kind, z, y, one_cfg(trial), h=args.h))
        lines.append((kind, "logits", args.trials, worst))

    model_trials = max(1, args.trials // 5)
    # Encoder dims and head dims, less the class count, of each checked network.
    networks = {"plain": ((5, 7), (7,)), "siamese": ((4, 6), (12, 8))}
    for kind in kinds:
        for topology, (encoder, head) in networks.items():
            worst = 0.0
            for trial in range(model_trials):
                n_classes = 3 + (trial % 2)
                params = init_params(encoder, (*head, n_classes), seed=rng.integers(2**31))
                inputs = [rng.normal(size=encoder[0]) for _ in range(params.n_branches)]
                y = np.eye(n_classes)[rng.integers(0, n_classes)]
                err = finite_difference_check_params(params, inputs, y, kind, one_cfg(trial), h=args.h)
                worst = max(worst, err)
            lines.append((kind, topology, model_trials, worst))

    worst_overall = max(line[3] for line in lines)
    print(f"{'loss':<10} {'path':<9} {'trials':>6} {'max_rel_err':>12}  status")
    for kind, topology, trials, worst in lines:
        status = "ok" if worst < tolerance else "FAIL"
        print(f"{kind:<10} {topology:<9} {trials:>6} {worst:>12.3e}  {status}")
    if worst_overall >= tolerance:
        print(f"gradient check FAILED: worst relative error {worst_overall:.3e} >= {tolerance}")
        return 7
    print(f"gradient check passed: worst relative error {worst_overall:.3e} < {tolerance}")
    return 0


# --- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordchange",
        description="Ordinal change classification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--config", help="key=value generation config file")
    g.add_argument("--task", choices=["t1", "t2"], help="override the config task")
    g.add_argument("--seed", type=int, help="override the config seed")
    g.add_argument("--out", required=True, help="output directory")

    t = sub.add_parser("train", help="train a model from a dataset CSV")
    t.add_argument("--config", help="key=value training config file")
    t.add_argument("--data", required=True, help="dataset CSV from gen")
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--task", choices=["t1", "t2"], help="override the config task")
    t.add_argument("--loss", choices=list(LOSS_KINDS), help="override the config loss")
    t.add_argument("--seed", type=int, help="override the config seed")
    t.add_argument("--folds", type=int, help="patient-disjoint folds (0 = single split)")

    p = sub.add_parser("predict", help="write per-record probabilities")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="prediction CSV path")

    e = sub.add_parser("ensemble", help="combine prediction CSVs")
    e.add_argument("preds", nargs="+", help="prediction CSVs to combine")
    e.add_argument("--mode", choices=["mean", "unanimity"], default="mean")
    e.add_argument("--postprocess", action="store_true", help="apply volume consistency")
    e.add_argument("--stable-threshold", type=float, default=PostprocessConfig.stable_ratio_threshold)
    e.add_argument(
        "--tie-break",
        choices=[tb.value for tb in TieBreak],
        default=PostprocessConfig.tie_break.value,
    )
    e.add_argument("--majority-includes-stable", action="store_true")
    e.add_argument("--out", required=True, help="combined prediction CSV path")

    v = sub.add_parser("eval", help="score predictions against ground truth")
    v.add_argument("--pred", required=True, help="prediction CSV")
    v.add_argument("--truth", required=True, help="truth CSV")
    v.add_argument("--task", required=True, choices=["t1", "t2"])
    v.add_argument("--out", help="report CSV path (default: <pred>.report.csv)")

    c = sub.add_parser("gradcheck", help="verify analytic gradients")
    c.add_argument("--losses", default=",".join(LOSS_KINDS))
    c.add_argument("--trials", type=int, default=25)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--h", type=float, default=1e-5)

    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "predict": cmd_predict,
    "ensemble": cmd_ensemble,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


# The exit code of each error that ends a command with one ``error:`` line.
_EXIT_CODES = {
    ConfigError: 3, InvalidInputError: 3, NumericError: 4, CheckpointError: 5,
    AlignmentError: 6, DataError: 2, OSError: 2,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else None
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
