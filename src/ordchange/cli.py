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
finite, are rejected. Without ``head_dims``, the head maps each branch's
encoder output to the task's classes. ``main`` writes the run manifest (JSON)
of every command but ``gradcheck`` next to its outputs. Before a command reads
its data, ``_check_outputs`` rejects an output path, manifest included, that is
a directory, lies under a file or is the same file as one of the command's
inputs; it creates nothing. Reruns with identical inputs and seed give
byte-identical outputs, manifests excepted for their timing field. ``train``
fits its folds one after another and lets go of each fold's split, model and
history before it builds the next fold's split.

Importing ``cli`` loads only ``core`` and ``errors`` of the package: each command
imports the modules it runs (``_need``), the parser losses and ensemble for its
choices, and ``__getattr__`` gives any other reader the names ``cli`` takes from
them. A name set on ``cli`` before a command runs is the one the command calls.

A dataset CSV becomes a ``core.Dataset``; a prediction CSV becomes a
``Predictions`` table of columns. ``predict`` checks that the model gives the
task's classes and builds that table from the dataset's columns and the (N, C)
probabilities, ``ensemble`` votes on one (M, N, C) stack of its input tables'
``probs`` and writes the first table with its label columns replaced, and
``eval`` scores one label column. ``_row_order`` matches one file's rows to
another file's keys for both. Each kind of CSV is one declaration of its typed
fields, from which its writer and reader take its header and column order.
``_read_csv`` reads every kind in one ``_read_table`` pass, parses its ints at
once and names the line of a label outside the file's classes or of a text
field that ends in NUL, which numpy's text arrays would drop. ``_write_csv``
writes every CSV from its columns, with no ``csv.writer``: it quotes each text
column once and formats each row of a float matrix by ``repr`` as it writes
that line into the temporary file that ``core.atomic_write`` renames. The bytes
are ``csv.writer``'s. A float matrix of ``_SPLIT_VALUES`` or more values, on a
host with a second usable CPU and in a process with no other thread, is
formatted by two processes: a forked child streams the second half of the rows
into an unlinked temporary file while this process streams the first, then
appends the child's file. Both halves stream, so neither holds the whole text.

``write_dataset_csv`` also writes a binary twin of the dataset CSV,
``<csv>.npy``, keyed by the CSV's length and CRC-32. ``read_dataset_csv``
takes its columns from the twin in place of the ``loadtxt`` pass when the
key matches the CSV and the arrays have the header's shapes; otherwise it
parses the text. Both reads end in the same checks.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from itertools import chain, groupby, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__, core
from .core import ClassLabel, Dataset, Task, _column, as_prob_rows, atomic_write, confusion_from_predictions
from .errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    DataError,
    InvalidInputError,
    NumericError,
)

# Names from the modules only some commands run, which importing ``cli`` does not load. A command binds the
# names of its modules with ``_need``; ``__getattr__`` binds them for other readers. A schema comes with its config.
_LAZY = {
    "datagen": ("GenConfig", "GEN_SCHEMA", "gen_t1_pairs", "gen_t2_volumes"),
    "ensemble": ("PostprocessConfig", "TieBreak", "mean_ensemble", "unanimity_ensemble", "volume_consistency"),
    "losses": ("LOSS_KINDS", "LossConfig", "check_loss_kind", "finite_difference_check"),
    "metrics": ("METRIC_NAMES", "MetricReport", "compute_report"),
    "model": ("TrainConfig", "TRAIN_SCHEMA", "finite_difference_check_params", "init_params", "load_checkpoint",
              "predict", "save_checkpoint", "train"),
}
_SCHEMA_OF = {"GEN_SCHEMA": "GenConfig", "TRAIN_SCHEMA": "TrainConfig"}


def _need(*modules: str) -> None:
    """Import these ordchange modules and bind the names ``cli`` takes from
    them. A name already bound, such as a replacement set on ``cli``, is kept."""
    scope = globals()
    for module in modules:
        owner = importlib.import_module(f"{__package__}.{module}")
        for name in _LAZY[module]:
            scope.setdefault(name, _schema(scope[_SCHEMA_OF[name]]) if name in _SCHEMA_OF else getattr(owner, name))


def __getattr__(name: str):
    """A name of ``_LAZY`` read before a command bound it (PEP 562)."""
    module = next((module for module, names in _LAZY.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _need(module)
    return globals()[name]

# --- small formatting and io helpers ---------------------------------------------


_QUOTE_CHARS = re.compile('[,"\r\n]')  # what csv.writer(lineterminator="\r\n") quotes


def _quoted(column: Iterable) -> list[str]:
    """Each field of a column as csv.writer writes it: floats by repr, ints by
    str, and text that holds a comma, a quote or a line break in quotes."""
    text = list(map(str, column))
    if not _QUOTE_CHARS.search("".join(text)):
        return text
    return ['"' + t.replace('"', '""') + '"' if _QUOTE_CHARS.search(t) else t for t in text]


# A float matrix of at least this many values is formatted by two processes. In fresh ``gen`` processes
# on a 2-CPU host, the split cost 6-10 ms at 8,000-12,800 values, broke even at 16,000-24,000 and saved
# time from 32,000 up: 19 ms of 208 at 51,200 and 68 ms of 319 at 200,000 (medians of 12-16 pairs).
_SPLIT_VALUES = 32_000


def _write_lines(fh, lines: Iterable[str]) -> None:
    """Write each line, ended by LF, as UTF-8 into the open binary file ``fh``,
    and flush ``fh``."""
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    text.writelines((line or '""') + "\n" for line in lines)  # csv writes a row of one empty field as ""
    text.detach()  # flushes itself and fh, and leaves fh open


def _lines(quoted: Sequence[list[str]], floats) -> Iterator[str]:
    """Each row of the quoted text columns, followed by that row of ``floats``
    by ``repr`` when given."""
    lines = map(",".join, zip(*quoted))
    if floats is None:
        return lines
    return (f"{text},{','.join(map(float.__repr__, row.tolist()))}" for text, row in zip(lines, floats))


def _splits(floats) -> bool:
    """Whether a forked process formats half of the float matrix: it is an
    array large enough, a second CPU is free to run that process, and no
    other thread could hold a lock that the fork would copy held."""
    return (
        isinstance(floats, np.ndarray) and floats.size >= _SPLIT_VALUES and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2  # macOS has fork alone
        and threading.active_count() == 1
    )


def _write_split(path: str | os.PathLike, fh, first: Iterable[str], second: Iterable[str]) -> None:
    """Write the lines ``first`` into ``fh`` while a forked process writes the
    lines ``second`` into an unlinked temporary file beside ``path``, then
    append that file. A failed process raises OSError naming ``path``. However
    this ends, the process is killed if it still runs, and reaped."""
    with tempfile.TemporaryFile(dir=os.path.dirname(os.fspath(path)) or ".") as part:
        pid = os.fork()
        if pid == 0:  # os._exit runs none of the parent's clean-up and flushes none of its buffers
            code = 1
            try:
                _write_lines(part, second)
                code = 0
            finally:
                os._exit(code)
        try:
            _write_lines(fh, first)
            _, status = os.waitpid(pid, 0)
            pid = 0
        finally:
            if pid:
                os.kill(pid, 9)  # SIGKILL, by number: importing signal would charge every command's start-up
                os.waitpid(pid, 0)
        if code := os.waitstatus_to_exitcode(status):
            raise OSError(f"{path}: the process that formats its second half exited {code}")
        part.seek(0)
        shutil.copyfileobj(part, fh)


def _write_csv(path: str | os.PathLike, header: Sequence[str], columns: Sequence[Iterable], floats=None) -> None:
    """Write the header, then each row of the (one or more) text columns
    followed by that row of the float matrix ``floats`` (one or more columns)
    when given, as csv.writer with CR LF line ends would, each ended by LF.
    When ``_splits(floats)``, a forked process formats the second half of the
    rows while this one writes the first; each half streams its lines."""
    quoted = [_quoted(column) for column in columns]

    def write(fh) -> None:
        head = [",".join(_quoted(header))]
        if not _splits(floats):
            _write_lines(fh, chain(head, _lines(quoted, floats)))
            return
        half = len(floats) // 2
        first = _lines([column[:half] for column in quoted], floats[:half])
        second = _lines([column[half:] for column in quoted], floats[half:])
        _write_split(path, fh, chain(head, first), second)

    atomic_write(path, write)


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


# The first value of a twin's key; a change of the twin's layout changes it.
_TWIN_VERSION = 1


def _twin_key(path: str | os.PathLike) -> list[int]:
    """The key a twin holds of its CSV: the format version, then the CSV's
    byte length and CRC-32, read through one reused 1 MiB buffer."""
    size = crc = 0
    buffer = memoryview(bytearray(1 << 20))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            size, crc = size + n, zlib.crc32(buffer[:n], crc)
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


class _Label(int):
    """The type of a CSV field that holds a label: an int that names one of the file's classes."""


def _read_csv(path: str | os.PathLike, what: str, kinds: Callable[[list[str]], Iterable[tuple]]) -> tuple:
    """The key, the text and int columns by name, the case ids and the float
    matrix of a CSV whose header names the fields of one of the ``(key,
    fields, n_classes, valid)`` kinds that ``kinds(header)`` yields.

    Fields are ``(name, type)`` pairs in file order, typed ``str``, ``int``,
    ``_Label`` or ``float`` (one run at most). Errors say ``unrecognized
    <what>`` or ``malformed <what's first word> row``, or name the line of a
    label outside ``[0, n_classes)`` (``valid`` words the range) or of a text
    field that ends in NUL."""

    def layout(header: list[str]) -> tuple:
        for kind in kinds(header):
            if header == [name for name, _ in kind[1]]:
                runs = groupby(kind[1], lambda field: np.float64 if field[1] is float else object)
                return kind, [(str(i), dtype, len(list(run))) for i, (dtype, run) in enumerate(runs)]
        raise DataError(f"{path}: unrecognized {what}")

    (key, declared, n_classes, valid), table = _read_table(path, layout)
    text = np.hstack([arr for arr in table.values() if arr.dtype == object])
    columns = dict(zip([name for name, kind in declared if kind is not float], text.T))
    floats = [np.ascontiguousarray(arr) for arr in table.values() if arr.dtype == np.float64]
    ints = [name for name, kind in declared if kind in (int, _Label)]
    try:
        parsed = np.array(np.column_stack([columns[name] for name in ints]), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed {what.split()[0]} row: {exc}") from exc
    columns.update(zip(ints, parsed.T))
    names = [name for name, kind in declared if kind is _Label]
    labels = np.column_stack([columns[name] for name in names])
    off = np.argwhere((labels < 0) | (labels >= n_classes))
    if off.size:
        i, j = off[0]
        raise DataError(f"{path}: line {_record_lines(path)[i]}: {names[j]} {labels[i, j]} {valid}")
    ends = [(i, name) for name, kind in declared if kind is str and "\0" in "".join(columns[name])
            for i, value in enumerate(columns[name]) if value.endswith("\0")]
    if ends:
        i, name = min(ends, key=lambda end: end[0])
        raise DataError(f"{path}: line {_record_lines(path)[i]}: {name} ends in a NUL character")
    return key, columns, columns["case_id"].tolist(), floats[0] if floats else np.empty((len(text), 0))


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
    if hasattr(cls, "head_dims"):  # the default head reads each branch's encoder output
        encoder = given.get("encoder_dims", cls.encoder_dims)
        given.setdefault("head_dims", (task.n_branches * encoder[-1], task.n_classes))
    return _construct(cls, given)


# --- CSV kinds -------------------------------------------------------------------------
#
# Each kind of CSV is declared once, as its (name, type) fields in file order;
# its header, the groups ``_read_table`` reads and the checks follow from that.


def _dataset_fields(task: Task, dim: int) -> list[tuple[str, object]]:
    if task is Task.T2:
        ids = [("case_id", str), ("patient_id", str), ("visit_id", str), ("volume_id", str)]
        return ids + [("bscan_index", int), ("label", _Label)] + [(f"f{i}", float) for i in range(dim)]
    pairs = [(f"{half}{i}", float) for half in "ab" for i in range(dim)]  # the earlier visit's, then the later's
    return [("case_id", str), ("patient_id", str), ("label", _Label)] + pairs


def _case_ids(data: Dataset) -> list[str]:
    if data.task is Task.T2:
        return [f"{v}/{i}" for v, i in zip(data.volume_id.tolist(), data.bscan_index.tolist())]
    return [f"pair{i:06d}" for i in range(len(data))]


def _columns(data: Dataset) -> dict[str, list]:
    """A dataset's text and int columns as lists, by their CSV field names."""
    scan = {name: getattr(data, name).tolist() for name in core._SCAN_COLUMNS} if data.task is Task.T2 else {}
    return {"case_id": _case_ids(data), "patient_id": data.patient_id.tolist(), **scan, "label": data.labels.tolist()}


def write_dataset_csv(path: str | os.PathLike, data: Dataset) -> None:
    declared, columns = _dataset_fields(data.task, data.x.shape[1]), _columns(data)
    ids = [columns[name] for name, kind in declared if kind is not float]
    feats = data.x if data.x_b is None else np.hstack(data.inputs)  # a pair row's halves side by side
    # A feature is written as its repr, the shortest text that reads back exactly.
    _write_csv(path, [name for name, _ in declared], ids, feats)
    _write_twin(path, ids, feats)


def _truth_fields(task: Task) -> list[tuple[str, object]]:
    scan = [("volume_id", str), ("bscan_index", str)] if task is Task.T2 else []
    return [("case_id", str), ("patient_id", str), *scan, ("label", _Label)]


def write_truth_csv(path: str | os.PathLike, data: Dataset) -> None:
    names, columns = [name for name, _ in _truth_fields(data.task)], _columns(data)
    _write_csv(path, names, [columns[name] for name in names])


def read_dataset_csv(path: str | os.PathLike) -> tuple[Task, Dataset, list[str]]:
    """Read a dataset CSV, detecting the task from its header.

    Returns the task, the dataset, and the per-row case ids in file order.
    ``_read_csv`` gives the id columns as text, the B-scan index and label as
    int64 and the features as one float64 matrix; a pair row's halves become
    the views ``x`` and ``x_b``. The columns then go through the ``Dataset``
    checks.
    """

    def kinds(header: list[str]) -> Iterator[tuple]:
        for task in Task:
            dim = (len(header) - len(_dataset_fields(task, 0))) // (2 if task is Task.T1 else 1)
            yield (task, dim), _dataset_fields(task, dim), task.n_classes, f"is not valid for task {task.value}"

    (task, dim), columns, case_ids, feats = _read_csv(path, "dataset header", kinds)
    scan = {name: columns[name] for name in core._SCAN_COLUMNS} if task is Task.T2 else {}
    x_b = feats[:, dim:] if task is Task.T1 else None
    try:
        data = Dataset(feats[:, :dim], columns["label"], columns["patient_id"], x_b, **scan)
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}") from exc
    _check_unique(path, case_ids)
    return task, data, case_ids


def _pred_fields(n_classes: int, with_final: bool) -> list[tuple[str, object]]:
    ids = [("case_id", str), ("patient_id", str), ("volume_id", str), ("bscan_index", str), ("true_label", _Label)]
    probs = [(f"p_{ClassLabel(c).name.lower()}", float) for c in range(n_classes)]
    final = [("final_label", _Label), ("postprocessed", int)] if with_final else []
    return ids + probs + [("pred_label", _Label)] + final


# The dtype of each prediction column; the id columns not listed here hold text.
_PRED_DTYPES = {"probs": np.float64, **{name: np.int64 for name, kind in _pred_fields(0, True) if kind is not str}}


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
                object.__setattr__(self, f.name, _column(f.name, getattr(self, f.name), _PRED_DTYPES.get(f.name, str)))


# Writing rounds each probability to 9 decimals, by at most 0.5e-9, so a row
# of up to 4 classes that summed to 1 within core.PROB_TOL (1e-9) still does
# within this.
_ROUNDED_PROB_TOL = 3e-9


def write_predictions_csv(path: str | os.PathLike, table: Predictions) -> None:
    probs = (["%.9f" % v for v in column] for column in table.probs.T.tolist())
    declared = _pred_fields(table.probs.shape[1], table.final_label is not None)
    columns = [next(probs) if kind is float else getattr(table, name).tolist() for name, kind in declared]
    _write_csv(path, [name for name, _ in declared], columns)


def read_predictions_csv(path: str | os.PathLike) -> Predictions:
    """Read a prediction CSV into a table that holds the values as read. A
    file that ``write_predictions_csv`` wrote (ints in canonical form,
    probabilities with 9 decimals) gives the same bytes when written back.
    Every label must name a class of the file's width, every probability row
    pass the simplex gate within ``_ROUNDED_PROB_TOL``, and every case_id be
    unique."""

    def kinds(header: list[str]) -> Iterator[tuple]:
        for n, with_final in ((4, True), (4, False), (3, True), (3, False)):
            yield (n, with_final), _pred_fields(n, with_final), n, f"outside [0, {n})"

    _, columns, case_ids, probs = _read_csv(path, "prediction header", kinds)
    if not case_ids:
        raise DataError(f"{path}: holds no prediction rows")
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
    _check_unique(path, case_ids)
    return Predictions(**columns, probs=probs)


def read_truth_csv(path: str | os.PathLike, task: Task) -> tuple[list[str], np.ndarray]:
    """The case ids and the int64 labels of a truth CSV, in file order."""
    kind = (None, _truth_fields(task), task.n_classes, f"is not valid for task {task.value}")
    _, columns, case_ids, _ = _read_csv(path, f"truth header for task {task.value}", lambda header: [kind])
    _check_unique(path, case_ids)
    return case_ids, columns["label"]


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


def _check_outputs(paths: Sequence[str | os.PathLike], inputs: Sequence[str | os.PathLike]) -> None:
    """Before a command reads its data: reject an output path that is a
    directory, whose nearest existing ancestor is not one, or that is the
    same file as one of the command's ``inputs``, which writing it would
    destroy. It makes nothing; ``atomic_write`` makes each directory at its
    first write."""
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path {path} is a directory")
        parent = next(parent for parent in Path(path).parents if parent.exists())  # "." ends a relative path
        if not parent.is_dir():
            raise NotADirectoryError(f"output path {path}: {parent} is not a directory")
        for source in inputs:
            if os.path.exists(path) and os.path.exists(source) and os.path.samefile(path, source):
                raise DataError(f"output path {path} is the same file as the input {source}")


def cmd_gen(args) -> tuple[Path, dict]:
    _need("datagen")
    values, config_text = _load_config(args.config, GEN_SCHEMA)
    cfg = _build_config(GenConfig, values, args)
    out_dir = Path(args.out)
    dataset_path, truth_path, manifest = out_dir / "dataset.csv", out_dir / "truth.csv", out_dir / "manifest.json"
    outputs = [str(dataset_path), f"{dataset_path}.npy", str(truth_path)]
    inputs = [args.config] if args.config else []
    _check_outputs([*outputs, manifest], inputs)
    data = gen_t2_volumes(cfg) if cfg.task is Task.T2 else gen_t1_pairs(cfg)
    write_dataset_csv(dataset_path, data)
    write_truth_csv(truth_path, data)
    counts = np.bincount(data.labels, minlength=cfg.task.n_classes)
    summary = ", ".join(f"{ClassLabel(c).name.lower()}={n}" for c, n in enumerate(counts.tolist()) if n)
    print(f"wrote {len(data)} {cfg.task.value} records to {dataset_path} ({summary})")
    return manifest, {"inputs": inputs, "outputs": outputs, "config": config_text, "seed": cfg.seed}


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


def cmd_train(args) -> tuple[str, dict]:
    _need("model", "metrics")
    values, config_text = _load_config(args.config, TRAIN_SCHEMA)
    cfg = _build_config(TrainConfig, values, args)
    out = Path(args.out)
    if cfg.folds >= 2:
        ckpt_paths = [out.with_name(f"{out.stem}.fold{i}{out.suffix}") for i in range(cfg.folds)]
    else:
        ckpt_paths = [out]
    outputs = [str(path) for ckpt in ckpt_paths for path in (ckpt, f"{ckpt}.history.csv")]
    inputs = [p for p in (args.config, args.data) if p]
    _check_outputs([*outputs, f"{out}.manifest.json"], [*inputs, f"{args.data}.npy"])
    data_task, data, _ = read_dataset_csv(args.data)
    if data_task is not cfg.task:
        raise ConfigError(
            f"dataset {args.data} holds {data_task.value} records but config says {cfg.task.value}"
        )
    # Python sets, not numpy's set routines: np.unique imports numpy.ma, which nothing else in train needs.
    patient_ids = data.patient_id.tolist()
    patients = sorted(set(patient_ids))
    if len(patients) < 2:
        raise DataError("need at least two patients for a patient-disjoint split")
    val_sets = _fold_val_patients(patients, cfg.folds, cfg.val_ratio, cfg.seed)

    for i, (val_patients, ckpt_path) in enumerate(zip(val_sets, ckpt_paths)):
        in_val = np.array([p in val_patients for p in patient_ids], dtype=bool)
        train_data, val_data = data.take(~in_val), data.take(in_val)
        params, history = train(train_data, val_data, replace(cfg, seed=cfg.seed + i))
        save_checkpoint(ckpt_path, params)
        _write_history_csv(f"{ckpt_path}.history.csv", history)
        print(
            f"fold {i}: best val average {history.best_average:.6f} "
            f"at epoch {history.best_epoch} ({len(train_data)} train / {len(val_data)} val records)"
        )
        # Free this fold's split and model before the next fold builds its own.
        del in_val, train_data, val_data, params, history
    return f"{out}.manifest.json", {"inputs": inputs, "outputs": outputs, "config": config_text, "seed": cfg.seed}


def cmd_predict(args) -> tuple[str, dict]:
    _need("model")
    _check_outputs([args.out, f"{args.out}.manifest.json"], [args.ckpt, args.data, f"{args.data}.npy"])
    params = load_checkpoint(args.ckpt)
    task, data, case_ids = read_dataset_csv(args.data)
    if not len(data):
        raise DataError(f"{args.data}: dataset holds no records")
    probs = predict(params, data)
    if probs.shape[1] != task.n_classes:
        raise ConfigError(f"the model gives {probs.shape[1]} classes, task {task.value} takes {task.n_classes} "
                          f"(checkpoint {args.ckpt})")
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
    return f"{args.out}.manifest.json", {"inputs": [args.ckpt, args.data], "outputs": [str(args.out)]}


def cmd_ensemble(args) -> tuple[str, dict]:
    _need("ensemble")
    _check_outputs([args.out, f"{args.out}.manifest.json"], args.preds)
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
    return f"{args.out}.manifest.json", {"inputs": args.preds, "outputs": [str(args.out)]}


def cmd_eval(args) -> tuple[str, dict]:
    _need("metrics")
    task = Task(args.task)
    out = args.out or f"{args.pred}.report.csv"
    _check_outputs([out, f"{out}.manifest.json"], [args.pred, args.truth])
    pred = read_predictions_csv(args.pred)
    if pred.probs.shape[1] != task.n_classes:
        raise ConfigError(
            f"predictions carry {pred.probs.shape[1]} classes, task {task.value} expects {task.n_classes}"
        )
    truth_ids, truth_labels = read_truth_csv(args.truth, task)
    order = _row_order(truth_ids, pred.case_id.tolist(), f"prediction file {args.pred} and truth file {args.truth}")
    labels = pred.pred_label if pred.final_label is None else pred.final_label
    cm = confusion_from_predictions(truth_labels[order], labels, task.n_classes)
    report = compute_report(cm, task)
    print(f"task                {task.value}")
    for name, value in report.values().items():
        print(f"{name:<19} {value:.6f}")
    if report.flags:
        print(f"flags               {';'.join(report.flags)}")
    _write_report_csv(out, report)
    return f"{out}.manifest.json", {"inputs": [args.pred, args.truth], "outputs": [str(out)]}


def cmd_gradcheck(args) -> int:
    _need("losses", "model")
    kinds = [k.strip() for k in args.losses.split(",") if k.strip()]
    if not kinds:
        raise ConfigError(f"--losses names no loss kind, got {args.losses!r}")
    for kind in kinds:
        check_loss_kind(kind)
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    gammas = (0.0, 1.0, 2.0, 5.0)
    tolerance = 1e-5
    # Encoder dims and head dims, less the class count, of each checked network.
    networks = {"plain": ((5, 7), (7,)), "siamese": ((4, 6), (12, 8))}

    def trial_error(kind: str, path: str, trial: int) -> float:
        n_classes, cfg = 3 + trial % 2, LossConfig(gamma=gammas[trial % len(gammas)])
        if path == "logits":
            # Scale 2: wider logits push near-zero probability coordinates into
            # the central-difference noise floor and fail spuriously.
            z = rng.normal(0.0, 2.0, size=n_classes)
        else:
            encoder, head = networks[path]
            params = init_params(encoder, (*head, n_classes), seed=rng.integers(2**31))
            inputs = [rng.normal(size=encoder[0]) for _ in range(params.n_branches)]
        y = np.eye(n_classes)[rng.integers(0, n_classes)]
        if path == "logits":
            if trial % 3 == 2:  # exercise soft targets as well as one-hot
                y = rng.dirichlet(np.ones(n_classes))
            return finite_difference_check(kind, z, y, cfg, h=args.h)
        return finite_difference_check_params(params, inputs, y, kind, cfg, h=args.h)

    model_trials = max(1, args.trials // 5)
    runs = [(kind, "logits", args.trials) for kind in kinds]
    runs += [(kind, path, model_trials) for kind in kinds for path in networks]
    # np.max, unlike max, returns NaN when any error is NaN, and NaN fails every "< tolerance".
    lines = [(kind, path, trials, float(np.max([trial_error(kind, path, t) for t in range(trials)])))
             for kind, path, trials in runs]

    worst_overall = float(np.max([line[3] for line in lines]))
    print(f"{'loss':<10} {'path':<9} {'trials':>6} {'max_rel_err':>12}  status")
    for kind, topology, trials, worst in lines:
        status = "ok" if worst < tolerance else "FAIL"
        print(f"{kind:<10} {topology:<9} {trials:>6} {worst:>12.3e}  {status}")
    if not worst_overall < tolerance:
        print(f"gradient check FAILED: worst relative error {worst_overall:.3e} >= {tolerance}")
        return 7
    print(f"gradient check passed: worst relative error {worst_overall:.3e} < {tolerance}")
    return 0


# --- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    _need("losses", "ensemble")  # for the choices and defaults of --loss, --losses and --tie-break
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
    """Run one command and return its exit code. A command but ``gradcheck``
    returns its manifest's path and the fields it knows (inputs, outputs, and
    config and seed when it has them); ``main`` adds the rest and writes it."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        result = _COMMANDS[args.command](args)
        if isinstance(result, int):
            return result
        path, known = result
        manifest = {
            "command": args.command, "argv": argv, "config": "", "seed": None, **known, "version": __version__,
            "duration_seconds": round(time.monotonic() - started, 6),
        }
        atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())


# Every object made so far lives until exit: keep the collector from walking them in each
# later collection, the ones at interpreter shutdown included.
gc.freeze()


if __name__ == "__main__":
    entrypoint()
