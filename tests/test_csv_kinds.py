"""The CSV readers built on ``cli._read_csv`` against the readers they
replaced, kept in ``reference_csv``.

On valid files and on files with edited fields (a NUL put at the end, a
label out of range, an int beyond int64), mutated or not with the byte
alphabet of the CLI fuzz, each new reader must return the
columns the old one returns, or raise the same exception class with the
same message. The only exceptions are the intended changes that
``intended`` names, and each is checked against the file's records."""

import csv
import io
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import reference_csv as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_fuzz import mutations

from ordchange import cli
from ordchange.core import Dataset, Task
from ordchange.datagen import GenConfig, gen_t1_pairs, gen_t2_volumes

KINDS = ["t2 dataset", "t1 dataset", "t2 truth", "t1 truth", "t2 predictions", "t1 ensemble predictions"]
INT_FIELDS = ("bscan_index", "label", "true_label", "pred_label", "final_label", "postprocessed")


@pytest.fixture(scope="module")
def bases(tmp_path_factory) -> dict[str, tuple[bytes, bytes | None]]:
    """The bytes of a small file of each kind, and of its twin when it has one."""
    root = tmp_path_factory.mktemp("kinds")
    bases = {}
    for task, gen in ((Task.T2, gen_t2_volumes), (Task.T1, gen_t1_pairs)):
        cfg = GenConfig(task=task, n_patients=3, visits_min=2, visits_max=3, bscans_min=2, bscans_max=3,
                        feature_dim=2, seed=3)
        data = gen(cfg)
        cli.write_dataset_csv(root / "dataset.csv", data)
        cli.write_truth_csv(root / "truth.csv", data)
        probs = np.random.default_rng(0).dirichlet(np.ones(task.n_classes), size=len(data))
        if task is Task.T2:
            volumes, indices = data.volume_id, data.bscan_index.astype(str)
        else:
            volumes = indices = [""] * len(data)
        table = cli.Predictions(cli._case_ids(data), data.patient_id, volumes, indices, data.labels, probs,
                                probs.argmax(axis=1))
        if task is Task.T1:
            table = replace(table, final_label=table.pred_label, postprocessed=np.ones(len(data), dtype=np.int64))
        cli.write_predictions_csv(root / "preds.csv", table)
        bases[f"{task.value} dataset"] = ((root / "dataset.csv").read_bytes(), (root / "dataset.csv.npy").read_bytes())
        bases[f"{task.value} truth"] = ((root / "truth.csv").read_bytes(), None)
        name = "predictions" if task is Task.T2 else "ensemble predictions"
        bases[f"{task.value} {name}"] = ((root / "preds.csv").read_bytes(), None)
    return bases


def readers(kind: str) -> tuple:
    """The new and the old reader of a kind of file."""
    if kind.endswith("dataset"):
        return cli.read_dataset_csv, ref.read_dataset_csv
    if kind.endswith("truth"):
        task = Task(kind[:2])
        return (lambda path: cli.read_truth_csv(path, task)), (lambda path: ref.read_truth_csv(path, task))
    return cli.read_predictions_csv, ref.read_predictions_csv


def plain(value):
    """A reader's result with every array as its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (Dataset, cli.Predictions)):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    return value


def outcome(read, path: Path) -> tuple:
    try:
        return "ok", plain(read(path))
    except (cli.DataError, cli.AlignmentError) as exc:
        return type(exc).__name__, str(exc)


def records(path: Path) -> dict[int, dict[str, str]]:
    """Each data record by the file line it starts on, as a dict from the
    header's field names, as the csv module reads it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader, start, rows = csv.reader(fh), 1, {}
        for row in reader:
            rows[start] = row
            start = reader.line_num + 1
    header = rows.pop(1)
    return {line: dict(zip(header, row)) for line, row in rows.items()}


def int_faults(path: Path, names: list[str]) -> list[str]:
    """The int fields ``names`` of every record that ``int`` rejects
    ("value") or that int64 cannot hold ("overflow")."""
    faults = []
    for record in records(path).values():
        for name in names:
            try:
                if not -(2**63) <= int(record[name]) < 2**63:
                    faults.append("overflow")
            except ValueError:
                faults.append("value")
    return faults


# What an old reader raised after the point where the new ones check for a NUL:
# the Dataset checks other than the label range, and the simplex gate.
AFTER_NUL = re.compile(
    r"features |duplicate row key |volume .* carries conflicting |bscan_index must be |line \d+: prob", re.DOTALL
)


def intended(path: Path, kind: str, old: tuple, new: tuple) -> bool:
    """Whether the new reader's outcome differs from the old one's only by
    an intended change."""
    if new[0] != "DataError":
        return False
    message, before = new[1].removeprefix(f"{path}: "), old[1].removeprefix(f"{path}: ") if old[0] != "ok" else ""
    if match := re.fullmatch(r"line (\d+): (\w+) ends in a NUL character", message, re.DOTALL):
        # A text field that ends in NUL is rejected; numpy's text arrays dropped the NUL.
        after = old[0] in ("ok", "AlignmentError") or AFTER_NUL.match(before)
        return bool(after) and records(path)[int(match[1])][match[2]].endswith("\0")
    if old[0] != "DataError":
        return False
    if match := re.fullmatch(r"line (\d+): label (-?\d+) is not valid for task (t[12])", message):
        # A dataset label is checked before the Dataset checks, and names its line.
        same = before == f"label {match[2]} is not valid for task {match[3]}" or before.startswith("features ")
        return kind.endswith("dataset") and same and int(records(path)[int(match[1])]["label"]) == int(match[2])
    if re.fullmatch(r"line \d+: (true|pred|final)_label -?\d+ outside \[0, [34]\)", message):
        # A prediction label is checked before the simplex gate.
        return before.startswith("line ") and ": prob" in before
    if message == "unrecognized dataset header":
        return bool(re.fullmatch(r"malformed t[12] dataset header", before))
    header = next(iter(records(path).values()), {})
    names = ["label"] if kind.endswith("truth") else [name for name in INT_FIELDS if name in header]
    overflow = "malformed truth row: Python int too large to convert to C long"
    if message == overflow and re.fullmatch(r"line \d+: label -?\d+ is not valid for task t[12]", before):
        # A truth label beyond int64 is a malformed row, no longer a label out of range.
        return "overflow" in int_faults(path, names)
    if message.startswith("malformed ") and before.startswith(message.split(":")[0] + ":"):
        # The int fields are parsed in one pass in file order, so of two faulty ones another may be named.
        return len(int_faults(path, names)) >= 2
    return False


# Values put in place of a field: labels outside each task's classes, ints
# beyond int64, text that is no int, and a probability off the simplex.
VALUES = [b"-1", b"3", b"4", b"9" * 20, b"-" + b"9" * 20, b"x", b"0.5", b"nan"]


@st.composite
def edited(draw, base: bytes) -> bytes:
    """The base file with up to two fields of its records edited, each by a
    NUL put at its end or by one of ``VALUES``, and then mutated or not."""
    lines = base.split(b"\n")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines) - 2))
        row = lines[at].split(b",")  # the base files hold no quoted field
        j = draw(st.integers(0, len(row) - 1))
        row[j] = draw(st.sampled_from([row[j] + b"\0", *VALUES]))
        lines[at] = b",".join(row)
    base = b"\n".join(lines)
    return draw(st.just(base) | mutations(base))


@pytest.mark.parametrize("kind", KINDS)
def test_valid_files_read_as_the_reference_reads_them(bases, kind, tmp_path):
    text, twin = bases[kind]
    path = tmp_path / "file.csv"
    path.write_bytes(text)
    if twin is not None:  # both readers take the columns from it
        Path(f"{path}.npy").write_bytes(twin)
    new, old = (outcome(read, path) for read in readers(kind))
    assert new[0] == "ok" and new == old


@pytest.mark.parametrize("kind", ["t2 dataset", "t1 dataset"])
@pytest.mark.parametrize("fault", ["stale", "misshaped"])
def test_a_stale_or_misshaped_twin_is_not_read(bases, kind, fault, tmp_path):
    """Both readers parse the text in place of a twin whose key is not the
    CSV's, or whose key is but whose feature matrix lacks a column."""
    text, twin = bases[kind]
    path = tmp_path / "file.csv"
    if fault == "stale":
        # The last field of the last record is a feature: the CSV stays valid.
        head, _, last = text.rstrip(b"\n").rpartition(b"\n")
        path.write_bytes(head + b"\n" + last.rpartition(b",")[0] + b",12.5\n")
        Path(f"{path}.npy").write_bytes(twin)
    else:
        path.write_bytes(text)
        key, ids, floats = (np.load(fh, allow_pickle=False) for fh in [io.BytesIO(twin)] * 3)
        with open(f"{path}.npy", "wb") as fh:
            for arr in (key, ids, floats[:, :-1]):
                np.save(fh, arr, allow_pickle=False)
    new, old = (outcome(read, path) for read in readers(kind))
    assert new[0] == "ok" and new == old
    data = cli.read_dataset_csv(path)[1]
    assert data.inputs[-1][-1, -1] == (12.5 if fault == "stale" else float(text.rpartition(b",")[2]))


@pytest.mark.parametrize("kind", KINDS)
def test_a_repeated_record_reads_as_the_reference_reads_it(bases, kind, tmp_path):
    """Both readers reject a file whose last record appears twice, with the
    same error; the edited examples below reach this case only by chance."""
    text, twin = bases[kind]
    path = tmp_path / "file.csv"
    path.write_bytes(text + text.rstrip(b"\n").rpartition(b"\n")[2] + b"\n")
    if twin is not None:  # stale, so both readers parse the text
        Path(f"{path}.npy").write_bytes(twin)
    new, old = (outcome(read, path) for read in readers(kind))
    assert new[0] != "ok" and new == old


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_edited_files_read_as_the_reference_reads_them(bases, kind, data):
    text, twin = bases[kind]
    blob = data.draw(edited(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.csv"
        path.write_bytes(blob)
        if twin is not None:  # stale once the text is edited, so both readers parse the text
            Path(f"{path}.npy").write_bytes(twin)
        new, old = (outcome(read, path) for read in readers(kind))
        assert new == old or intended(path, kind, old, new), (old, new)
