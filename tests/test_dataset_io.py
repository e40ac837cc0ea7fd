"""Dataset CSV input and output: the columnar reader against the per-row
oracle in ``reference_dataset``, golden digests of ``gen``'s files, and the
binary twin ``dataset.csv.npy`` against the text it stands in for."""

import contextlib
import csv
import hashlib
import shutil
import tempfile
import zlib
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import reference_dataset as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_fuzz import SPECIAL
from test_csv_writer import split_every_float_table

import ordchange.cli as cli
from ordchange.cli import main, read_dataset_csv, write_dataset_csv
from ordchange.core import Dataset

# Signed zeros, subnormals, the smallest normal and values near the float64
# maximum, next to ordinary finite floats.
EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
)
SPELLINGS = (repr, lambda v: f"{v:.17e}", lambda v: f"{v:.17g}", lambda v: repr(v).upper())

feature_text = st.tuples(
    st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)),
    st.sampled_from(SPELLINGS),
).map(lambda pair: pair[1](pair[0]))


@st.composite
def t2_csv(draw) -> list[list[str]]:
    dim = draw(st.integers(1, 4))
    rows = [["case_id", "patient_id", "visit_id", "volume_id", "bscan_index", "label"]]
    rows[0] += [f"f{i}" for i in range(dim)]
    for v in range(draw(st.integers(1, 4))):
        patient = draw(st.sampled_from(["P000", "P001", "P002"]))
        label = str(draw(st.integers(0, 2)))
        volume = f"{patient}_V{v:02d}"
        for b in draw(st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True)):
            feats = draw(st.lists(feature_text, min_size=dim, max_size=dim))
            rows.append([f"{volume}/{b}", patient, f"V{v:02d}", volume, str(b), label, *feats])
    return rows


@st.composite
def t1_csv(draw) -> list[list[str]]:
    dim = draw(st.integers(1, 3))
    rows = [["case_id", "patient_id", "label"] + [f"a{i}" for i in range(dim)] + [f"b{i}" for i in range(dim)]]
    for i in range(draw(st.integers(1, 6))):
        feats = draw(st.lists(feature_text, min_size=2 * dim, max_size=2 * dim))
        rows.append([f"pair{i:06d}", draw(st.sampled_from(["P000", "P001"])), str(draw(st.integers(0, 3))), *feats])
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=st.one_of(t2_csv(), t1_csv()))
def test_columnar_reader_matches_per_row_oracle(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        task, data, case_ids = read_dataset_csv(path)
        ref_task, columns, ref_case_ids = ref.read_columns(path)
    assert task.value == ref_task
    assert case_ids == ref_case_ids
    assert len(data) == len(rows) - 1
    for name, expected in columns.items():
        got = getattr(data, name)
        if isinstance(expected, np.ndarray):
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name  # bit-identical, -0.0 included
        else:
            assert got.tolist() == expected, name
    unused = {"t1": ("visit_id", "volume_id", "bscan_index"), "t2": ("x_b",)}[ref_task]
    assert all(getattr(data, name) is None for name in unused)


# sha256 of dataset.csv and truth.csv, taken from the per-row generator and
# writer that the columnar ones replaced, and of the binary twin dataset.csv.npy.
GOLDEN = {
    "t2": (
        "task=t2\nn_patients=5\nvisits_min=2\nvisits_max=3\nbscans_min=2\nbscans_max=4\n"
        "feature_dim=4\nclass_ratios=0.3,0.4,0.3\nseed=7\n",
        "96d1a9e1540c3a1fbfc7ad2dbacf567225f6c129339a9ac5f4c19a0ff4ab123a",
        "2d7ac35871e15ae47617bedf59e17a982dee66edf12449654154cd61d01c5664",
        "56fad5c38b763d077385c998eafdf825c640d2f05e4cbb255cc90a9dced14199",
    ),
    "t1": (
        "task=t1\nn_patients=6\nvisits_min=3\nvisits_max=5\nfeature_dim=3\n"
        "class_ratios=0.3,0.4,0.3\nother_rate=0.25\nseed=7\n",
        "56350fa7774929844d9b8d4760b5fcb9f01618d403915a208ab6fd7ecd635443",
        "e170da0dbf2b2c61950d08a5785c94e64c9a058d31be3f39f64e77d24af53dd7",
        "4e84e024e14a2c31e31066b003494318da52b5b4f3bce44e59f30ed218d0ee90",
    ),
}


@pytest.mark.parametrize("task", sorted(GOLDEN))
def test_gen_output_matches_golden_digest(task, tmp_path):
    config, dataset_sha, truth_sha, twin_sha = GOLDEN[task]
    (tmp_path / "gen.cfg").write_text(config)
    assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 0
    dataset = (tmp_path / "d" / "dataset.csv").read_bytes()
    assert hashlib.sha256(dataset).hexdigest() == dataset_sha
    assert hashlib.sha256((tmp_path / "d" / "truth.csv").read_bytes()).hexdigest() == truth_sha
    assert hashlib.sha256((tmp_path / "d" / "dataset.csv.npy").read_bytes()).hexdigest() == twin_sha
    # Reading the file and writing it back reproduces it byte for byte.
    _, data, _ = read_dataset_csv(tmp_path / "d" / "dataset.csv")
    write_dataset_csv(tmp_path / "again.csv", data)
    assert (tmp_path / "again.csv").read_bytes() == dataset


@pytest.mark.parametrize("task", sorted(GOLDEN))
def test_gen_output_split_across_two_processes_matches_golden_digest(task, tmp_path):
    """With the split size patched down, a forked process formats the second
    half of these small datasets; the files keep their golden bytes."""
    config, dataset_sha, truth_sha, twin_sha = GOLDEN[task]
    (tmp_path / "gen.cfg").write_text(config)
    forks = []
    with split_every_float_table(forks), contextlib.redirect_stdout(None):
        assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 0
    assert len(forks) == 1  # dataset.csv; truth.csv holds no floats
    assert hashlib.sha256((tmp_path / "d" / "dataset.csv").read_bytes()).hexdigest() == dataset_sha
    assert hashlib.sha256((tmp_path / "d" / "truth.csv").read_bytes()).hexdigest() == truth_sha
    assert hashlib.sha256((tmp_path / "d" / "dataset.csv.npy").read_bytes()).hexdigest() == twin_sha


def test_spaces_around_quotes_split_as_the_csv_module_splits_them(tmp_path):
    # numpy's parser, which reads the rows, and the csv module agree: a quote
    # opens a quoted field only as the field's first character, so ' "P,0"'
    # is the two fields ' "P' and '0"'.
    spellings = ["a ", ' "b"', ' "q""r"', ' ""', '"b,x"', ' "b"x', 'a "b" c', '" b,x"', "é ", " \"b'\""]
    lines = [f"c{i},{s},{spellings[-1 - i]},V{i},{i},1,0.5" for i, s in enumerate(spellings)]
    lines.append('c10, "P,0",V10,10,1,0.5')
    path = tmp_path / "dataset.csv"
    path.write_text("\n".join(["case_id,patient_id,visit_id,volume_id,bscan_index,label,f0", *lines]) + "\n")
    _, data, case_ids = read_dataset_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(len(row) == 7 for row in rows)
    assert case_ids == [row[0] for row in rows]
    for j, name in enumerate(("patient_id", "visit_id", "volume_id"), start=1):
        assert getattr(data, name).tolist() == [row[j] for row in rows], name


# --- the binary twin ------------------------------------------------------------


def read(path: Path) -> tuple[tuple, bool]:
    """``read_dataset_csv(path)`` and whether it parsed the CSV's text."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    with mock.patch.object(np, "loadtxt", counted):
        result = read_dataset_csv(path)
    return result, bool(calls)


def read_text(path: Path) -> tuple:
    """``read_dataset_csv`` of a copy of the CSV alone, which has no twin."""
    alone = path.with_name("alone.csv")
    shutil.copyfile(path, alone)
    result, parsed = read(alone)
    assert parsed
    return result


def assert_same_read(got: tuple, expected: tuple) -> None:
    """The same task and case ids, and every Dataset column bit for bit."""
    (task, data, case_ids), (expected_task, expected_data, expected_case_ids) = got, expected
    assert task is expected_task
    assert case_ids == expected_case_ids
    for f in fields(Dataset):
        a, b = getattr(data, f.name), getattr(expected_data, f.name)
        if b is None:
            assert a is None, f.name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


def twin_records(path: Path) -> list[np.ndarray]:
    with open(f"{path}.npy", "rb") as fh:
        return [np.load(fh, allow_pickle=False) for _ in range(3)]


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def generated(request, tmp_path_factory) -> Path:
    """The directory ``gen`` wrote for one golden config."""
    root = tmp_path_factory.mktemp(request.param)
    (root / "gen.cfg").write_text(GOLDEN[request.param][0])
    with contextlib.redirect_stdout(None):
        assert main(["gen", "--config", str(root / "gen.cfg"), "--out", str(root / "d")]) == 0
    return root / "d"


@pytest.fixture
def dataset(generated, tmp_path) -> Path:
    """A fresh copy of the generated dataset CSV and its twin."""
    shutil.copytree(generated, tmp_path / "d")
    return tmp_path / "d" / "dataset.csv"


def test_twin_read_equals_text_read(dataset):
    got, parsed = read(dataset)
    assert not parsed
    assert_same_read(got, read_text(dataset))


# Ids of the characters the CSV fuzz puts into files: the ones csv quotes or
# doubles, line breaks, NUL and bytes that are not ASCII.
special_ids = st.text(alphabet=SPECIAL.decode("latin-1"), min_size=1, max_size=6)
features = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def special_datasets(draw) -> Dataset:
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        x = np.array(draw(st.lists(features, min_size=2 * n, max_size=2 * n))).reshape(2, n, 1)
        patients = draw(st.lists(special_ids, min_size=n, max_size=n))
        return Dataset(x=x[0], x_b=x[1], labels=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                       patient_id=patients)
    columns = {"patient_id": [], "visit_id": [], "volume_id": [], "bscan_index": [], "labels": []}
    for volume in draw(st.lists(special_ids, min_size=1, max_size=3, unique=True)):
        patient, visit, label = draw(special_ids), draw(special_ids), draw(st.integers(0, 2))
        for b in draw(st.lists(st.integers(0, 30), min_size=1, max_size=3, unique=True)):
            for name, value in zip(columns, (patient, visit, volume, b, label)):
                columns[name].append(value)
    n = len(columns["labels"])
    x = np.array(draw(st.lists(features, min_size=2 * n, max_size=2 * n)))
    return Dataset(x=x.reshape(n, 2), **columns)


@settings(max_examples=60, deadline=None)
@given(data=special_datasets())
def test_twin_of_ids_with_csv_special_characters_reads_as_the_text(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        write_dataset_csv(path, data)
        got, parsed = read(path)
        assert not parsed
        assert_same_read(got, read_text(path))


def test_missing_twin_falls_back(dataset):
    Path(f"{dataset}.npy").unlink()
    got, parsed = read(dataset)
    assert parsed
    assert_same_read(got, read_text(dataset))


def id_count(text: bytes) -> int:
    return 6 if text.startswith(b"case_id,patient_id,visit_id,") else 3


def edit_one_byte(text: bytes) -> bytes:
    """The leading digit of the last row's first feature, changed: the value
    changes and the length holds."""
    at = text.rindex(b"\n", 0, -1) + 1
    for _ in range(id_count(text)):
        at = text.index(b",", at) + 1
    at += text[at : at + 1] == b"-"
    return text[:at] + str((int(text[at : at + 1]) + 1) % 10).encode() + text[at + 1 :]


def append_row(text: bytes) -> bytes:
    """A copy of the first row with new ids appended."""
    n_ids, first = id_count(text), text.decode().split("\n")[1]
    ids = ["X_V00/0", "X", "V00", "X_V00", "0", "1"] if n_ids == 6 else ["pair999999", "X", "1"]
    return text + ",".join(ids + first.split(",")[n_ids:]).encode() + b"\n"


@pytest.mark.parametrize("edit", [edit_one_byte, append_row])
def test_stale_twin_falls_back(dataset, edit):
    _, text, floats = twin_records(dataset)
    dataset.write_bytes(edit(dataset.read_bytes()))
    got, parsed = read(dataset)
    assert parsed
    assert_same_read(got, read_text(dataset))
    # The edit shows: the twin's text and floats are not what was read.
    data, case_ids = got[1], got[2]
    assert (len(case_ids), np.hstack(data.inputs).tolist()) != (len(text), floats.tolist())


@pytest.mark.parametrize("keep", [0, 100, 152, 0.5, -1])
def test_truncated_twin_falls_back(dataset, keep):
    twin = Path(f"{dataset}.npy")
    blob = twin.read_bytes()
    twin.write_bytes(blob[: int(keep * len(blob)) if isinstance(keep, float) else keep])
    got, parsed = read(dataset)
    assert parsed
    assert_same_read(got, read_text(dataset))


# Each rewrites the twin's records with its key intact; only the first keeps
# a twin that may be read.
RECORDS = {
    "as saved": lambda key, text, floats: (key, text, floats),
    "a text column fewer": lambda key, text, floats: (key, text[:, :-1], floats),
    "a feature column fewer": lambda key, text, floats: (key, text, floats[:, :-1]),
    "a feature row fewer": lambda key, text, floats: (key, text, floats[:-1]),
    "a text row fewer": lambda key, text, floats: (key, text[1:], floats),
    "1-D features": lambda key, text, floats: (key, text, floats.ravel()),
    "float32 features": lambda key, text, floats: (key, text, floats.astype(np.float32)),
    "int text": lambda key, text, floats: (key, np.zeros(text.shape, np.int64), floats),
    "a record more": lambda key, text, floats: (key, text, floats, floats),
}


@pytest.mark.parametrize("change", sorted(RECORDS))
def test_ill_shaped_twin_falls_back(dataset, change):
    records = RECORDS[change](*twin_records(dataset))
    with open(f"{dataset}.npy", "wb") as fh:
        for record in records:
            np.save(fh, record)
    got, parsed = read(dataset)
    assert parsed == (change != "as saved")
    assert_same_read(got, read_text(dataset))


@pytest.mark.parametrize("size", [0, 2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 7])
def test_twin_key_is_the_crc_of_the_whole_file(tmp_path, size):
    blob = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    (tmp_path / "f.csv").write_bytes(blob)
    assert cli._twin_key(tmp_path / "f.csv") == [cli._TWIN_VERSION, size, zlib.crc32(blob)]
