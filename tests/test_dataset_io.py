"""Dataset CSV input and output: the columnar reader against the per-row
oracle in ``reference_dataset``, and golden digests of ``gen``'s files."""

import csv
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
import reference_dataset as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ordchange.cli import main, read_dataset_csv, write_dataset_csv

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
# writer that the columnar ones replaced.
GOLDEN = {
    "t2": (
        "task=t2\nn_patients=5\nvisits_min=2\nvisits_max=3\nbscans_min=2\nbscans_max=4\n"
        "feature_dim=4\nclass_ratios=0.3,0.4,0.3\nseed=7\n",
        "96d1a9e1540c3a1fbfc7ad2dbacf567225f6c129339a9ac5f4c19a0ff4ab123a",
        "2d7ac35871e15ae47617bedf59e17a982dee66edf12449654154cd61d01c5664",
    ),
    "t1": (
        "task=t1\nn_patients=6\nvisits_min=3\nvisits_max=5\nfeature_dim=3\n"
        "class_ratios=0.3,0.4,0.3\nother_rate=0.25\nseed=7\n",
        "56350fa7774929844d9b8d4760b5fcb9f01618d403915a208ab6fd7ecd635443",
        "e170da0dbf2b2c61950d08a5785c94e64c9a058d31be3f39f64e77d24af53dd7",
    ),
}


@pytest.mark.parametrize("task", sorted(GOLDEN))
def test_gen_output_matches_golden_digest(task, tmp_path):
    config, dataset_sha, truth_sha = GOLDEN[task]
    (tmp_path / "gen.cfg").write_text(config)
    assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 0
    dataset = (tmp_path / "d" / "dataset.csv").read_bytes()
    assert hashlib.sha256(dataset).hexdigest() == dataset_sha
    assert hashlib.sha256((tmp_path / "d" / "truth.csv").read_bytes()).hexdigest() == truth_sha
    # Reading the file and writing it back reproduces it byte for byte.
    _, data, _ = read_dataset_csv(tmp_path / "d" / "dataset.csv")
    write_dataset_csv(tmp_path / "again.csv", data)
    assert (tmp_path / "again.csv").read_bytes() == dataset


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
