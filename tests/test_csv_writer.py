"""``cli._write_csv`` against ``csv.writer``, the writer it replaced: the same
bytes for any table of text columns and float rows, once each row's CR LF
line end is cut to LF. Text ids that hold commas, quotes, carriage returns
and line breaks read back as written, and writing them again gives the same
bytes. ``csv.writer`` is kept here as the oracle only."""

import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordchange import cli
from ordchange.core import Dataset

EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 123456789.0,
)
# Text csv quotes, text it doubles a quote in, text it writes bare (leading or
# trailing spaces), and non-ASCII text.
EDGE_TEXT = ("", ",", '"', '""', "\n", "\r", "\r\n", "a,b", 'say "hi"', " lead", "trail ", "é", "日本", "x\ry", " ")

texts = st.one_of(st.sampled_from(EDGE_TEXT), st.text(max_size=6))
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
fields = st.one_of(texts, st.integers(-(2**70), 2**70), floats)


@st.composite
def tables(draw) -> tuple[list[str], list[list], np.ndarray | None]:
    n_rows = draw(st.integers(0, 5))
    columns = [draw(st.lists(fields, min_size=n_rows, max_size=n_rows)) for _ in range(draw(st.integers(1, 3)))]
    matrix = None
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        matrix = np.array(draw(st.lists(floats, min_size=n_rows * width, max_size=n_rows * width)))
        matrix = matrix.reshape(n_rows, width)
    width = len(columns) + (0 if matrix is None else matrix.shape[1])
    return draw(st.lists(texts, min_size=width, max_size=width)), columns, matrix


def csv_writer_bytes(header: list[str], columns: list[list], matrix: np.ndarray | None) -> bytes:
    rows = [list(row) for row in zip(*columns)]
    if matrix is not None:
        rows = [[*row, *floats] for row, floats in zip(rows, matrix.tolist())]
    # With CR LF line ends csv quotes a field holding "\r" as it quotes one holding "\n".
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r\n")
    lines = []
    for row in [header, *rows]:
        text.seek(0)
        text.truncate()
        writer.writerow(row)
        lines.append(text.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(table=tables())
@example(table=([""], [[""]], None))  # a row of one empty field is written ""
@example(table=(["a", "b"], [["x\ry", ""]], np.array([[-0.0], [5e-324]])))
@example(table=(["id", "f0", "f1"], [['P,"0"']], np.array([[math.nan, -math.inf]])))
def test_writer_matches_csv_writer(table):
    header, columns, matrix = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        cli._write_csv(path, header, columns, matrix)
        assert path.read_bytes() == csv_writer_bytes(header, columns, matrix)


# Ids made of the characters that csv quotes or doubles, next to plain ones.
ids = st.text(alphabet='ab,"é 1\r\n', min_size=1, max_size=6)


@st.composite
def t2_datasets(draw) -> Dataset:
    volumes = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    columns = {"patient_id": [], "visit_id": [], "volume_id": [], "bscan_index": [], "labels": []}
    for volume in volumes:
        patient, visit, label = draw(ids), draw(ids), draw(st.integers(0, 2))
        for b in draw(st.lists(st.integers(0, 30), min_size=1, max_size=3, unique=True)):
            for name, value in zip(columns, (patient, visit, volume, b, label)):
                columns[name].append(value)
    n = len(columns["labels"])
    x = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2 * n, max_size=2 * n)))
    return Dataset(x=x.reshape(n, 2), **columns)


@settings(max_examples=60, deadline=None)
@given(data=t2_datasets())
def test_text_ids_with_commas_and_quotes_round_trip(data):
    check_round_trip(data)


@pytest.mark.parametrize("text", ["a\rb", "\r", "\r\r", "a\r\nb", "a\n\nb", 'q"\n\n"w', "\n\r\n\n"])
def test_ids_holding_carriage_returns_and_blank_lines_round_trip(text):
    """A quoted field that holds a bare CR or an empty line is text, not a row
    break or a blank line, in both the dataset and the prediction CSV."""
    n = 3
    check_round_trip(Dataset(
        x=np.arange(2.0 * n).reshape(n, 2), labels=[1, 1, 2], patient_id=[text, "P1", text],
        visit_id=["V0", text, "V1"], volume_id=[text, text, "v"], bscan_index=[0, 1, 0],
    ))


def check_round_trip(data: Dataset) -> None:
    """Write ``data`` as a dataset CSV and its rows as a prediction CSV, read
    each back, and write it again: the columns and the bytes must hold."""
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp) / "dataset.csv", Path(tmp) / "again.csv"
        cli.write_dataset_csv(first, data)
        _, read, case_ids = cli.read_dataset_csv(first)
        for name in ("patient_id", "visit_id", "volume_id", "bscan_index", "labels"):
            assert getattr(read, name).tolist() == getattr(data, name).tolist(), name
        assert read.x.tobytes() == data.x.tobytes()
        assert case_ids == [f"{v}/{b}" for v, b in zip(data.volume_id.tolist(), data.bscan_index.tolist())]
        cli.write_dataset_csv(again, read)
        assert again.read_bytes() == first.read_bytes()

        n = len(data)
        probs = np.tile([0.25, 0.5, 0.25], (n, 1))
        table = cli.Predictions(
            case_ids, read.patient_id, read.volume_id, read.bscan_index.astype(str), true_label=read.labels,
            probs=probs, pred_label=np.ones(n), final_label=read.labels, postprocessed=np.ones(n),
        )
        cli.write_predictions_csv(first, table)
        pred = cli.read_predictions_csv(first)
        for name in ("case_id", "patient_id", "volume_id", "bscan_index", "true_label", "probs", "pred_label",
                     "final_label", "postprocessed"):
            assert getattr(pred, name).tolist() == getattr(table, name).tolist(), name
        cli.write_predictions_csv(again, pred)
        assert again.read_bytes() == first.read_bytes()
