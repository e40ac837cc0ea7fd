"""``cli._write_csv`` against ``csv.writer``, the writer it replaced: the same
bytes for any table of text columns and float rows, once each row's CR LF
line end is cut to LF. Text ids that hold commas, quotes, carriage returns
and line breaks read back as written, and writing them again gives the same
bytes. ``csv.writer`` is kept here as the oracle only. The same oracle checks
the split path, where a forked process formats the second half of the rows,
and the tests below it check what a failure on either side leaves behind."""

import contextlib
import csv
import io
import math
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

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


# --- the split path: a forked process formats the second half of the rows -------------------


@contextlib.contextmanager
def split_every_float_table(forks: list[int] | None = None):
    """Make ``_write_csv`` split any non-empty float matrix, as on a host with
    two usable CPUs, and append the pid of each process it forks to ``forks``."""
    real_fork = os.fork

    def fork() -> int:
        pid = real_fork()
        if pid and forks is not None:
            forks.append(pid)
        return pid

    with mock.patch.object(cli, "_SPLIT_VALUES", 1), mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}), \
            mock.patch.object(os, "fork", fork):
        yield


@st.composite
def split_tables(draw) -> tuple[list[str], list[list], np.ndarray]:
    """Tables of 1-7 rows (odd counts put the extra row in the second half)
    whose ids and floats are mostly the edge cases, on both sides of the split."""
    n_rows = draw(st.integers(1, 7))
    columns = [draw(st.lists(fields, min_size=n_rows, max_size=n_rows)) for _ in range(draw(st.integers(1, 3)))]
    width = draw(st.integers(1, 3))
    matrix = np.array(draw(st.lists(floats, min_size=n_rows * width, max_size=n_rows * width))).reshape(n_rows, width)
    return draw(st.lists(texts, min_size=len(columns) + width, max_size=len(columns) + width)), columns, matrix


EDGE_ROWS = np.array([[math.nan, math.inf], [-math.inf, -0.0], [5e-324, -5e-324], [0.1, 1e16], [-0.0, math.nan]])
EDGE_IDS = ["a,b", 'say "hi"', "x\ry", "\n", 'P,"0"']


@settings(max_examples=100, deadline=None)
@given(table=split_tables())
@example(table=(["id", "f0"], [[","]], np.array([[math.nan]])))  # one row: the parent writes only the header
@example(table=(["id", "f0", "f1"], [EDGE_IDS], EDGE_ROWS))  # five rows: two in the parent, three in the child
@example(table=(["id", "f0", "f1"], [EDGE_IDS[::-1][:4]], EDGE_ROWS[::-1][:4]))
def test_split_writer_matches_csv_writer(table):
    header, columns, matrix = table
    forks = []
    with tempfile.TemporaryDirectory() as tmp, split_every_float_table(forks):
        path = Path(tmp) / "table.csv"
        cli._write_csv(path, header, columns, matrix)
        assert path.read_bytes() == csv_writer_bytes(header, columns, matrix)
        assert len(forks) == 1 and os.listdir(tmp) == ["table.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("affinity", [lambda pid: {0}, None], ids=["one usable CPU", "no affinity call"])
def test_without_a_second_cpu_the_same_bytes_are_written_without_forking(tmp_path, monkeypatch, affinity):
    header, columns = ["id", "f0", "f1"], [EDGE_IDS]
    monkeypatch.setattr(cli, "_SPLIT_VALUES", 1)
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    if affinity is None:  # as on macOS, which has fork but not sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", affinity)
    cli._write_csv(tmp_path / "table.csv", header, columns, EDGE_ROWS)
    assert (tmp_path / "table.csv").read_bytes() == csv_writer_bytes(header, columns, EDGE_ROWS)


def test_a_small_table_is_written_by_one_process(tmp_path):
    rows = np.ones((cli._SPLIT_VALUES // 4 - 1, 4))
    with mock.patch.object(os, "fork", mock.Mock(side_effect=AssertionError("forked"))):
        cli._write_csv(tmp_path / "table.csv", ["id", "a", "b", "c", "d"], [range(len(rows))], rows)
    assert (tmp_path / "table.csv").read_bytes() == csv_writer_bytes(
        ["id", "a", "b", "c", "d"], [list(range(len(rows)))], rows
    )


GEN_CFG = "task=t2\nn_patients=3\nvisits_min=2\nvisits_max=2\nbscans_min=2\nbscans_max=3\nfeature_dim=3\nseed=4\n"


def gen_once(root: Path, capsys) -> tuple[Path, bytes]:
    """Run ``gen`` once into ``root/d``; return the dataset path and its bytes."""
    (root / "gen.cfg").write_text(GEN_CFG)
    assert cli.main(["gen", "--config", str(root / "gen.cfg"), "--out", str(root / "d")]) == 0
    capsys.readouterr()
    return root / "d" / "dataset.csv", (root / "d" / "dataset.csv").read_bytes()


def test_a_failed_child_exits_2_and_keeps_the_old_file(tmp_path, capsys):
    dataset, old = gen_once(tmp_path, capsys)
    parent, write_lines = os.getpid(), cli._write_lines

    def fail_in_child(fh, lines):
        if os.getpid() != parent:
            raise OSError("no space left for the second half")
        write_lines(fh, lines)

    (tmp_path / "gen.cfg").write_text(GEN_CFG.replace("seed=4", "seed=5"))
    with split_every_float_table(), mock.patch.object(cli, "_write_lines", fail_in_child):
        assert cli.main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {dataset}: the process that formats its second half exited 1\n"
    assert dataset.read_bytes() == old
    assert not list((tmp_path / "d").glob("*.tmp.*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_parent_that_fails_mid_half_kills_and_reaps_its_child(tmp_path, capsys):
    dataset, old = gen_once(tmp_path, capsys)
    parent, write_lines = os.getpid(), cli._write_lines

    def stall_child_fail_parent(fh, lines):
        if os.getpid() != parent:
            time.sleep(60)  # still running when the parent fails, unless killed
            write_lines(fh, lines)
        else:
            next(iter(lines))
            raise OSError("disk full")

    start = time.monotonic()
    with split_every_float_table(), mock.patch.object(cli, "_write_lines", stall_child_fail_parent):
        assert cli.main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 2
    assert time.monotonic() - start < 30
    assert capsys.readouterr().err == "error: disk full\n"
    assert dataset.read_bytes() == old and not list((tmp_path / "d").glob("*.tmp.*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
