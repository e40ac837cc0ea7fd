"""Byte-level fuzzing of the CSV files the commands read.

Hypothesis mutates the bytes of a small dataset, prediction and truth CSV
and runs ``train``, ``predict``, ``ensemble`` and ``eval`` on them through
``cli.main``. Each command must end with a documented exit code and, when it
fails, with one ``error:`` line and no traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordchange.cli import main

GEN_CFG = "task=t2\nn_patients=4\nvisits_min=2\nvisits_max=2\nbscans_min=2\nbscans_max=3\nfeature_dim=3\nseed=5\n"
TRAIN_CFG = "task=t2\nloss=combined\nencoder_dims=3,4\nhead_dims=4,3\nepochs=1\nbatch_size=8\nseed=1\n"
EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}
# Bytes that CSV parsing, number parsing and UTF-8 decoding treat specially.
SPECIAL = b',"\n\r .-+0123456789eEnaif_\x00\xc3\xff'
SNIPPETS = [b'"', b",", b"\n", b"\r\n", b'""', b"nan", b"inf", b"-1", b"1e999", b"9" * 20, b"\xc3\xa9", b" "]


@st.composite
def mutations(draw, base: bytes) -> bytes:
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "truncate", "repeat line"]))
        if kind == "replace" and at < len(data):
            data[at] = draw(st.sampled_from(SPECIAL))
        elif kind == "insert":
            data[at:at] = draw(st.sampled_from(SNIPPETS) | st.binary(min_size=1, max_size=3))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 12))]
        elif kind == "truncate":
            del data[at:]
        else:
            start = data.rfind(b"\n", 0, at) + 1
            end = data.find(b"\n", at) + 1 or len(data)
            data[end:end] = data[start:end]
    return bytes(data)


@pytest.fixture(scope="module")
def files() -> dict[str, bytes]:
    """The bytes of a dataset, truth and prediction CSV (twice, as p.csv and
    q.csv), and of the config and checkpoint that made them."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        (root / "gen.cfg").write_text(GEN_CFG)
        (root / "train.cfg").write_text(TRAIN_CFG)
        assert main(["gen", "--config", str(root / "gen.cfg"), "--out", str(root)]) == 0
        dataset = str(root / "dataset.csv")
        assert main(["train", "--config", str(root / "train.cfg"), "--data", dataset, "--out", str(root / "m.ckpt")]) == 0
        assert main(["predict", "--ckpt", str(root / "m.ckpt"), "--data", dataset, "--out", str(root / "p.csv")]) == 0
        names = ("train.cfg", "dataset.csv", "truth.csv", "p.csv", "m.ckpt")
        files = {name: (root / name).read_bytes() for name in names}
    return {**files, "q.csv": files["p.csv"]}


def run(argv: list[str]) -> None:
    """Run one command and check how it ends."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in EXIT_CODES, (argv[0], code, lines)
    assert "Traceback" not in err.getvalue()
    errors = [line for line in lines if line.startswith("error: ")]
    assert len(errors) == (code != 0), (argv[0], code, lines)


def fuzz(files: dict[str, bytes], mutated: str, blob: bytes, commands) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in files.items():
            (root / name).write_bytes(blob if name == mutated else content)
        for argv in commands(root):
            run([str(part) for part in argv])


SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(data=st.data())
def test_mutated_dataset_ends_train_and_predict_cleanly(files, data):
    blob = data.draw(mutations(files["dataset.csv"]))
    fuzz(files, "dataset.csv", blob, lambda root: [
        ["train", "--config", root / "train.cfg", "--data", root / "dataset.csv", "--out", root / "new.ckpt"],
        ["predict", "--ckpt", root / "m.ckpt", "--data", root / "dataset.csv", "--out", root / "new.csv"],
    ])


@SETTINGS
@given(data=st.data())
def test_mutated_predictions_end_ensemble_and_eval_cleanly(files, data):
    blob = data.draw(mutations(files["p.csv"]))
    fuzz(files, "p.csv", blob, lambda root: [
        ["ensemble", root / "p.csv", root / "q.csv", "--mode", "unanimity", "--postprocess", "--out", root / "e.csv"],
        ["eval", "--pred", root / "p.csv", "--truth", root / "truth.csv", "--task", "t2", "--out", root / "r.csv"],
    ])


@SETTINGS
@given(data=st.data())
def test_mutated_truth_ends_eval_cleanly(files, data):
    blob = data.draw(mutations(files["truth.csv"]))
    fuzz(files, "truth.csv", blob, lambda root: [
        ["eval", "--pred", root / "p.csv", "--truth", root / "truth.csv", "--task", "t2", "--out", root / "r.csv"],
    ])
