"""Byte-level fuzzing of the files the commands read.

Hypothesis mutates the bytes of a small dataset, prediction and truth CSV,
of the ``gen`` and ``train`` config files and of a checkpoint, and runs
``gen``, ``train``, ``predict``, ``ensemble`` and ``eval`` on them through
``cli.main``. Each command must end with a documented exit code and, when it
fails, with one ``error:`` line and no traceback."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from checkpoint_bytes import seal
from ordchange.cli import GEN_SCHEMA, TRAIN_SCHEMA, _field_defaults, main, parse_kv_config
from ordchange.datagen import GenConfig
from ordchange.errors import ConfigError
from ordchange.model import TrainConfig

# Every key is set, so that the config fuzz can reach each one's value.
GEN_CFG = (
    "task=t2\nn_patients=4\nvisits_min=2\nvisits_max=2\nbscans_min=2\nbscans_max=3\nfeature_dim=3\n"
    "class_ratios=0.1,0.8,0.1\nstep_size=1.0\nnoise_sigma=0.5\npatient_sigma=1.0\nother_rate=0.1\nseed=5\n"
)
TRAIN_CFG = (
    "task=t2\nloss=combined\nalpha=1.0\ngamma=2.0\nfocal_weight=1.0\nemd_weight=1.0\nepsilon=1e-12\n"
    "encoder_dims=3,4\nhead_dims=4,3\ndropout=0.0\nepochs=1\nwarmup_epochs=0\nlr=0.001\nlr_decay=0.97\n"
    "batch_size=8\nseed=1\nbalanced_batches=false\nundersample_majority=0.0\noptimizer=adam\nbeta1=0.9\n"
    "beta2=0.999\nadam_eps=1e-08\nweight_decay=0.0\nearly_stop_patience=0\nfreeze_head_epochs=0\n"
    "val_ratio=0.2\nfolds=0\n"
)
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


# Values of every type a key takes, at and around the edges of their ranges.
VALUES = st.sampled_from([
    b"0", b"1", b"2", b"3", b"-1", b"0.0", b"-0.0", b"0.5", b"1.0", b"1e-3", b"1e-300", b"1e300", b"0,0",
    b"1,0", b"0,1", b"3,3", b"3,4,3", b"2,2,4", b"0.5,0.5,0", b"t1", b"t2", b"true", b"false", b"sgd", b"adam",
    b"ce", b"emd", b"focal", b"combined",
]) | st.integers(-3, 70).map(lambda n: str(n).encode())


@st.composite
def config_mutations(draw, base: bytes) -> bytes:
    """Byte mutations of a whole config file, or of the values of 1-3 of its
    lines (some by other values that parse), so that many examples reach the
    dataclass checks."""
    if draw(st.booleans()):
        return draw(mutations(base))
    lines = base.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        key, _, value = lines[i].partition(b"=")
        value = draw(mutations(value) | VALUES.map(lambda v: v + b"\n"))
        lines[i] = key + b"=" + value
    return b"".join(lines)


def test_the_fuzzed_configs_set_every_key():
    for text, schema in ((GEN_CFG, GEN_SCHEMA), (TRAIN_CFG, TRAIN_SCHEMA)):
        assert set(parse_kv_config(text, schema, "cfg")) == set(schema)


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
        names = ("gen.cfg", "train.cfg", "dataset.csv", "truth.csv", "p.csv", "m.ckpt")
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


# A mutated config may ask for any amount of work, such as a million patients
# or a layer a billion units wide. Examples whose parsed settings exceed these
# caps are rejected before they run: a gen of at most 20,000 features (patients
# x most visits x most B-scans x feature width), and train runs of at most 60
# epochs on the fixed 20-row dataset, through at most 6 widths of at most 64.
MAX_GEN_FEATURES = 20_000
MAX_EPOCHS = 60
MAX_WIDTHS = 6
MAX_WIDTH = 64


def settings_of(blob: bytes, cls, schema) -> dict | None:
    """The dataclass's field defaults updated by the keys the file sets, or
    None when the file does not parse (the command then fails before any
    work)."""
    try:
        return {**_field_defaults(cls), **parse_kv_config(blob.decode("utf-8"), schema, "cfg")}
    except (UnicodeDecodeError, ConfigError):
        return None


def small_gen(blob: bytes) -> bool:
    cfg = settings_of(blob, GenConfig, GEN_SCHEMA)
    return cfg is None or math.prod(max(0, cfg[key]) for key in (
        "n_patients", "visits_max", "bscans_max", "feature_dim")) <= MAX_GEN_FEATURES


def small_train(blob: bytes) -> bool:
    cfg = settings_of(blob, TrainConfig, TRAIN_SCHEMA)
    widths = () if cfg is None else (*cfg["encoder_dims"], *cfg["head_dims"])
    return cfg is None or (cfg["epochs"] <= MAX_EPOCHS and len(widths) <= MAX_WIDTHS and max(widths) <= MAX_WIDTH)


@SETTINGS
@given(data=st.data())
def test_mutated_gen_config_ends_gen_cleanly(files, data):
    blob = data.draw(config_mutations(files["gen.cfg"]))
    assume(small_gen(blob))
    fuzz(files, "gen.cfg", blob, lambda root: [["gen", "--config", root / "gen.cfg", "--out", root / "d"]])


@SETTINGS
@given(data=st.data())
def test_mutated_train_config_ends_train_cleanly(files, data):
    blob = data.draw(config_mutations(files["train.cfg"]))
    assume(small_train(blob))
    fuzz(files, "train.cfg", blob, lambda root: [
        ["train", "--config", root / "train.cfg", "--data", root / "dataset.csv", "--out", root / "new.ckpt"],
    ])


@SETTINGS
@given(data=st.data(), reseal=st.booleans())
def test_mutated_checkpoint_ends_predict_cleanly(files, data, reseal):
    """Half of the mutated checkpoints get a checksum that holds, so that the
    checks behind the checksum run on them."""
    blob = data.draw(mutations(files["m.ckpt"]))
    fuzz(files, "m.ckpt", seal(blob[:-4]) if reseal else blob, lambda root: [
        ["predict", "--ckpt", root / "m.ckpt", "--data", root / "dataset.csv", "--out", root / "new.csv"],
    ])
