import argparse
import json
import os
import struct
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import ordchange
import ordchange.cli as cli
from checkpoint_bytes import seal, zero_checkpoint
import ordchange.model as model_mod
from ordchange.cli import (
    GEN_SCHEMA,
    TRAIN_SCHEMA,
    Predictions,
    main,
    parse_kv_config,
    read_predictions_csv,
    read_truth_csv,
    write_predictions_csv,
)
from ordchange.core import Task
from ordchange.datagen import GenConfig
from ordchange.errors import ConfigError
from ordchange.losses import LossConfig
from ordchange.model import CHECKPOINT_MAGIC, OptimizerConfig, TrainConfig, init_params, save_checkpoint

GEN_CFG = """\
# tiny but non-trivial dataset
task=t2
n_patients=8
visits_min=2
visits_max=2
bscans_min=3
bscans_max=3
feature_dim=5
class_ratios=0.25,0.5,0.25
step_size=2.0
noise_sigma=0.3
patient_sigma=0.5
seed=11
"""

TRAIN_CFG = """\
task=t2
loss=combined
encoder_dims=5,8
head_dims=8,3
epochs=3
lr=0.01
batch_size=16
seed=1
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """One gen -> train -> predict pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "gen.cfg").write_text(GEN_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    assert main(["gen", "--config", str(root / "gen.cfg"), "--out", str(root / "data")]) == 0
    assert (
        main(
            [
                "train",
                "--config", str(root / "train.cfg"),
                "--data", str(root / "data" / "dataset.csv"),
                "--out", str(root / "model.ckpt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "predict",
                "--ckpt", str(root / "model.ckpt"),
                "--data", str(root / "data" / "dataset.csv"),
                "--out", str(root / "preds.csv"),
            ]
        )
        == 0
    )
    return root


class TestParseConfig:
    def test_comments_blanks_and_types(self):
        text = "# header\n\nn_patients = 5\nclass_ratios=0.1,0.8,0.1\n"
        values = parse_kv_config(text, GEN_SCHEMA, "x.cfg")
        assert values == {"n_patients": 5, "class_ratios": (0.1, 0.8, 0.1)}
        assert parse_kv_config("balanced_batches=true\n", TRAIN_SCHEMA, "y")["balanced_batches"] is True

    def test_unknown_key_names_source_and_line(self):
        with pytest.raises(ConfigError, match=r"cfg\.txt:3: unknown config key 'bogus'"):
            parse_kv_config("# c\nseed=1\nbogus=2\n", GEN_SCHEMA, "cfg.txt")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=r"cfg:2: duplicate config key 'seed'"):
            parse_kv_config("seed=1\nseed=2\n", GEN_SCHEMA, "cfg")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match=r"cfg:1: bad value for 'n_patients'"):
            parse_kv_config("n_patients=lots\n", GEN_SCHEMA, "cfg")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r"cfg:1: expected key=value"):
            parse_kv_config("just words\n", GEN_SCHEMA, "cfg")

    def test_key_sets(self):
        assert set(GEN_SCHEMA) == {
            "task", "n_patients", "visits_min", "visits_max", "bscans_min", "bscans_max", "feature_dim",
            "class_ratios", "step_size", "noise_sigma", "patient_sigma", "other_rate", "seed",
        }
        assert set(TRAIN_SCHEMA) == {
            "task", "loss", "alpha", "gamma", "focal_weight", "emd_weight", "epsilon", "encoder_dims",
            "head_dims", "dropout", "epochs", "warmup_epochs", "lr", "lr_decay", "batch_size", "seed",
            "balanced_batches", "undersample_majority", "optimizer", "beta1", "beta2", "adam_eps",
            "weight_decay", "early_stop_patience", "freeze_head_epochs", "val_ratio", "folds",
        }

    @pytest.mark.parametrize(
        "schema, key",
        [
            ("train", "loss_kind"),
            ("train", "kind"),
            ("train", "eps"),
            ("gen", "visits_per_patient"),
            ("gen", "bscans_per_volume"),
            ("gen", "ordinal_direction"),
        ],
    )
    def test_field_names_that_are_not_keys_are_unknown(self, schema, key):
        with pytest.raises(ConfigError, match=rf"cfg:1: unknown config key '{key}'"):
            parse_kv_config(f"{key}=1\n", GEN_SCHEMA if schema == "gen" else TRAIN_SCHEMA, "cfg")


# Every config key with the value a command uses when neither its config file
# nor its command line sets it, as taken before the keys became fields.
DEFAULTS = {
    GenConfig: {
        "task": Task.T2, "n_patients": 60, "visits_min": 3, "visits_max": 5, "bscans_min": 6, "bscans_max": 10,
        "feature_dim": 16, "class_ratios": (0.1, 0.8, 0.1), "step_size": 1.0, "noise_sigma": 0.5,
        "patient_sigma": 1.0, "other_rate": 0.1, "seed": 0,
    },
    TrainConfig: {
        "task": Task.T2, "loss": "combined", "alpha": 1.0, "gamma": 2.0, "focal_weight": 1.0, "emd_weight": 1.0,
        "epsilon": 1e-12, "encoder_dims": (16, 32), "head_dims": (32, 3), "dropout": 0.0, "epochs": 30,
        "warmup_epochs": 0, "lr": 0.001, "lr_decay": 0.97, "batch_size": 32, "seed": 0,
        "balanced_batches": False, "undersample_majority": 0.0, "optimizer": "adam", "beta1": 0.9,
        "beta2": 0.999, "adam_eps": 1e-08, "weight_decay": 0.0, "early_stop_patience": 0,
        "freeze_head_epochs": 0, "val_ratio": 0.2, "folds": 0,
    },
}


def key_values(cfg, nested: list) -> dict:
    """The value of each field of ``cfg`` by config key name, fields of the
    configs it nests included; each nested config's type goes to ``nested``."""
    key_of = {name: key for key, name in cli._FIELD_OF_KEY.items()}
    values = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            nested.append(type(value))
            values.update(key_values(value, nested))
        else:
            values[key_of.get(f.name, f.name)] = value
    return values


class TestConfigKeys:
    """Each config key is the field of its name (or of the name that
    ``cli._FIELD_OF_KEY`` gives it) in one of the four config dataclasses,
    and the field's default is the key's default."""

    @pytest.mark.parametrize("cls, schema", [(GenConfig, GEN_SCHEMA), (TrainConfig, TRAIN_SCHEMA)])
    def test_every_field_is_a_key_with_its_old_default(self, cls, schema):
        nested = []
        values = key_values(cli._build_config(cls, {}, argparse.Namespace()), nested)
        assert nested == ([] if cls is GenConfig else [LossConfig, OptimizerConfig])
        assert set(values) == set(schema) == set(DEFAULTS[cls])
        for key, default in DEFAULTS[cls].items():
            assert values[key] == default and type(values[key]) is type(default), key

    @pytest.mark.parametrize("cls, schema", [(GenConfig, GEN_SCHEMA), (TrainConfig, TRAIN_SCHEMA)])
    def test_each_key_parses_the_text_of_its_default(self, cls, schema):
        for key, default in DEFAULTS[cls].items():
            if isinstance(default, tuple):
                text = ",".join(map(str, default))
            else:
                text = default.value if isinstance(default, Task) else str(default)
            assert parse_kv_config(f"{key}={text}\n", schema, "cfg") == {key: default}, key

    @pytest.mark.parametrize("default", [None, b"raw", [1, 2]], ids=["none", "bytes", "list"])
    def test_a_default_with_no_parser_is_refused(self, default):
        with pytest.raises(TypeError, match="no config parser for the default"):
            cli._parser(default)

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_bad_task_names_its_file_and_line_exit_3(self, workdir, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task=t3\n")
        if command == "gen":
            argv = ["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]
        else:
            argv = ["train", "--config", str(cfg), "--data", str(workdir / "data" / "dataset.csv"),
                    "--out", str(tmp_path / "m.ckpt")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {cfg}:1: bad value for 'task': 't3' is not a valid Task\n"
        assert not (tmp_path / "d").exists() and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"folds": 1}, "folds must be 0 (single split) or >= 2, got 1"),
            ({"folds": -2}, "folds must be 0 (single split) or >= 2, got -2"),
            ({"val_ratio": 1.0}, "val_ratio must lie in (0, 1), got 1.0"),
            ({"val_ratio": 0.0}, "val_ratio must lie in (0, 1), got 0.0"),
        ],
    )
    def test_split_settings_are_checked_by_train_config(self, workdir, tmp_path, capsys, kwargs, message):
        with pytest.raises(ConfigError) as caught:
            TrainConfig(**kwargs)
        assert str(caught.value) == message
        cfg = tmp_path / "x.cfg"
        cfg.write_text(TRAIN_CFG + "".join(f"{key}={value}\n" for key, value in kwargs.items()))
        argv = ["train", "--config", str(cfg), "--data", str(workdir / "data" / "dataset.csv")]
        assert main([*argv, "--out", str(tmp_path / "m.ckpt")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("m.*"))


class TestNegativeSeed:
    """A negative seed, in a config file or on the command line, ends the
    command with exit 3 and one line before any work starts."""

    @pytest.mark.parametrize(
        "command, where",
        [("gen", "config"), ("gen", "flag"), ("train", "config"), ("train", "flag"), ("gradcheck", "flag")],
    )
    def test_negative_seed_exit_3(self, workdir, tmp_path, capsys, command, where):
        base = {"gen": GEN_CFG, "train": TRAIN_CFG, "gradcheck": ""}[command]
        kept = [line for line in base.splitlines() if not line.startswith("seed=")]
        cfg = tmp_path / "x.cfg"
        cfg.write_text("\n".join(kept + (["seed=-1"] if where == "config" else [])) + "\n")
        argv = {
            "gen": ["gen", "--config", str(cfg), "--out", str(tmp_path / "d")],
            "train": ["train", "--config", str(cfg), "--data", str(workdir / "data" / "dataset.csv"),
                      "--out", str(tmp_path / "m.ckpt")],
            "gradcheck": ["gradcheck", "--trials", "1"],
        }[command]
        assert main(argv + (["--seed", "-1"] if where == "flag" else [])) == 3
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "d").exists() and not (tmp_path / "m.ckpt").exists()


class TestGen:
    def test_outputs_and_summary(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_CFG)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "stable=" in out
        for name in ("dataset.csv", "truth.csv", "manifest.json"):
            assert (tmp_path / "d" / name).exists()
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 11
        assert manifest["duration_seconds"] >= 0
        assert str(tmp_path / "d" / "dataset.csv") in manifest["outputs"]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_CFG)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "dataset.csv").read_bytes() == (tmp_path / "b" / "dataset.csv").read_bytes()
        assert (tmp_path / "a" / "truth.csv").read_bytes() == (tmp_path / "b" / "truth.csv").read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_CFG)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["gen", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "dataset.csv").read_bytes() != (tmp_path / "b" / "dataset.csv").read_bytes()

    def test_bad_ratios_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("task=t2\nclass_ratios=0.5,0.4,0.2\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 3
        assert "class_ratios" in capsys.readouterr().err

    def test_unknown_key_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("task=t2\nn_patient=5\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 3
        assert ":2:" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "d")]) == 2


class TestTrain:
    def test_artifacts_exist(self, workdir):
        assert (workdir / "model.ckpt").exists()
        assert (workdir / "model.ckpt.history.csv").exists()
        manifest = json.loads((workdir / "model.ckpt.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert str(workdir / "model.ckpt") in manifest["outputs"]

    def test_history_has_one_row_per_epoch(self, workdir):
        lines = (workdir / "model.ckpt.history.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,train_loss,lr,micro_f1,")
        assert len(lines) == 1 + 3

    def test_rerun_is_byte_identical(self, workdir, tmp_path, capsys):
        assert (
            main(
                [
                    "train",
                    "--config", str(workdir / "train.cfg"),
                    "--data", str(workdir / "data" / "dataset.csv"),
                    "--out", str(tmp_path / "again.ckpt"),
                ]
            )
            == 0
        )
        assert "fold 0: best val average" in capsys.readouterr().out
        assert (tmp_path / "again.ckpt").read_bytes() == (workdir / "model.ckpt").read_bytes()
        assert (
            (tmp_path / "again.ckpt.history.csv").read_bytes()
            == (workdir / "model.ckpt.history.csv").read_bytes()
        )

    def test_loss_override_changes_model(self, workdir, tmp_path):
        assert (
            main(
                [
                    "train",
                    "--config", str(workdir / "train.cfg"),
                    "--data", str(workdir / "data" / "dataset.csv"),
                    "--loss", "ce",
                    "--out", str(tmp_path / "ce.ckpt"),
                ]
            )
            == 0
        )
        assert (tmp_path / "ce.ckpt").read_bytes() != (workdir / "model.ckpt").read_bytes()

    def test_three_folds_write_three_checkpoints(self, workdir, tmp_path, capsys):
        assert (
            main(
                [
                    "train",
                    "--config", str(workdir / "train.cfg"),
                    "--data", str(workdir / "data" / "dataset.csv"),
                    "--folds", "3",
                    "--out", str(tmp_path / "cv.ckpt"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for i in range(3):
            assert (tmp_path / f"cv.fold{i}.ckpt").exists()
            assert (tmp_path / f"cv.fold{i}.ckpt.history.csv").exists()
            assert f"fold {i}: best val average" in out
        assert not (tmp_path / "cv.ckpt").exists()

    def test_emd_on_t1_exit_3(self, tmp_path, capsys):
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text("task=t1\nn_patients=6\nfeature_dim=4\nseed=0\n")
        assert main(["gen", "--config", str(gen_cfg), "--out", str(tmp_path / "d")]) == 0
        rc = main(
            [
                "train",
                "--data", str(tmp_path / "d" / "dataset.csv"),
                "--task", "t1",
                "--loss", "emd",
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        assert rc == 3
        assert "t1" in capsys.readouterr().err

    def test_siamese_head_without_encoder_layers_exit_3(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "gen.cfg").write_text("task=t1\nn_patients=6\nfeature_dim=8\nseed=0\n")
        (tmp_path / "train.cfg").write_text("task=t1\nloss=focal\nencoder_dims=8\nhead_dims=16,4\nepochs=1\n")
        assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 0
        steps = []
        monkeypatch.setattr(model_mod, "forward", lambda *args, **kwargs: steps.append(args))
        capsys.readouterr()
        argv = ["train", "--config", str(tmp_path / "train.cfg"), "--data", str(tmp_path / "d" / "dataset.csv")]
        assert main([*argv, "--out", str(tmp_path / "m.ckpt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: head input 16 must equal the encoder output 8") and err.count("\n") == 1
        assert steps == [] and not list(tmp_path.glob("m.*"))

    @pytest.mark.parametrize(
        "settings, epoch",
        [
            ("lr_decay=1e-300\nepochs=3", 2),  # decays to 0.0 at the last epoch
            ("lr=5e-324\nwarmup_epochs=2", 0),  # the first ramp step, lr / 2, is 0.0
            ("lr=1e308\nwarmup_epochs=2", 1),  # lr * 2 overflows before the division
        ],
    )
    def test_schedule_out_of_range_exit_3_before_any_step(
        self, workdir, tmp_path, capsys, monkeypatch, settings, epoch
    ):
        keys = {line.split("=")[0] for line in settings.splitlines()}
        kept = [line for line in TRAIN_CFG.splitlines() if line.split("=")[0] not in keys]  # epochs=3
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(kept + [settings]) + "\n")
        steps = []
        monkeypatch.setattr(model_mod, "forward", lambda *args, **kwargs: steps.append(args))
        argv = ["train", "--config", str(cfg), "--data", str(workdir / "data" / "dataset.csv")]
        assert main([*argv, "--out", str(tmp_path / "m.ckpt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(f"{key}=" in err for key in ("lr", "lr_decay", "warmup_epochs", "epochs"))
        assert f"epoch {epoch} a learning rate of " in err
        assert steps == [] and not list(tmp_path.glob("m.*"))

    @pytest.mark.parametrize(
        "task, feature_dim, train_cfg, head",
        [("t1", 16, "epochs=2\nloss=focal\n", (64, 4)), ("t2", 64, "encoder_dims=64,16\nepochs=2\n", (16, 3))],
        ids=["t1_default_encoder", "t2_set_encoder"],
    )
    def test_default_head_reads_the_encoder_output(self, tmp_path, capsys, task, feature_dim, train_cfg, head):
        (tmp_path / "gen.cfg").write_text(f"task={task}\nn_patients=6\nfeature_dim={feature_dim}\nseed=0\n")
        (tmp_path / "train.cfg").write_text(train_cfg)
        assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 0
        argv = ["train", "--config", str(tmp_path / "train.cfg"), "--data", str(tmp_path / "d" / "dataset.csv")]
        assert main([*argv, "--task", task, "--out", str(tmp_path / "m.ckpt")]) == 0
        params = model_mod.load_checkpoint(tmp_path / "m.ckpt")
        assert [w.shape[::-1] for w, _ in params.head_layers] == [head]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "folds, out, blocker",
        [
            ("0", "m.ckpt", "m.ckpt"), ("2", "m.ckpt", "m.fold1.ckpt"), ("2", "f/m.ckpt", "f"),
            ("0", "m.ckpt", "m.ckpt.history.csv"), ("2", "m.ckpt", "m.fold1.ckpt.history.csv"),
            ("0", "m.ckpt", "m.ckpt.manifest.json"),
        ],
        ids=[
            "out_is_a_directory", "fold_is_a_directory", "parent_is_a_file", "history_is_a_directory",
            "fold_history_is_a_directory", "manifest_is_a_directory",
        ],
    )
    def test_unwritable_out_exit_2_before_training(self, workdir, tmp_path, capsys, monkeypatch, folds, out, blocker):
        if blocker == "f":
            (tmp_path / blocker).write_text("")
        else:
            (tmp_path / blocker).mkdir()
        before = sorted(tmp_path.rglob("*"))
        runs = []
        monkeypatch.setattr(cli, "train", lambda *args: runs.append(args))
        argv = ["train", "--config", str(workdir / "train.cfg"), "--data", str(workdir / "data" / "dataset.csv")]
        assert main([*argv, "--folds", folds, "--out", str(tmp_path / out)]) == 2
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path / blocker) in err
        assert stdout == "" and runs == [] and sorted(tmp_path.rglob("*")) == before

    def test_task_mismatch_exit_3(self, workdir, tmp_path):
        rc = main(
            [
                "train",
                "--data", str(workdir / "data" / "dataset.csv"),
                "--task", "t1",
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        assert rc == 3

    def test_missing_data_exit_2(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.ckpt")]) == 2

    @pytest.mark.parametrize("settings", ["lr=1e300", "lr=1e200\noptimizer=sgd"])
    def test_diverging_run_exit_4(self, workdir, tmp_path, capsys, settings):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN_CFG.replace("lr=0.01", settings))
        argv = ["train", "--config", str(cfg), "--data", str(workdir / "data" / "dataset.csv")]
        assert main(argv + ["--out", str(tmp_path / "m.ckpt")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite logits at epoch 0 batch ") and err.count("\n") == 1
        assert not (tmp_path / "m.ckpt").exists()


@pytest.fixture(scope="module")
def t1_data(tmp_path_factory) -> Path:
    """A t1 dataset of the 8 patients of GEN_CFG."""
    root = tmp_path_factory.mktemp("t1")
    (root / "gen.cfg").write_text(GEN_CFG)
    assert main(["gen", "--config", str(root / "gen.cfg"), "--task", "t1", "--out", str(root / "data")]) == 0
    return root / "data" / "dataset.csv"


class TestTrainRejectsItsData:
    """A config that does not fit the dataset it trains on ends train with
    one line, and no checkpoint is written."""

    @pytest.mark.parametrize(
        "task, settings, message, code",
        [
            ("t1", "task=t2", "dataset {data} holds t1 records but config says t2", 3),
            ("t1", "task=t1\nloss=focal\nhead_dims=8,4",
             "head input 8 must be 16 for pair rows with encoder output 8", 3),
            ("t2", "folds=9", "cannot make 9 folds from 8 patients", 2),
            ("t2", "val_ratio=0.99", "val_ratio 0.99 leaves no training patients out of 8", 2),
            ("t2", "beta1=1.5", "adam betas must lie in [0, 1)", 3),
            ("t2", "weight_decay=-1", "weight_decay must be >= 0, got -1.0", 3),
            ("t2", "optimizer=sgd\nlr=1e300\nweight_decay=1e10", "the optimizer step produced non-finite parameters", 4),
        ],
        ids=["task", "head_input", "folds", "val_ratio", "beta1", "weight_decay", "non_finite_step"],
    )
    def test_exit_with_one_line(self, workdir, t1_data, tmp_path, capsys, task, settings, message, code):
        data = t1_data if task == "t1" else workdir / "data" / "dataset.csv"
        keys = {line.split("=")[0] for line in settings.splitlines()}
        kept = [line for line in TRAIN_CFG.splitlines() if line.split("=")[0] not in keys]
        (tmp_path / "train.cfg").write_text("\n".join(kept + [settings]) + "\n")
        capsys.readouterr()
        argv = ["train", "--config", str(tmp_path / "train.cfg"), "--data", str(data)]
        assert main([*argv, "--out", str(tmp_path / "m.ckpt")]) == code
        err = capsys.readouterr().err
        assert err == f"error: {message.format(data=data)}\n"
        assert not list(tmp_path.glob("m.*"))

    def test_undersampling_a_single_class_exit_2(self, tmp_path, capsys):
        (tmp_path / "gen.cfg").write_text(GEN_CFG.replace("class_ratios=0.25,0.5,0.25", "class_ratios=0,1,0"))
        (tmp_path / "train.cfg").write_text(TRAIN_CFG + "undersample_majority=1.0\n")
        assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        argv = ["train", "--config", str(tmp_path / "train.cfg"), "--data", str(tmp_path / "d" / "dataset.csv")]
        assert main([*argv, "--out", str(tmp_path / "m.ckpt")]) == 2
        assert capsys.readouterr().err == "error: undersampling needs at least one non-majority class with samples\n"
        assert not list(tmp_path.glob("m.*"))


class TestNonFiniteConfig:
    """A config number that is NaN or infinite ends gen and train with exit 3
    and one line naming the key, before any work starts."""

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("gen", "class_ratios=nan,0.5,0.5"),
            ("gen", "step_size=nan"),
            ("gen", "noise_sigma=inf"),
            ("gen", "patient_sigma=-inf"),
            ("train", "undersample_majority=inf"),
            ("train", "undersample_majority=nan"),
            ("train", "adam_eps=nan"),
            ("train", "weight_decay=nan"),
        ],
    )
    def test_non_finite_value_exit_3(self, workdir, tmp_path, capsys, command, setting):
        key = setting.split("=")[0]
        base = GEN_CFG if command == "gen" else TRAIN_CFG
        kept = [line for line in base.splitlines() if not line.startswith(f"{key}=")]
        cfg = tmp_path / "x.cfg"
        cfg.write_text("\n".join(kept + [setting]) + "\n")
        if command == "gen":
            argv = ["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]
        else:
            argv = ["train", "--config", str(cfg), "--data", str(workdir / "data" / "dataset.csv"),
                    "--out", str(tmp_path / "m.ckpt")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err
        assert not (tmp_path / "d").exists() and not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["gen", "train"])
def test_config_not_utf8_exit_3(workdir, tmp_path, capsys, command):
    cfg = tmp_path / "x.cfg"
    cfg.write_bytes((GEN_CFG if command == "gen" else TRAIN_CFG).encode() + b"# \xff\n")
    if command == "gen":
        argv = ["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]
    else:
        argv = ["train", "--config", str(cfg), "--data", str(workdir / "data" / "dataset.csv"),
                "--out", str(tmp_path / "m.ckpt")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text (invalid start byte)\n"
    assert not (tmp_path / "d").exists() and not (tmp_path / "m.ckpt").exists()


def with_dropout(blob: bytes, rate: float) -> bytes:
    """A sealed checkpoint ``blob`` with its dropout rate, the f64 after the
    magic and the version, set to ``rate`` and sealed again."""
    at = len(CHECKPOINT_MAGIC) + 4
    return seal(blob[:at] + struct.pack("<d", rate) + blob[at + 8 : -4])


class TestPredict:
    def test_probabilities_serialize_to_simplex(self, workdir):
        lines = (workdir / "preds.csv").read_text().splitlines()
        assert lines[0] == "case_id,patient_id,volume_id,bscan_index,true_label,p_reduced,p_stable,p_worsened,pred_label"
        for line in lines[1:]:
            parts = line.split(",")
            probs = [float(v) for v in parts[5:8]]
            assert abs(sum(probs) - 1.0) < 1e-6
            assert int(parts[8]) == int(np.argmax(probs))

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        assert (
            main(
                [
                    "predict",
                    "--ckpt", str(workdir / "model.ckpt"),
                    "--data", str(workdir / "data" / "dataset.csv"),
                    "--out", str(tmp_path / "again.csv"),
                ]
            )
            == 0
        )
        assert (tmp_path / "again.csv").read_bytes() == (workdir / "preds.csv").read_bytes()

    def test_covers_every_case(self, workdir):
        case_ids, _ = read_truth_csv(workdir / "data" / "truth.csv", Task.T2)
        table = read_predictions_csv(workdir / "preds.csv")
        assert set(table.case_id.tolist()) == set(case_ids)

    def test_corrupt_checkpoint_exit_5(self, workdir, tmp_path, capsys):
        blob = bytearray((workdir / "model.ckpt").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        rc = main(
            [
                "predict",
                "--ckpt", str(bad),
                "--data", str(workdir / "data" / "dataset.csv"),
                "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 5
        assert "checksum" in capsys.readouterr().err

    def test_checkpoint_with_a_zero_width_layer_exit_5(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "zero.ckpt"
        ckpt.write_bytes(zero_checkpoint([(0, 4)], [(3, 0)]))
        argv = ["predict", "--ckpt", str(ckpt), "--data", str(workdir / "data" / "dataset.csv")]
        assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 5
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {ckpt} holds inconsistent parameters: encoder layer 0: weight (0, 4) has a zero dimension\n"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "encoder, head, gen_cfg, message",
        [
            ((5, 8), (16, 4), None, "the model takes 2 input(s) per row, got 1"),
            ((5, 8), (8, 3), "task=t1\nn_patients=6\nfeature_dim=5\nseed=0\n", "the model takes 1 input(s) per row, got 2"),
            ((64, 8), (8, 3), "task=t2\nn_patients=4\nfeature_dim=32\nseed=0\n", "x must have width 64, got shape"),
            ((5, 8), (8, 4), None, "the model gives 4 classes, task t2 takes 3 (checkpoint "),
            ((5, 8), (8, 5), None, "the model gives 5 classes, task t2 takes 3 (checkpoint "),
            ((5, 8), (16, 3), "task=t1\nn_patients=6\nfeature_dim=5\nseed=0\n",
             "the model gives 3 classes, task t1 takes 4 (checkpoint "),
        ],
        ids=[
            "t1_model_on_t2_data", "t2_model_on_t1_pairs", "64_wide_model_on_32_features", "4_classes_on_t2_data",
            "5_classes_on_t2_data", "3_classes_on_t1_pairs",
        ],
    )
    def test_checkpoint_that_does_not_fit_the_data_exit_3(
        self, workdir, tmp_path, capsys, encoder, head, gen_cfg, message
    ):
        save_checkpoint(tmp_path / "m.ckpt", init_params(encoder, head))
        data = workdir / "data" / "dataset.csv"
        if gen_cfg:
            (tmp_path / "gen.cfg").write_text(gen_cfg)
            assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 0
            data = tmp_path / "d" / "dataset.csv"
        capsys.readouterr()
        rc = main(["predict", "--ckpt", str(tmp_path / "m.ckpt"), "--data", str(data), "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not list(tmp_path.glob("p.csv*"))

    @pytest.mark.parametrize(
        "blob, message",
        [
            (zero_checkpoint([(8, 5)], [(3, 8), (3, 6)]), "head layer 1 input 6 breaks the chain"),
            (zero_checkpoint([(4, 5), (8, 7)], [(3, 8)]), "encoder layer 1 input 7 breaks the chain"),
            (zero_checkpoint([(8, 5)], []), "model needs at least one head layer"),
            (with_dropout(zero_checkpoint([(8, 5)], [(3, 8)]), 1.0), "dropout_rate must lie in [0, 1), got 1.0"),
        ],
        ids=["head_chain", "encoder_chain", "no_head_layer", "dropout_one"],
    )
    def test_checkpoint_with_inconsistent_parameters_exit_5(self, workdir, tmp_path, capsys, blob, message):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob)
        argv = ["predict", "--ckpt", str(ckpt), "--data", str(workdir / "data" / "dataset.csv")]
        assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 5
        assert capsys.readouterr().err == f"error: checkpoint {ckpt} holds inconsistent parameters: {message}\n"
        assert not list(tmp_path.glob("p.csv*"))

    def test_overflowing_logits_print_one_error_line_exit_3(self, workdir, tmp_path, capsys):
        params = model_mod.load_checkpoint(workdir / "model.ckpt")
        scaled = [tuple((w * 1e300, b) for w, b in layers) for layers in (params.encoder_layers, params.head_layers)]
        save_checkpoint(tmp_path / "big.ckpt", model_mod.ModelParams(*scaled, params.dropout_rate))
        argv = ["predict", "--ckpt", str(tmp_path / "big.ckpt"), "--data", str(workdir / "data" / "dataset.csv")]
        assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 3
        assert capsys.readouterr().err == "error: logit rows must have length >= 2 and be finite\n"
        assert not (tmp_path / "p.csv").exists()

    def test_missing_checkpoint_exit_5(self, workdir, tmp_path):
        rc = main(
            [
                "predict",
                "--ckpt", str(tmp_path / "nope.ckpt"),
                "--data", str(workdir / "data" / "dataset.csv"),
                "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 5


def edited_dataset(workdir: Path, out: Path, edit) -> Path:
    """Copy the shared dataset CSV with ``edit`` applied to its list of lines."""
    lines = (workdir / "data" / "dataset.csv").read_text().splitlines(keepends=True)
    edit(lines)
    out.write_text("".join(lines))
    return out


def set_field(lines: list[str], line: int, field: int, value: str) -> None:
    fields = lines[line].rstrip("\n").split(",")
    fields[field] = value
    lines[line] = ",".join(fields) + "\n"


class TestBadDataset:
    """Malformed dataset rows end train and predict with exit 2 (a repeated
    case_id with exit 6) and one line."""

    def run(self, workdir, tmp_path, command: str, data: Path) -> int:
        if command == "train":
            argv = ["train", "--config", str(workdir / "train.cfg"), "--out", str(tmp_path / "m.ckpt")]
        else:
            argv = ["predict", "--ckpt", str(workdir / "model.ckpt"), "--out", str(tmp_path / "p.csv")]
        return main(argv + ["--data", str(data)])

    def check(self, workdir, tmp_path, capsys, command, edit, message, code=2):
        data = edited_dataset(workdir, tmp_path / "bad.csv", edit)
        self.check_file(workdir, tmp_path, capsys, command, data, message, code)

    def check_file(self, workdir, tmp_path, capsys, command, data, message, code=2):
        assert self.run(workdir, tmp_path, command, data) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_ragged_row_exit_2(self, workdir, tmp_path, capsys, command):
        def drop_last_field(lines):
            lines[3] = lines[3].rsplit(",", 1)[0] + "\n"

        self.check(workdir, tmp_path, capsys, command, drop_last_field, "line 4 has 10 fields, expected 11")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_duplicate_row_exit_2(self, workdir, tmp_path, capsys, command):
        self.check(workdir, tmp_path, capsys, command, lambda lines: lines.append(lines[1]), "duplicate row key")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_repeated_case_id_exit_6(self, workdir, tmp_path, capsys, command):
        # Row 2 takes row 1's case_id; the rows themselves stay distinct.
        case_id = workdir.joinpath("data", "dataset.csv").read_text().splitlines()[1].split(",")[0]
        message = f"{tmp_path / 'bad.csv'}: case_id {case_id!r} appears more than once"
        self.check(workdir, tmp_path, capsys, command, lambda lines: set_field(lines, 2, 0, case_id), message, 6)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_conflicting_volume_labels_exit_2(self, workdir, tmp_path, capsys, command):
        # Lines 2-4 are the three B-scans of the first volume.
        def relabel_second_bscan(lines):
            label = int(lines[2].split(",")[5])
            set_field(lines, 2, 5, str((label + 1) % 3))

        self.check(workdir, tmp_path, capsys, command, relabel_second_bscan, "conflicting labels")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_non_finite_feature_exit_2(self, workdir, tmp_path, capsys, command):
        self.check(workdir, tmp_path, capsys, command, lambda lines: set_field(lines, 5, 7, "nan"), "non-finite")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_label_beyond_int64_exit_2(self, workdir, tmp_path, capsys, command):
        def relabel_volume(lines):
            for line in (1, 2, 3):
                set_field(lines, line, 5, "9" * 20)

        self.check(workdir, tmp_path, capsys, command, relabel_volume, "malformed dataset row")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_not_utf8_exit_2(self, workdir, tmp_path, capsys, command):
        data = tmp_path / "bad.csv"
        data.write_bytes((workdir / "data" / "dataset.csv").read_bytes() + b"\xff")
        self.check_file(workdir, tmp_path, capsys, command, data, f"{data}: not UTF-8 text (invalid start byte)")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_oversized_field_exit_2(self, workdir, tmp_path, capsys, command):
        message = f"{tmp_path / 'bad.csv'}: line 2: field larger than field limit"
        self.check(workdir, tmp_path, capsys, command, lambda lines: set_field(lines, 1, 0, "x" * 200_000), message)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_oversized_header_field_exit_2(self, workdir, tmp_path, capsys, command):
        message = f"{tmp_path / 'bad.csv'}: line 1: field larger than field limit (131072)"
        self.check(workdir, tmp_path, capsys, command, lambda lines: set_field(lines, 0, 1, "x" * 200_000), message)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_oversized_field_after_an_id_on_two_lines_exit_2(self, workdir, tmp_path, capsys, command):
        # Every quote is closed: the record of line 2 goes on to line 3, which is over the field limit.
        def long_field_on_the_second_line(lines):
            set_field(lines, 1, 0, '"a\nb"')
            set_field(lines, 1, 1, "x" * 200_000)

        message = f"{tmp_path / 'bad.csv'}: line 2: field larger than field limit (131072)"
        self.check(workdir, tmp_path, capsys, command, long_field_on_the_second_line, message)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_blank_line_exit_2(self, workdir, tmp_path, capsys, command):
        # numpy's parser skips blank lines; the reader does not.
        message = f"{tmp_path / 'bad.csv'}: line 5 has 0 fields, expected 11"
        self.check(workdir, tmp_path, capsys, command, lambda lines: lines.insert(4, "\n"), message)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_blank_line_after_a_quote_inside_a_field_exit_2(self, workdir, tmp_path, capsys, command):
        # The csv module and numpy's parser both read a"x as text holding a quote, not as an open quoted field.
        def stray_quote_then_blank_line(lines):
            set_field(lines, 1, 1, 'a"x')
            lines.insert(2, "\n")

        message = f"{tmp_path / 'bad.csv'}: line 3 has 0 fields, expected 11"
        self.check(workdir, tmp_path, capsys, command, stray_quote_then_blank_line, message)

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("feature", ["abc", "1_0"])
    def test_feature_that_is_not_a_number_exit_2(self, workdir, tmp_path, capsys, command, feature):
        # Python's float() reads 1_0 as 10.0; numpy's parser, which reads the features, rejects it.
        message = f"{tmp_path / 'bad.csv'}: line 6: could not convert string {feature!r} to float64"
        self.check(workdir, tmp_path, capsys, command, lambda lines: set_field(lines, 5, 7, feature), message)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_rejected_row_in_a_file_cut_inside_a_character_exit_2(self, workdir, tmp_path, capsys, command):
        # numpy's parser rejects line 6 before the decoder reaches the end of the file, where a character
        # is cut short; the csv pass that names the rejected row then reads that end.
        data = edited_dataset(workdir, tmp_path / "bad.csv", lambda lines: set_field(lines, 5, 7, "abc"))
        data.write_bytes(data.read_bytes() + b"\xc3")
        self.check_file(workdir, tmp_path, capsys, command, data, f"{data}: not UTF-8 text (unexpected end of data)")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_header_only_file_exit_2_without_a_warning(self, workdir, tmp_path, capsys, command):
        def drop_rows(lines):
            del lines[1:]

        message = {
            "train": "error: need at least two patients for a patient-disjoint split",
            "predict": f"error: {tmp_path / 'bad.csv'}: dataset holds no records",
        }[command]
        self.check(workdir, tmp_path, capsys, command, drop_rows, message)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_quote_left_open_names_its_line_exit_2(self, workdir, tmp_path, capsys, command):
        # numpy's parser reads on to the end of the file inside the quoted field and names no file line.
        end = len((workdir / "data" / "dataset.csv").read_text().splitlines())
        message = f"{tmp_path / 'bad.csv'}: line 4: quote not closed (read to line {end})"
        self.check(workdir, tmp_path, capsys, command, lambda lines: set_field(lines, 3, 1, '"P0'), message)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_quote_left_open_past_the_field_limit_exit_2(self, workdir, tmp_path, capsys, command):
        # In a larger file the quoted field outgrows the csv module's field limit before the file ends.
        def open_quote_in_a_long_file(lines):
            set_field(lines, 3, 1, '"P0')
            lines += lines[4:] * (200_000 // len("".join(lines[4:])) + 1)

        message = f"{tmp_path / 'bad.csv'}: line 4: quote not closed (read to line "
        self.check(workdir, tmp_path, capsys, command, open_quote_in_a_long_file, message)

    def test_label_outside_task_exit_2(self, workdir, tmp_path, capsys):
        # Label 3 (OTHER) exists only in t1; all three B-scans of the volume carry it.
        def relabel_volume(lines):
            for line in (1, 2, 3):
                set_field(lines, line, 5, "3")

        self.check(workdir, tmp_path, capsys, "predict", relabel_volume, "label 3 is not valid for task t2")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_label_outside_task_names_its_line_exit_2(self, workdir, tmp_path, capsys, command):
        def relabel_volume(lines):
            for line in (1, 2, 3):
                set_field(lines, line, 5, "3")

        message = f"{tmp_path / 'bad.csv'}: line 2: label 3 is not valid for task t2"
        self.check(workdir, tmp_path, capsys, command, relabel_volume, message)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_id_ending_in_nul_exit_2(self, workdir, tmp_path, capsys, command):
        # As text arrays drop a trailing NUL, the patient id of line 3 would read as the one of line 2.
        def nul_after_patient(lines):
            set_field(lines, 2, 1, lines[1].split(",")[1] + "\0")

        message = f"{tmp_path / 'bad.csv'}: line 3: patient_id ends in a NUL character"
        self.check(workdir, tmp_path, capsys, command, nul_after_patient, message)


def test_written_files_are_read_without_the_csv_pass(workdir, monkeypatch):
    """The files gen and predict write hold no blank line, no quote and no
    line over the field limit, so numpy's parser alone reads them."""

    def record_lines(path):
        raise AssertionError(f"{path} took the csv pass")

    monkeypatch.setattr(cli, "_record_lines", record_lines)
    assert len(cli.read_dataset_csv(workdir / "data" / "dataset.csv")[1]) == 48
    assert len(read_truth_csv(workdir / "data" / "truth.csv", Task.T2)[0]) == 48
    assert len(read_predictions_csv(workdir / "preds.csv").case_id) == 48


class TestFailedWrite:
    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_failed_rename_exits_2_and_leaves_no_temp_file(self, workdir, tmp_path, monkeypatch, capsys, command):
        # gen's first output is dataset.csv (text); train's is the checkpoint (bytes).
        def refuse(src, dst):
            raise OSError(f"cannot rename {src}")

        monkeypatch.setattr(os, "replace", refuse)
        if command == "gen":
            argv = ["gen", "--config", str(workdir / "gen.cfg"), "--out", str(tmp_path / "out")]
        else:
            argv = [
                "train", "--config", str(workdir / "train.cfg"),
                "--data", str(workdir / "data" / "dataset.csv"), "--out", str(tmp_path / "out" / "m.ckpt"),
            ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot rename")
        assert not list((tmp_path / "out").glob("*.tmp.*"))

    @pytest.mark.filterwarnings("error")
    def test_failed_row_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path):
        # The float rows stream into the temporary file, so a failure can come after part of the text is written.
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def float_rows():
            yield from np.ones((5000, 1))  # 30 kB, more than the text and file buffers hold
            raise OSError("row source failed")

        with pytest.raises(OSError, match="row source failed"):
            cli._write_csv(path, ["a", "b"], [["x"] * 5001], float_rows())
        assert path.read_text() == "old\n"
        assert not list(tmp_path.glob("*.tmp.*"))


def stable_rows(cases: list[str], vol: str, peak_classes: list[int] | None = None) -> Predictions:
    """Rows of one volume, each peaked at ``peak_classes`` (default Stable)."""
    n = len(cases)
    peaks = np.ones(n, dtype=np.int64) if peak_classes is None else np.array(peak_classes)
    probs = np.full((n, 3), 0.05)
    probs[np.arange(n), peaks] = 0.9
    return Predictions(
        case_id=cases, patient_id=["P000"] * n, volume_id=[vol] * n, bscan_index=["0"] * n,
        true_label=np.ones(n), probs=probs, pred_label=peaks,
    )


def uniform_pair_rows(cases: list[str], true_labels: list[int] | None = None) -> Predictions:
    """t1-style rows (no volume ids) with uniform four-class probabilities."""
    n = len(cases)
    return Predictions(
        case_id=cases, patient_id=["P0"] * n, volume_id=[""] * n, bscan_index=[""] * n,
        true_label=true_labels or [0] * n, probs=np.full((n, 4), 0.25), pred_label=np.zeros(n),
    )


def take_rows(table: Predictions, rows) -> Predictions:
    """The table of ``table``'s rows selected by ``rows``, a slice or an index array."""
    columns = {f.name: getattr(table, f.name) for f in fields(table)}
    return Predictions(**{name: None if col is None else col[rows] for name, col in columns.items()})


class TestEnsemble:
    def test_unanimity_dissent_and_postprocess(self, tmp_path):
        # Nine Stable B-scans and one Worsened in one volume: model B dissents
        # on one record, so unanimity flips it, but the volume stays 90%
        # Stable and consistency relabels everything Stable.
        cases = [f"c{i}" for i in range(10)]
        rows_a = stable_rows(cases, "P000_V00")
        rows_b = stable_rows(cases, "P000_V00", peak_classes=[1] * 9 + [2])
        write_predictions_csv(tmp_path / "a.csv", rows_a)
        write_predictions_csv(tmp_path / "b.csv", rows_b)
        rc = main(
            [
                "ensemble", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                "--mode", "unanimity", "--postprocess",
                "--out", str(tmp_path / "comb.csv"),
            ]
        )
        assert rc == 0
        combined = read_predictions_csv(tmp_path / "comb.csv")
        by_case = dict(zip(combined.case_id.tolist(), combined.pred_label.tolist()))
        assert by_case["c9"] == 2  # dissent beats the stable majority
        assert (combined.final_label == 1).all()  # volume vote restores Stable
        assert (combined.postprocessed == 1).all()

    def test_mean_mode_single_file_is_passthrough(self, workdir, tmp_path):
        rc = main(
            [
                "ensemble", str(workdir / "preds.csv"),
                "--mode", "mean",
                "--out", str(tmp_path / "one.csv"),
            ]
        )
        assert rc == 0
        orig = read_predictions_csv(workdir / "preds.csv")
        out = read_predictions_csv(tmp_path / "one.csv")
        assert out.pred_label.tolist() == orig.pred_label.tolist()
        assert (out.final_label == out.pred_label).all() and (out.postprocessed == 0).all()

    def test_postprocess_yields_one_label_per_volume(self, workdir, tmp_path):
        rc = main(
            [
                "ensemble", str(workdir / "preds.csv"),
                "--postprocess",
                "--out", str(tmp_path / "post.csv"),
            ]
        )
        assert rc == 0
        by_volume: dict[str, set[int]] = {}
        post = read_predictions_csv(tmp_path / "post.csv")
        for volume, label in zip(post.volume_id.tolist(), post.final_label.tolist()):
            by_volume.setdefault(volume, set()).add(label)
        assert all(len(labels) == 1 for labels in by_volume.values())

    def test_mixed_class_counts_exit_3(self, workdir, tmp_path, capsys):
        write_predictions_csv(tmp_path / "t1.csv", uniform_pair_rows(["x"]))
        rc = main(
            [
                "ensemble", str(workdir / "preds.csv"), str(tmp_path / "t1.csv"),
                "--out", str(tmp_path / "comb.csv"),
            ]
        )
        assert rc == 3
        assert "class counts" in capsys.readouterr().err

    def test_misaligned_keys_exit_6(self, workdir, tmp_path, capsys):
        table = read_predictions_csv(workdir / "preds.csv")
        write_predictions_csv(tmp_path / "short.csv", take_rows(table, slice(12, None)))
        rc = main(
            [
                "ensemble", str(workdir / "preds.csv"), str(tmp_path / "short.csv"),
                "--out", str(tmp_path / "comb.csv"),
            ]
        )
        assert rc == 6
        # All 12 missing keys are counted; the first 10 are listed.
        missing = sorted(table.case_id[:12].tolist())
        assert capsys.readouterr().err == (
            f"error: prediction files {workdir / 'preds.csv'} and {tmp_path / 'short.csv'} disagree on keys "
            f"(12 total); first offenders: {missing[:10]}\n"
        )
        assert not (tmp_path / "comb.csv").exists()

    def test_second_file_row_order_does_not_matter(self, workdir, tmp_path):
        # A second model whose rows differ from the first's on every record.
        table = read_predictions_csv(workdir / "preds.csv")
        second = replace(table, probs=table.probs[:, ::-1], pred_label=table.probs[:, ::-1].argmax(axis=1))
        write_predictions_csv(tmp_path / "second.csv", second)
        shuffled = np.random.default_rng(0).permutation(len(table.case_id))
        write_predictions_csv(tmp_path / "shuffled.csv", take_rows(second, shuffled))
        outputs = []
        for name in ("second.csv", "shuffled.csv"):
            out = tmp_path / f"comb-{name}"
            argv = ["ensemble", str(workdir / "preds.csv"), str(tmp_path / name), "--out", str(out)]
            assert main(argv + ["--mode", "unanimity", "--postprocess"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert read_predictions_csv(tmp_path / "comb-second.csv").case_id.tolist() == table.case_id.tolist()

    def test_postprocess_without_volume_ids_exit_3(self, tmp_path, capsys):
        write_predictions_csv(tmp_path / "t1.csv", uniform_pair_rows([f"pair{i}" for i in range(3)]))
        rc = main(
            [
                "ensemble", str(tmp_path / "t1.csv"), "--postprocess",
                "--out", str(tmp_path / "comb.csv"),
            ]
        )
        assert rc == 3
        assert "volume ids" in capsys.readouterr().err

    def test_header_only_prediction_file_exit_2(self, workdir, tmp_path, capsys):
        empty = header_only(workdir / "preds.csv", tmp_path / "empty.csv")
        rc = main(["ensemble", str(workdir / "preds.csv"), str(empty), "--out", str(tmp_path / "comb.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {empty}: holds no prediction rows\n"

    def test_repeated_prediction_row_exit_6(self, workdir, tmp_path, capsys):
        # The same exit code and message as eval's.
        lines = (workdir / "preds.csv").read_text().splitlines(keepends=True)
        (tmp_path / "twice.csv").write_text("".join(lines + lines[1:2]))
        rc = main(["ensemble", str(tmp_path / "twice.csv"), "--out", str(tmp_path / "comb.csv")])
        assert rc == 6
        case_id = lines[1].split(",")[0]
        assert capsys.readouterr().err == f"error: {tmp_path / 'twice.csv'}: case_id {case_id!r} appears more than once\n"
        assert not (tmp_path / "comb.csv").exists()


def test_prediction_csvs_round_trip_byte_for_byte(workdir, tmp_path):
    # Reading keeps the probabilities as written, so writing the table back
    # reproduces the file; ensemble output carries the two label columns more.
    assert main(["ensemble", str(workdir / "preds.csv"), "--postprocess", "--out", str(tmp_path / "ens.csv")]) == 0
    for source in (workdir / "preds.csv", tmp_path / "ens.csv"):
        write_predictions_csv(tmp_path / "back.csv", read_predictions_csv(source))
        assert (tmp_path / "back.csv").read_bytes() == source.read_bytes()


def header_only(source: Path, out: Path) -> Path:
    out.write_text(source.read_text().splitlines(keepends=True)[0])
    return out


class TestEval:
    def test_perfect_predictions_score_one(self, workdir, tmp_path, capsys):
        case_ids, labels = read_truth_csv(workdir / "data" / "truth.csv", Task.T2)
        table = read_predictions_csv(workdir / "preds.csv")
        assert table.case_id.tolist() == case_ids  # both files follow the dataset's rows
        probs = np.full((len(labels), 3), 0.01)
        probs[np.arange(len(labels)), labels] = 0.98
        perfect = replace(table, true_label=labels, probs=probs, pred_label=labels)
        write_predictions_csv(tmp_path / "perfect.csv", perfect)
        rc = main(
            [
                "eval",
                "--pred", str(tmp_path / "perfect.csv"),
                "--truth", str(workdir / "data" / "truth.csv"),
                "--task", "t2",
                "--out", str(tmp_path / "report.csv"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "micro_f1            1.000000" in out
        assert "average             1.000000" in out
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0].startswith("task,micro_f1,")
        assert lines[1].startswith("t2,1.000000,")

    def test_eval_respects_final_label_column(self, workdir, tmp_path, capsys):
        case_ids, labels = read_truth_csv(workdir / "data" / "truth.csv", Task.T2)
        table = read_predictions_csv(workdir / "preds.csv")
        assert table.case_id.tolist() == case_ids  # both files follow the dataset's rows
        wrong = (labels + 1) % 3
        probs = np.full((len(labels), 3), 0.01)
        probs[np.arange(len(labels)), wrong] = 0.98
        fixed = replace(
            table, true_label=labels, probs=probs, pred_label=wrong, final_label=labels,
            postprocessed=np.ones(len(labels)),
        )
        write_predictions_csv(tmp_path / "fixed.csv", fixed)
        rc = main(
            [
                "eval",
                "--pred", str(tmp_path / "fixed.csv"),
                "--truth", str(workdir / "data" / "truth.csv"),
                "--task", "t2",
                "--out", str(tmp_path / "report.csv"),
            ]
        )
        assert rc == 0
        assert "micro_f1            1.000000" in capsys.readouterr().out

    def test_misaligned_keys_exit_6(self, workdir, tmp_path, capsys):
        table = read_predictions_csv(workdir / "preds.csv")
        write_predictions_csv(tmp_path / "short.csv", take_rows(table, slice(-2)))
        rc = main(
            [
                "eval",
                "--pred", str(tmp_path / "short.csv"),
                "--truth", str(workdir / "data" / "truth.csv"),
                "--task", "t2",
            ]
        )
        assert rc == 6
        assert capsys.readouterr().err == (
            f"error: prediction file {tmp_path / 'short.csv'} and truth file {workdir / 'data' / 'truth.csv'} "
            f"disagree on keys (2 total); first offenders: {sorted(table.case_id[-2:].tolist())}\n"
        )

    def test_truth_row_order_does_not_matter(self, workdir, tmp_path):
        lines = (workdir / "data" / "truth.csv").read_text().splitlines(keepends=True)
        body = [lines[1 + i] for i in np.random.default_rng(0).permutation(len(lines) - 1)]
        (tmp_path / "truth.csv").write_text("".join(lines[:1] + body))
        reports = []
        for truth in (workdir / "data" / "truth.csv", tmp_path / "truth.csv"):
            out = tmp_path / f"report-{len(reports)}.csv"
            argv = ["eval", "--pred", str(workdir / "preds.csv"), "--truth", str(truth), "--task", "t2"]
            assert main(argv + ["--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def eval_rc(self, workdir, pred: Path, truth: Path | None = None) -> int:
        truth = truth or workdir / "data" / "truth.csv"
        return main(["eval", "--pred", str(pred), "--truth", str(truth), "--task", "t2"])

    def test_repeated_prediction_row_exit_6(self, workdir, tmp_path, capsys):
        lines = (workdir / "preds.csv").read_text().splitlines(keepends=True)
        (tmp_path / "twice.csv").write_text("".join(lines + lines[1:2]))
        assert self.eval_rc(workdir, tmp_path / "twice.csv") == 6
        err = capsys.readouterr().err
        case_id = lines[1].split(",")[0]
        assert err == f"error: {tmp_path / 'twice.csv'}: case_id {case_id!r} appears more than once\n"

    def test_repeated_truth_key_exit_6(self, workdir, tmp_path, capsys):
        lines = (workdir / "data" / "truth.csv").read_text().splitlines(keepends=True)
        first = lines[1].rstrip("\n").split(",")
        relabeled = ",".join(first[:-1] + [str((int(first[-1]) + 1) % 3)]) + "\n"
        (tmp_path / "truth.csv").write_text("".join(lines + [relabeled]))
        assert self.eval_rc(workdir, workdir / "preds.csv", tmp_path / "truth.csv") == 6
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'truth.csv'}: case_id {first[0]!r} appears more than once\n"

    def test_header_only_prediction_file_exit_2(self, workdir, tmp_path, capsys):
        empty = header_only(workdir / "preds.csv", tmp_path / "empty.csv")
        assert self.eval_rc(workdir, empty) == 2
        assert capsys.readouterr().err == f"error: {empty}: holds no prediction rows\n"

    def test_width_mismatch_exit_3(self, workdir, tmp_path):
        case_ids, labels = read_truth_csv(workdir / "data" / "truth.csv", Task.T2)
        write_predictions_csv(tmp_path / "wide.csv", uniform_pair_rows(case_ids, labels.tolist()))
        rc = main(
            [
                "eval",
                "--pred", str(tmp_path / "wide.csv"),
                "--truth", str(workdir / "data" / "truth.csv"),
                "--task", "t2",
            ]
        )
        assert rc == 3

    def test_task_checked_against_the_predictions_before_the_truth_exit_3(self, workdir, capsys):
        argv = ["eval", "--pred", str(workdir / "preds.csv"), "--truth", str(workdir / "data" / "truth.csv")]
        assert main([*argv, "--task", "t1"]) == 3
        assert capsys.readouterr().err == "error: predictions carry 3 classes, task t1 expects 4\n"


def edited_copy(source: Path, out: Path, line: int, edit) -> Path:
    """Copy ``source`` with ``edit`` applied to the field list of one line."""
    lines = source.read_text().splitlines(keepends=True)
    fields = lines[line].rstrip("\n").split(",")
    edit(fields)
    lines[line] = ",".join(fields) + "\n"
    out.write_text("".join(lines))
    return out


def first_case_id_on_two_lines(path: Path) -> Path:
    """Rewrite ``path`` with its first case_id quoted over two lines, as
    ``_write_csv`` writes an id that holds a line break."""
    lines = path.read_text().splitlines(keepends=True)
    case_id, rest = lines[1].split(",", 1)
    lines[1] = f'"{case_id}\n{case_id}",{rest}'
    path.write_text("".join(lines))
    return path


class TestBadPredictionAndTruthFiles:
    """A malformed prediction or truth row ends ensemble and eval with exit 2
    and one line that names the file."""

    def run(self, workdir, command: str, pred: Path, truth: Path | None = None) -> int:
        if command == "ensemble":
            return main(["ensemble", str(pred), "--out", str(pred.parent / "comb.csv")])
        truth = truth or workdir / "data" / "truth.csv"
        return main(["eval", "--pred", str(pred), "--truth", str(truth), "--task", "t2",
                     "--out", str(pred.parent / "report.csv")])

    def check(self, capsys, rc: int, path: Path, message: str) -> None:
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (path.parent / "comb.csv").exists() and not (path.parent / "report.csv").exists()

    @pytest.mark.parametrize("command", ["ensemble", "eval"])
    def test_prediction_row_with_extra_field_exit_2(self, workdir, tmp_path, capsys, command):
        bad = edited_copy(workdir / "preds.csv", tmp_path / "bad.csv", 3, lambda f: f.append("0"))
        self.check(capsys, self.run(workdir, command, bad), bad, "line 4 has 10 fields, expected 9")

    def test_truth_row_with_extra_field_exit_2(self, workdir, tmp_path, capsys):
        # Read as the last field, the appended 2 used to be scored as the label.
        pred = tmp_path / "preds.csv"
        pred.write_bytes((workdir / "preds.csv").read_bytes())
        truth = edited_copy(workdir / "data" / "truth.csv", tmp_path / "truth.csv", 1, lambda f: f.append("2"))
        self.check(capsys, self.run(workdir, "eval", pred, truth), truth, "line 2 has 6 fields, expected 5")

    @pytest.mark.parametrize("command", ["ensemble", "eval"])
    def test_prediction_file_not_utf8_exit_2(self, workdir, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes((workdir / "preds.csv").read_bytes() + b"\xff")
        self.check(capsys, self.run(workdir, command, bad), bad, "not UTF-8 text (invalid start byte)")

    def test_truth_file_not_utf8_exit_2(self, workdir, tmp_path, capsys):
        pred, truth = tmp_path / "preds.csv", tmp_path / "truth.csv"
        pred.write_bytes((workdir / "preds.csv").read_bytes())
        truth.write_bytes((workdir / "data" / "truth.csv").read_bytes() + b"\xff")
        self.check(capsys, self.run(workdir, "eval", pred, truth), truth, "not UTF-8 text (invalid start byte)")

    def test_pred_label_out_of_range_exit_2(self, workdir, tmp_path, capsys):
        def set_pred_label(fields):
            fields[8] = "7"

        bad = edited_copy(workdir / "preds.csv", tmp_path / "bad.csv", 2, set_pred_label)
        self.check(capsys, self.run(workdir, "eval", bad), bad, "line 3: pred_label 7 outside [0, 3)")

    @pytest.mark.parametrize("command", ["ensemble", "eval"])
    def test_pred_label_after_an_id_on_two_lines_names_its_line(self, workdir, tmp_path, capsys, command):
        def set_pred_label(fields):
            fields[8] = "7"

        bad = first_case_id_on_two_lines(edited_copy(workdir / "preds.csv", tmp_path / "bad.csv", 3, set_pred_label))
        self.check(capsys, self.run(workdir, command, bad), bad, "line 5: pred_label 7 outside [0, 3)")

    @pytest.mark.parametrize("command", ["ensemble", "eval"])
    def test_pred_label_beyond_int64_exit_2(self, workdir, tmp_path, capsys, command):
        def set_pred_label(fields):
            fields[8] = "9" * 20

        bad = edited_copy(workdir / "preds.csv", tmp_path / "bad.csv", 2, set_pred_label)
        message = "malformed prediction row: Python int too large to convert to C long"
        self.check(capsys, self.run(workdir, command, bad), bad, message)

    def test_truth_label_out_of_range_exit_2(self, workdir, tmp_path, capsys):
        def set_label(fields):
            fields[-1] = "9"

        pred = tmp_path / "preds.csv"
        pred.write_bytes((workdir / "preds.csv").read_bytes())
        truth = edited_copy(workdir / "data" / "truth.csv", tmp_path / "truth.csv", 2, set_label)
        self.check(capsys, self.run(workdir, "eval", pred, truth), truth, "line 3: label 9 is not valid for task t2")

    def test_truth_label_after_an_id_on_two_lines_names_its_line(self, workdir, tmp_path, capsys):
        def set_label(fields):
            fields[-1] = "9"

        pred = tmp_path / "preds.csv"
        pred.write_bytes((workdir / "preds.csv").read_bytes())
        truth = edited_copy(workdir / "data" / "truth.csv", tmp_path / "truth.csv", 2, set_label)
        first_case_id_on_two_lines(truth)
        self.check(capsys, self.run(workdir, "eval", pred, truth), truth, "line 4: label 9 is not valid for task t2")

    @pytest.mark.parametrize("command", ["ensemble", "eval"])
    def test_negative_probability_exit_2(self, workdir, tmp_path, capsys, command):
        def set_probs(fields):
            fields[5:8] = ["-0.1", "0.6", "0.5"]

        bad = edited_copy(workdir / "preds.csv", tmp_path / "bad.csv", 2, set_probs)
        self.check(capsys, self.run(workdir, command, bad), bad, "line 3: probability entries must lie in [0, 1]")

    @pytest.mark.parametrize("command", ["ensemble", "eval"])
    def test_probabilities_off_the_simplex_name_the_line(self, workdir, tmp_path, capsys, command):
        def set_prob(fields):
            fields[5] = "0.5"

        bad = edited_copy(workdir / "preds.csv", tmp_path / "bad.csv", 4, set_prob)
        assert self.run(workdir, command, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 5: probabilities sum to ") and err.count("\n") == 1
        assert err.endswith(", expected 1 within 3e-09\n")
        assert not (tmp_path / "comb.csv").exists() and not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("command", ["ensemble", "eval"])
    def test_probabilities_off_the_simplex_after_an_id_on_two_lines_name_the_line(
        self, workdir, tmp_path, capsys, command
    ):
        def set_prob(fields):
            fields[5] = "0.5"

        bad = first_case_id_on_two_lines(edited_copy(workdir / "preds.csv", tmp_path / "bad.csv", 4, set_prob))
        assert self.run(workdir, command, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 6: probabilities sum to ") and err.count("\n") == 1

    def test_truth_label_beyond_int64_exit_2(self, workdir, tmp_path, capsys):
        def set_label(fields):
            fields[-1] = "9" * 20

        pred = tmp_path / "preds.csv"
        pred.write_bytes((workdir / "preds.csv").read_bytes())
        truth = edited_copy(workdir / "data" / "truth.csv", tmp_path / "truth.csv", 2, set_label)
        message = "malformed truth row: Python int too large to convert to C long"
        self.check(capsys, self.run(workdir, "eval", pred, truth), truth, message)

    @pytest.mark.parametrize("command", ["ensemble", "eval"])
    def test_case_id_ending_in_nul_exit_2(self, workdir, tmp_path, capsys, command):
        # As text arrays drop a trailing NUL, line 3 would take the case_id of line 2 and its scores.
        first = (workdir / "preds.csv").read_text().splitlines()[1].split(",")[0]

        def nul_after_first_case_id(fields):
            fields[0] = first + "\0"

        bad = edited_copy(workdir / "preds.csv", tmp_path / "bad.csv", 2, nul_after_first_case_id)
        self.check(capsys, self.run(workdir, command, bad), bad, "line 3: case_id ends in a NUL character")

    def test_truth_case_id_ending_in_nul_exit_2(self, workdir, tmp_path, capsys):
        def nul_after_case_id(fields):
            fields[0] += "\0"

        pred = tmp_path / "preds.csv"
        pred.write_bytes((workdir / "preds.csv").read_bytes())
        truth = edited_copy(workdir / "data" / "truth.csv", tmp_path / "truth.csv", 2, nul_after_case_id)
        self.check(capsys, self.run(workdir, "eval", pred, truth), truth, "line 3: case_id ends in a NUL character")


# The exact stdout of `gradcheck --trials 6 --seed 3`, every digit of every error pinned.
GRADCHECK_T6_S3 = """\
loss       path      trials  max_rel_err  status
ce         logits         6    1.452e-07  ok
focal      logits         6    3.288e-08  ok
emd        logits         6    1.037e-08  ok
combined   logits         6    1.002e-08  ok
ce         plain          1    1.061e-08  ok
ce         siamese        1    1.301e-09  ok
focal      plain          1    1.705e-09  ok
focal      siamese        1    3.124e-09  ok
emd        plain          1    1.690e-09  ok
emd        siamese        1    2.861e-09  ok
combined   plain          1    3.025e-08  ok
combined   siamese        1    1.954e-09  ok
gradient check passed: worst relative error 1.452e-07 < 1e-05
"""


class TestGradcheck:
    def test_passes_with_default_losses(self, capsys):
        assert main(["gradcheck", "--trials", "6", "--seed", "3"]) == 0
        assert capsys.readouterr().out == GRADCHECK_T6_S3

    def test_detects_broken_gradients(self, monkeypatch, capsys):
        for error in (1.0, np.nan):
            monkeypatch.setattr(cli, "finite_difference_check", lambda *a, error=error, **k: error)
            assert main(["gradcheck", "--trials", "5", "--losses", "ce"]) == 7
            out = capsys.readouterr().out
            assert f"ce         logits         5 {error:>12.3e}  FAIL\n" in out
            assert "gradient check FAILED" in out

    def test_unknown_loss_exit_3(self, capsys):
        for losses in ("hinge", ","):
            assert main(["gradcheck", "--losses", losses]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_trials_exit_3(self):
        assert main(["gradcheck", "--trials", "0"]) == 3


class TestRunner:
    """main runs every command, writes each manifest and makes each output
    directory."""

    def test_every_command_writes_its_manifest(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "gen.cfg").write_text(GEN_CFG)
        (tmp_path / "train.cfg").write_text(TRAIN_CFG)
        cfg = {name: str(tmp_path / f"{name}.cfg") for name in ("gen", "train")}
        data, truth = str(tmp_path / "d" / "dataset.csv"), str(tmp_path / "d" / "truth.csv")
        ckpts = [str(tmp_path / f"m.fold{i}.ckpt") for i in range(2)]
        preds = [str(tmp_path / f"p{i}.csv") for i in range(2)]
        combined = str(tmp_path / "e.csv")
        # (argv, manifest path, config, seed, inputs, outputs) of each command.
        runs = [
            (["gen", "--config", cfg["gen"], "--out", str(tmp_path / "d")], str(tmp_path / "d" / "manifest.json"),
             GEN_CFG, 11, [cfg["gen"]], [data, f"{data}.npy", truth]),
            (["train", "--config", cfg["train"], "--data", data, "--folds", "2", "--out", str(tmp_path / "m.ckpt")],
             str(tmp_path / "m.ckpt.manifest.json"), TRAIN_CFG, 1, [cfg["train"], data],
             [ckpts[0], f"{ckpts[0]}.history.csv", ckpts[1], f"{ckpts[1]}.history.csv"]),
            *((["predict", "--ckpt", ckpt, "--data", data, "--out", pred], f"{pred}.manifest.json", "", None,
               [ckpt, data], [pred]) for ckpt, pred in zip(ckpts, preds)),
            (["ensemble", *preds, "--mode", "unanimity", "--postprocess", "--out", combined],
             f"{combined}.manifest.json", "", None, preds, [combined]),
            (["eval", "--pred", combined, "--truth", truth, "--task", "t2"], f"{combined}.report.csv.manifest.json",
             "", None, [combined, truth], [f"{combined}.report.csv"]),
        ]
        for argv, path, config, seed, inputs, outputs in runs:
            assert main(argv) == 0
            manifest = json.loads(Path(path).read_text())
            assert manifest.pop("duration_seconds") >= 0
            assert manifest == {
                "argv": argv, "command": argv[0], "config": config, "seed": seed, "inputs": inputs,
                "outputs": outputs, "version": ordchange.__version__,
            }
            assert all(Path(out).is_file() for out in outputs)
        assert capsys.readouterr().err == ""
        monkeypatch.chdir(tmp_path / "d")
        before = sorted(tmp_path.rglob("*"))
        assert main(["gradcheck", "--trials", "1", "--losses", "ce"]) == 0
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "command, out, blocker, work",
        [
            ("gen", "g", "g/truth.csv", "gen_t2_volumes"),
            ("predict", "p.csv", "p.csv.manifest.json", "load_checkpoint"),
            ("ensemble", "e.csv", "e.csv", "read_predictions_csv"),
            ("eval", "r.csv", "r.csv", "read_predictions_csv"),
        ],
        ids=["gen", "predict", "ensemble", "eval"],
    )
    def test_output_that_is_a_directory_exit_2_before_any_work(
        self, workdir, tmp_path, capsys, monkeypatch, command, out, blocker, work
    ):
        (tmp_path / blocker).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        calls = []
        monkeypatch.setattr(cli, work, lambda *args: calls.append(args))
        data, truth, preds = (str(workdir / name) for name in ("data/dataset.csv", "data/truth.csv", "preds.csv"))
        argv = {
            "gen": ["gen", "--config", str(workdir / "gen.cfg")],
            "predict": ["predict", "--ckpt", str(workdir / "model.ckpt"), "--data", data],
            "ensemble": ["ensemble", preds],
            "eval": ["eval", "--pred", preds, "--truth", truth, "--task", "t2"],
        }[command]
        assert main([*argv, "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr() == ("", f"error: output path {tmp_path / blocker} is a directory\n")
        assert calls == [] and sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["predict", "ensemble", "eval"])
    def test_output_into_a_missing_directory(self, workdir, tmp_path, command):
        out = tmp_path / "new" / "dir" / "out.csv"
        data, truth, preds = (str(workdir / name) for name in ("data/dataset.csv", "data/truth.csv", "preds.csv"))
        argv = {
            "predict": ["predict", "--ckpt", str(workdir / "model.ckpt"), "--data", data],
            "ensemble": ["ensemble", preds],
            "eval": ["eval", "--pred", preds, "--truth", truth, "--task", "t2"],
        }[command]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.is_file() and Path(f"{out}.manifest.json").is_file()
