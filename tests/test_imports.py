"""``cli`` imports each module a command runs when the command starts. The
names it takes from those modules stay ``cli`` attributes, a replacement set
on ``cli`` wins, and the command line parser is unchanged."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_process import ENV

import ordchange.cli as cli
from ordchange.cli import main

# Every name ``cli`` imported at module level from these modules before its imports were made per command.
IMPORTED = {
    "datagen": ["GenConfig", "gen_t1_pairs", "gen_t2_volumes"],
    "ensemble": ["PostprocessConfig", "TieBreak", "mean_ensemble", "unanimity_ensemble", "volume_consistency"],
    "losses": ["LOSS_KINDS", "LossConfig", "check_loss_kind", "finite_difference_check"],
    "metrics": ["METRIC_NAMES", "MetricReport", "compute_report"],
    "model": ["TrainConfig", "finite_difference_check_params", "init_params", "load_checkpoint", "predict",
              "save_checkpoint", "train"],
}

# ``python -m ordchange.cli`` with COLUMNS=80, as taken before the imports were made per command: each
# command's help, and the argparse errors of the choices that come from ``losses``, ``ensemble`` and ``core``.
PARSER_TEXT = json.loads((Path(__file__).parent / "parser_text.json").read_text())


@pytest.mark.parametrize("module, name", [(module, name) for module, names in IMPORTED.items() for name in names])
def test_every_imported_name_is_a_cli_attribute(module, name):
    assert getattr(cli, name) is getattr(importlib.import_module(f"ordchange.{module}"), name)


def test_a_name_cli_never_had_is_absent():
    assert getattr(cli, "PredictionSet", None) is None  # how the bench harness finds a stale name
    with pytest.raises(AttributeError, match="has no attribute 'siamese_forward'"):
        cli.siamese_forward


@pytest.mark.parametrize(
    "command, module, name",
    [("eval", "metrics", "compute_report"), ("ensemble", "ensemble", "mean_ensemble"),
     ("predict", "model", "predict"), ("gen", "datagen", "gen_t2_volumes")],
)
def test_a_replacement_set_on_cli_is_the_one_the_command_calls(tmp_path, monkeypatch, command, module, name):
    """The bench harness wraps a name by reading it from ``cli`` and setting it back, before it is bound."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gen.cfg").write_text("task=t2\nn_patients=4\nvisits_min=2\nvisits_max=2\nfeature_dim=3\n")
    (tmp_path / "train.cfg").write_text("task=t2\nencoder_dims=3,4\nhead_dims=4,3\nepochs=1\n")
    for argv in (["gen", "--config", "gen.cfg", "--out", "d"],
                 ["train", "--config", "train.cfg", "--data", "d/dataset.csv", "--out", "m.ckpt"],
                 ["predict", "--ckpt", "m.ckpt", "--data", "d/dataset.csv", "--out", "p.csv"]):
        assert main(argv) == 0
    monkeypatch.delitem(vars(cli), name, raising=False)
    real, calls = getattr(importlib.import_module(f"ordchange.{module}"), name), []
    monkeypatch.setattr(cli, name, lambda *args: calls.append(name) or real(*args))
    argv = {
        "gen": ["gen", "--config", "gen.cfg", "--out", "g"],
        "predict": ["predict", "--ckpt", "m.ckpt", "--data", "d/dataset.csv", "--out", "q.csv"],
        "ensemble": ["ensemble", "p.csv", "--out", "e.csv"],
        "eval": ["eval", "--pred", "p.csv", "--truth", "d/truth.csv", "--task", "t2"],
    }[command]
    assert main(argv) == 0 and calls == [name]


@pytest.mark.parametrize("case", PARSER_TEXT, ids=[" ".join(case["argv"]) for case in PARSER_TEXT])
def test_the_parser_is_unchanged(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(case["argv"])
    assert (exit_.value.code, *capsys.readouterr()) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("folds", [[], ["--folds", "2"]], ids=["one split", "two folds"])
def test_gen_and_train_do_not_load_numpy_ma(tmp_path, folds):
    """``np.unique`` without its optional outputs imports ``numpy.ma``; ``train``
    splits patients with Python sets, so a ``train`` process never loads it."""
    (tmp_path / "gen.cfg").write_text("task=t2\nn_patients=4\nvisits_min=2\nvisits_max=2\nfeature_dim=3\n")
    (tmp_path / "train.cfg").write_text("task=t2\nencoder_dims=3,4\nhead_dims=4,3\nepochs=1\n")
    probe = (
        "import sys\nfrom ordchange.cli import main\n"
        "assert main(['gen', '--config', 'gen.cfg', '--out', 'd']) == 0\n"
        f"assert main(['train', '--config', 'train.cfg', '--data', 'd/dataset.csv', '--out', 'm.ckpt', *{folds!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "False"


def test_gen_and_train_load_no_process_pool_module(tmp_path):
    """``gen`` splits its CSV rows with ``os.fork`` alone; importing
    ``multiprocessing`` or ``concurrent.futures`` would charge every command's
    start-up. The split size is patched down so that this small ``gen`` forks."""
    (tmp_path / "gen.cfg").write_text("task=t2\nn_patients=4\nvisits_min=2\nvisits_max=2\nfeature_dim=3\n")
    (tmp_path / "train.cfg").write_text("task=t2\nencoder_dims=3,4\nhead_dims=4,3\nepochs=1\n")
    probe = (
        "import os, sys\nimport ordchange.cli as cli\n"
        "cli._SPLIT_VALUES, os.sched_getaffinity, fork, forks = 1, lambda pid: {0, 1}, os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "assert cli.main(['gen', '--config', 'gen.cfg', '--out', 'd']) == 0 and forks\n"
        "assert cli.main(['train', '--config', 'train.cfg', '--data', 'd/dataset.csv', '--out', 'm.ckpt']) == 0\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "[]"
