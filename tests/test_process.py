"""Commands run as fresh interpreters, the way the console script runs them,
and the heap freeze that importing ``ordchange.cli`` makes once."""

import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ordchange.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

GEN_CFG = "task=t2\nn_patients=6\nvisits_min=2\nvisits_max=2\nbscans_min=3\nbscans_max=3\nfeature_dim=4\nseed=5\n"
TRAIN_CFG = "task=t2\nencoder_dims=4,6\nhead_dims=6,3\nepochs=2\nbatch_size=8\nseed=2\n"

# One tiny gen -> train -> predict -> ensemble -> eval chain, in paths relative to its directory.
CHAIN = [
    ["gen", "--config", "gen.cfg", "--out", "d"],
    ["train", "--config", "train.cfg", "--data", "d/dataset.csv", "--out", "m.ckpt"],
    ["predict", "--ckpt", "m.ckpt", "--data", "d/dataset.csv", "--out", "p.csv"],
    ["ensemble", "p.csv", "--mode", "unanimity", "--postprocess", "--out", "e.csv"],
    ["eval", "--pred", "e.csv", "--truth", "d/truth.csv", "--task", "t2"],
]


def chain_dir(root: Path) -> Path:
    root.mkdir()
    (root / "gen.cfg").write_text(GEN_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    return root


def outputs(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and not path.name.endswith("manifest.json")
    }


@pytest.fixture(scope="module")
def in_process(tmp_path_factory) -> tuple[Path, int, int]:
    """The chain run through ``main`` in this process, with the freeze count before and after."""
    root = chain_dir(tmp_path_factory.mktemp("process") / "in_process")
    before = gc.get_freeze_count()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in CHAIN:
            assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return root, before, gc.get_freeze_count()


def test_commands_in_process_freeze_nothing_more(in_process):
    # A frozen object can still be freed by its reference count, so the count may fall; a freeze in ``main``
    # would add every object tracked since the import.
    _, before, after = in_process
    assert before > 0 and after <= before


def test_fresh_processes(in_process, tmp_path):
    """A fresh interpreter has its import frozen and the collector on, and the
    chain run through ``python -m ordchange.cli`` writes the in-process bytes."""
    probe = "import gc, ordchange.cli; print(gc.isenabled(), gc.get_freeze_count())"
    with subprocess.Popen([sys.executable, "-c", probe], env=ENV, stdout=subprocess.PIPE, text=True) as probing:
        root = chain_dir(tmp_path / "fresh")
        for argv in CHAIN:
            done = subprocess.run(
                [sys.executable, "-m", "ordchange.cli", *argv], cwd=root, env=ENV, capture_output=True
            )
            assert done.returncode == 0, done.stderr
            assert done.stderr == b""
        enabled, frozen = probing.communicate()[0].split()
    assert probing.returncode == 0 and enabled == "True" and int(frozen) > 0
    written = outputs(root)
    assert len(written) == 10  # 2 configs, dataset, twin, truth, checkpoint, history, 2 prediction CSVs, report
    assert written == outputs(in_process[0])


def loaded(argv: list[str], cwd: Path) -> set[str]:
    """The ordchange modules a fresh interpreter imports to run ``argv``, from the import lines of ``python -v``."""
    done = subprocess.run([sys.executable, "-v", *argv], cwd=cwd, env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    return {line.split("'")[1] for line in done.stderr.splitlines() if line.startswith("import 'ordchange")}


def test_importing_cli_loads_no_module_a_command_runs(tmp_path):
    modules = loaded(["-c", "import ordchange.cli"], tmp_path)
    assert modules == {"ordchange", "ordchange.core", "ordchange.errors", "ordchange.cli"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["gen", "--config", "gen.cfg", "--out", "g"], {"model", "metrics"}),
        (["ensemble", "p.csv", "--mode", "unanimity", "--postprocess", "--out", "e2.csv"], {"model", "datagen"}),
        (["eval", "--pred", "e.csv", "--truth", "d/truth.csv", "--task", "t2", "--out", "r.csv"], {"model", "datagen"}),
        (["predict", "--ckpt", "m.ckpt", "--data", "d/dataset.csv", "--out", "p2.csv"], {"datagen"}),
    ],
    ids=["gen", "ensemble", "eval", "predict"],
)
def test_a_command_loads_only_the_modules_it_runs(in_process, tmp_path, argv, unused):
    root = shutil.copytree(in_process[0], tmp_path / "chain")
    modules = loaded(["-m", "ordchange.cli", *argv], root)
    assert "ordchange.core" in modules and not modules & {f"ordchange.{name}" for name in unused}
