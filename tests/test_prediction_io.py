"""Golden digests of ``predict``'s prediction CSV and ``eval``'s report CSV
for fixed small runs, taken from the per-row prediction records that the
columnar prediction table replaced."""

import contextlib
import hashlib
import io

import pytest

from ordchange.cli import main

CASES = {
    # t2: two folds, the first fold's predictions, and eval of their
    # unanimity ensemble with volume consistency (the final_label column)
    "t2": (
        "task=t2\nn_patients=9\nvisits_min=2\nvisits_max=3\nbscans_min=3\nbscans_max=6\n"
        "feature_dim=4\nclass_ratios=0.15,0.7,0.15\nnoise_sigma=1.0\nseed=3\n",
        "task=t2\nloss=combined\nencoder_dims=4,6\nhead_dims=6,3\nepochs=3\nlr=0.01\nbatch_size=8\nseed=3\n",
        2,
    ),
    # t1: one split, and eval of its predictions (the pred_label column)
    "t1": (
        "task=t1\nn_patients=12\nvisits_min=3\nvisits_max=4\nfeature_dim=4\n"
        "class_ratios=0.3,0.4,0.3\nother_rate=0.2\nseed=3\n",
        "task=t1\nloss=focal\nencoder_dims=4,6\nhead_dims=12,4\nepochs=3\nlr=0.05\nbatch_size=8\nseed=4\n",
        0,
    ),
}
GOLDEN = {
    # task: (predictions CSV, report CSV)
    "t2": (
        "e953db547b749fc4760ee7739ea5b4e3e63f6a9f4c3ddcae4c1e7795d9df3dbc",
        "936d2093ac69e6c26b4cabc6167af93ab29f563df2998cb7134072d7d1802770",
    ),
    "t1": (
        "c38d24fcfb70986df4a9763b1d876d48807b7fc783292de469f1911cc8697a86",
        "351f576d1f7706a6bf2dc038360881f94eac90f9b4679c97d3228aeaa8f5d677",
    ),
}


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("task", sorted(CASES))
def test_predict_and_eval_match_golden_digests(task, tmp_path):
    gen_cfg, train_cfg, folds = CASES[task]
    (tmp_path / "gen.cfg").write_text(gen_cfg)
    (tmp_path / "train.cfg").write_text(train_cfg)
    data = tmp_path / "d"
    ckpts = [tmp_path / "m.ckpt"] if folds == 0 else [tmp_path / f"m.fold{i}.ckpt" for i in range(folds)]
    preds = [tmp_path / f"p{i}.csv" for i in range(len(ckpts))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(data)]) == 0
        assert main(["train", "--config", str(tmp_path / "train.cfg"), "--data", str(data / "dataset.csv"),
                     "--out", str(tmp_path / "m.ckpt"), "--folds", str(folds)]) == 0
        for ckpt, pred in zip(ckpts, preds):
            assert main(["predict", "--ckpt", str(ckpt), "--data", str(data / "dataset.csv"),
                         "--out", str(pred)]) == 0
        scored = preds[0]
        if len(preds) > 1:
            scored = tmp_path / "ensemble.csv"
            assert main(["ensemble", *map(str, preds), "--mode", "unanimity", "--postprocess",
                         "--out", str(scored)]) == 0
        assert main(["eval", "--pred", str(scored), "--truth", str(data / "truth.csv"), "--task", task,
                     "--out", str(tmp_path / "report.csv")]) == 0
    assert (sha(preds[0]), sha(tmp_path / "report.csv")) == GOLDEN[task]
