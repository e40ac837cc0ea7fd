"""The benchmark's workloads: generated configs and the CLI command sequence.

Every config carries the workload seed, so one seed fixes every input. The
program only ever sees these config files and the datasets ``gen`` writes
from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    gen: dict
    train: dict
    folds: int
    ensemble: tuple[str, ...]
    # When False, ``gen`` runs during set-up and the measured sequence
    # starts at ``train``.
    gen_measured: bool
    # Fold threads (ORDCHANGE_THREADS) this workload asks for, capped at nproc.
    fold_threads: int = 1

    def config_text(self, values: dict, seed: int) -> str:
        lines = [f"task={self.task}"] + [f"{k}={v}" for k, v in values.items()] + [f"seed={seed}"]
        return "\n".join(lines) + "\n"

    def data_dir(self, setup: Path, out: Path) -> Path:
        """Where ``gen`` wrote the dataset: the repetition's own directory when
        ``gen`` is measured, else the set-up directory."""
        return out / "data" if self.gen_measured else setup / "data"

    def checkpoints(self, out: Path) -> list[Path]:
        if self.folds == 0:
            return [out / "model.ckpt"]
        return [out / f"model.fold{i}.ckpt" for i in range(self.folds)]

    def predictions(self, out: Path) -> list[Path]:
        return [out / f"pred{i}.csv" for i in range(len(self.checkpoints(out)))]

    def commands(self, cfg: Path, data: Path, out: Path) -> list[tuple[str, list[str]]]:
        """The measured sequence as (stage, argv) pairs, run one after another."""
        dataset = str(data / "dataset.csv")
        seq = []
        if self.gen_measured:
            seq.append(("gen", ["gen", "--config", str(cfg / "gen.cfg"), "--out", str(data)]))
        train = ["train", "--config", str(cfg / "train.cfg"), "--data", dataset]
        train += ["--out", str(out / "model.ckpt"), "--folds", str(self.folds)]
        seq.append(("train", train))
        for ckpt, pred in zip(self.checkpoints(out), self.predictions(out)):
            seq.append(("predict", ["predict", "--ckpt", str(ckpt), "--data", dataset, "--out", str(pred)]))
        ensemble = ["ensemble", *map(str, self.predictions(out)), *self.ensemble]
        seq.append(("ensemble", ensemble + ["--out", str(out / "ensemble.csv")]))
        seq.append(
            (
                "eval",
                ["eval", "--pred", str(out / "ensemble.csv"), "--truth", str(data / "truth.csv"),
                 "--task", self.task, "--out", str(out / "report.csv")],
            )
        )
        return seq


WORKLOADS = {
    w.name: w
    for w in (
        # The whole loop at the ROADMAP Baseline shape with fewer patients, so
        # that many repetitions fit in one run. CSV text I/O and the per-row
        # ensemble checks do most of its work.
        Workload(
            name="t2_pipeline",
            task="t2",
            # The middle of the Baseline's 4-6 visits and 20-30 B-scans for
            # every patient: a seed changes the values, not the row count.
            gen={
                "n_patients": 25,
                "visits_min": 5,
                "visits_max": 5,
                "bscans_min": 25,
                "bscans_max": 25,
                "feature_dim": 64,
                "class_ratios": "0.1,0.8,0.1",
            },
            train={
                "loss": "combined",
                "encoder_dims": "64,128",
                "head_dims": "128,3",
                "epochs": 10,
                "lr": 0.001,
                "batch_size": 64,
                "balanced_batches": "true",
            },
            folds=2,
            ensemble=("--mode", "unanimity", "--postprocess"),
            gen_measured=True,
        ),
        # Many small Adam steps on 1,600 rows: per-step Python overhead in model
        # and losses dominates, so CSV or ensemble changes should not move it.
        Workload(
            name="t2_train_loop",
            task="t2",
            # 800 volumes of 2 B-scans: a fixed row count, and enough volumes
            # that the balanced-batch step count varies little between seeds.
            gen={
                "n_patients": 200,
                "visits_min": 4,
                "visits_max": 4,
                "bscans_min": 2,
                "bscans_max": 2,
                "feature_dim": 32,
                "class_ratios": "0.1,0.8,0.1",
            },
            train={
                "loss": "combined",
                "encoder_dims": "32,64",
                "head_dims": "64,3",
                "dropout": 0.2,
                "epochs": 20,
                "warmup_epochs": 5,
                "lr": 0.001,
                "batch_size": 32,
                "balanced_batches": "true",
                "optimizer": "adam",
            },
            folds=0,
            # A single-file mean ensemble is a pass-through; it keeps every
            # stage in the sequence at a negligible cost.
            ensemble=("--mode", "mean"),
            gen_measured=False,
        ),
        # t1 pairs through the siamese encoder with focal loss, SGD,
        # undersampling, three folds on the thread pool and a mean vote: the
        # other branches of the same layers. BENCHMARK.json does not list it:
        # the time limit for all runs fits only two workloads at a run length
        # that keeps them steady. Run it by hand for a change to these branches.
        Workload(
            name="t1_folds",
            task="t1",
            gen={
                "n_patients": 700,
                "visits_min": 4,
                "visits_max": 6,
                "feature_dim": 32,
                "class_ratios": "0.15,0.7,0.15",
                "other_rate": 0.1,
            },
            train={
                "loss": "focal",
                "gamma": 2.0,
                "encoder_dims": "32,64",
                "head_dims": "128,4",
                "epochs": 25,
                "lr": 0.01,
                "lr_decay": 0.97,
                "batch_size": 32,
                "undersample_majority": 1.0,
                "optimizer": "sgd",
                "weight_decay": 0.0001,
            },
            folds=3,
            ensemble=("--mode", "mean"),
            gen_measured=True,
            fold_threads=2,
        ),
    )
}
