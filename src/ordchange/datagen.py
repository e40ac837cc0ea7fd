"""Seeded synthetic longitudinal datasets with a geometric ordinal structure.

Every patient gets a random offset in feature space; every volume sits at

    latent = patient_offset + rank(class) * step_size * direction,

where direction is a random unit vector, the seed's first draw. Its B-scans
scatter around the latent with isotropic noise. Class separability is
therefore controlled by the step_size / noise_sigma ratio, while patient
offsets act as confounds that only patient-disjoint splits can expose. Visit
pairs walk a per-patient activity level between consecutive visits and are
labeled by the sign of the change; a configurable fraction is corrupted
(noise burst or sign flip) and relabeled as the catch-all class.

Both generators return a columnar ``Dataset``: one row per B-scan for T2,
one row per visit pair for T1. All generation is driven by a single seed and
is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassLabel, Dataset, Task
from .errors import ConfigError


@dataclass(frozen=True)
class GenConfig:
    """Task, shape and geometry of a generated dataset; each field is the gen
    config key of its name. Visit and B-scan counts are drawn from [min, max].
    class_ratios orders the three ordinal classes (reduced, stable, worsened);
    pair generation draws activity deltas with exactly these probabilities,
    so they set the label distribution in both tasks.
    """

    task: Task = Task.T2
    n_patients: int = 60
    visits_min: int = 3
    visits_max: int = 5
    bscans_min: int = 6
    bscans_max: int = 10
    feature_dim: int = 16
    class_ratios: tuple[float, float, float] = (0.10, 0.80, 0.10)
    step_size: float = 1.0
    noise_sigma: float = 0.5
    patient_sigma: float = 1.0
    other_rate: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise ConfigError(f"n_patients must be >= 1, got {self.n_patients}")
        for name in ("visits", "bscans"):
            lo, hi = getattr(self, f"{name}_min"), getattr(self, f"{name}_max")
            if lo < 1 or hi < lo:
                raise ConfigError(f"{name}_min and {name}_max must satisfy 1 <= min <= max, got ({lo}, {hi})")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        ratios = tuple(float(r) for r in self.class_ratios)
        if len(ratios) != 3 or any(r < 0 for r in ratios):
            raise ConfigError(f"class_ratios must be three non-negative reals, got {self.class_ratios}")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"class_ratios must sum to 1, got sum {sum(ratios)!r}")
        object.__setattr__(self, "class_ratios", ratios)
        if not (self.step_size > 0):
            raise ConfigError(f"step_size must be > 0, got {self.step_size}")
        for name in ("noise_sigma", "patient_sigma", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
            object.__setattr__(self, name, getattr(self, name) + 0)  # -0.0 to 0.0: numpy rejects a scale of -0.0
        if not (0.0 <= self.other_rate <= 1.0):
            raise ConfigError(f"other_rate must lie in [0, 1], got {self.other_rate}")


def _direction(cfg: GenConfig, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=cfg.feature_dim)
    norm = np.linalg.norm(vec)
    while norm == 0.0:  # vanishing draws are essentially impossible but cheap to guard
        vec = rng.normal(size=cfg.feature_dim)
        norm = np.linalg.norm(vec)
    return vec / norm


def gen_t2_volumes(cfg: GenConfig) -> Dataset:
    """Generate a labeled B-scan dataset for the 3-class single-scan task.

    Every volume draws its class from class_ratios; all B-scans of a volume
    share the volume's label and scatter around its latent with noise_sigma.
    A volume's B-scans are drawn as one (n_bscans, feature_dim) block, which
    consumes the stream exactly as one draw per B-scan would.
    """
    rng = np.random.default_rng(cfg.seed)
    direction = _direction(cfg, rng)
    volumes: list[tuple[str, str, str, ClassLabel]] = []  # (patient, visit, volume, label)
    blocks: list[np.ndarray] = []
    for p in range(cfg.n_patients):
        patient_id = f"P{p:03d}"
        offset = rng.normal(0.0, cfg.patient_sigma, size=cfg.feature_dim)
        n_visits = int(rng.integers(cfg.visits_min, cfg.visits_max + 1))
        for v in range(n_visits):
            label = ClassLabel(int(rng.choice(3, p=cfg.class_ratios)))
            latent = offset + int(label) * cfg.step_size * direction
            volumes.append((patient_id, f"V{v:02d}", f"{patient_id}_V{v:02d}", label))
            n_bscans = int(rng.integers(cfg.bscans_min, cfg.bscans_max + 1))
            blocks.append(latent + rng.normal(0.0, cfg.noise_sigma, size=(n_bscans, cfg.feature_dim)))
    sizes = [len(b) for b in blocks]
    patient_id, visit_id, volume_id, labels = (np.repeat(col, sizes) for col in zip(*volumes))
    return Dataset(
        x=np.concatenate(blocks),
        labels=labels,
        patient_id=patient_id,
        visit_id=visit_id,
        volume_id=volume_id,
        bscan_index=np.concatenate([np.arange(n) for n in sizes]),
    )


def gen_t1_pairs(cfg: GenConfig) -> Dataset:
    """Generate visit pairs for the 4-class comparison task.

    A per-patient activity level takes steps in {-1, 0, +1} drawn with
    class_ratios between consecutive visits; the pair label is the sign of
    the step (Reduced / Stable / Worsened). With probability other_rate one
    member of the pair is corrupted (a heavy noise burst or a sign flip) and
    the pair is relabeled OTHER.
    """
    rng = np.random.default_rng(cfg.seed)
    direction = _direction(cfg, rng)
    sign_label = {-1: ClassLabel.REDUCED, 0: ClassLabel.STABLE, 1: ClassLabel.WORSENED}
    patients: list[str] = []
    labels: list[ClassLabel] = []
    rows_a: list[np.ndarray] = []
    rows_b: list[np.ndarray] = []
    for p in range(cfg.n_patients):
        patient_id = f"P{p:03d}"
        offset = rng.normal(0.0, cfg.patient_sigma, size=cfg.feature_dim)
        n_visits = int(rng.integers(cfg.visits_min, cfg.visits_max + 1))
        activity = int(rng.integers(0, 3))
        for _ in range(n_visits - 1):
            delta = int(rng.choice((-1, 0, 1), p=cfg.class_ratios))
            nxt = activity + delta
            feats_a = offset + activity * cfg.step_size * direction + rng.normal(
                0.0, cfg.noise_sigma, size=cfg.feature_dim
            )
            feats_b = offset + nxt * cfg.step_size * direction + rng.normal(
                0.0, cfg.noise_sigma, size=cfg.feature_dim
            )
            label = sign_label[delta]
            if cfg.other_rate > 0 and rng.random() < cfg.other_rate:
                corrupt_b = rng.random() < 0.5
                target = feats_b if corrupt_b else feats_a
                if rng.random() < 0.5:
                    target = target + rng.normal(
                        0.0, 10.0 * max(cfg.noise_sigma, cfg.step_size), size=cfg.feature_dim
                    )
                else:
                    target = -target
                if corrupt_b:
                    feats_b = target
                else:
                    feats_a = target
                label = ClassLabel.OTHER
            patients.append(patient_id)
            labels.append(label)
            rows_a.append(feats_a)
            rows_b.append(feats_b)
            activity = nxt
    shape = (len(labels), cfg.feature_dim)
    return Dataset(
        x=np.reshape(rows_a, shape), x_b=np.reshape(rows_b, shape), labels=labels, patient_id=patients
    )
