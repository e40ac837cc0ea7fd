import numpy as np
import pytest

from ordchange.core import ClassLabel, Task
from ordchange.datagen import GenConfig, gen_t1_pairs, gen_t2_volumes
from ordchange.errors import ConfigError


def seed_direction(seed: int, dim: int) -> np.ndarray:
    """The ordinal direction a generator draws: the seed's first normal draw, normalized."""
    vec = np.random.default_rng(seed).normal(size=dim)
    return vec / np.linalg.norm(vec)


class TestGenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_patients": 0},
            {"visits_min": 0, "visits_max": 3},
            {"visits_min": 4, "visits_max": 2},
            {"bscans_min": 5, "bscans_max": 1},
            {"feature_dim": 0},
            {"class_ratios": (0.5, 0.5)},
            {"class_ratios": (0.5, 0.3, 0.1)},
            {"class_ratios": (0.6, 0.5, -0.1)},
            {"step_size": 0.0},
            {"noise_sigma": -1.0},
            {"patient_sigma": -0.5},
            {"other_rate": 1.5},
            {"other_rate": -0.1},
            {"seed": -1},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            GenConfig(**kwargs)

    @pytest.mark.parametrize("generate", [gen_t2_volumes, gen_t1_pairs])
    def test_negative_zero_sigmas_generate_as_zero(self, generate):
        zero = generate(GenConfig(n_patients=3, noise_sigma=0.0, patient_sigma=0.0, seed=4))
        negative_zero = generate(GenConfig(n_patients=3, noise_sigma=-0.0, patient_sigma=-0.0, seed=4))
        assert negative_zero.x.tobytes() == zero.x.tobytes()
        assert negative_zero.labels.tolist() == zero.labels.tolist()

    def test_direction_is_normalized(self):
        # Without offsets or noise, a Stable B-scan sits at step_size times the direction.
        cfg = GenConfig(n_patients=4, feature_dim=3, step_size=2.0, noise_sigma=0.0, patient_sigma=0.0, seed=5)
        data = gen_t2_volumes(cfg)
        stable = data.x[data.labels == ClassLabel.STABLE]
        assert len(stable)
        np.testing.assert_allclose(stable, np.broadcast_to(2.0 * seed_direction(5, 3), stable.shape), rtol=1e-12)


class TestT2Volumes:
    def test_determinism(self):
        a = gen_t2_volumes(GenConfig(n_patients=8, seed=3))
        b = gen_t2_volumes(GenConfig(n_patients=8, seed=3))
        assert len(a) == len(b)
        assert a.volume_id.tolist() == b.volume_id.tolist()
        assert a.bscan_index.tolist() == b.bscan_index.tolist()
        assert a.labels.tolist() == b.labels.tolist()
        assert a.x.tobytes() == b.x.tobytes()
        c = gen_t2_volumes(GenConfig(n_patients=8, seed=4))
        n = min(len(a), len(c))
        assert a.x[:n].tobytes() != c.x[:n].tobytes()

    def test_volume_labels_consistent(self):
        data = gen_t2_volumes(GenConfig(n_patients=20, seed=1))
        # The Dataset constructor already rejects duplicate keys and
        # conflicting labels; check the volume labels here independently.
        volume_labels: dict[str, set[int]] = {}
        for vol, lab in zip(data.volume_id.tolist(), data.labels.tolist()):
            volume_labels.setdefault(vol, set()).add(lab)
        assert all(len(labels) == 1 for labels in volume_labels.values())
        keys = list(zip(data.volume_id.tolist(), data.bscan_index.tolist()))
        assert len(set(keys)) == len(keys)

    def test_counts_respect_ranges(self):
        cfg = GenConfig(n_patients=15, visits_min=2, visits_max=4, bscans_min=3, bscans_max=6, seed=2)
        data = gen_t2_volumes(cfg)
        by_volume: dict[str, int] = {}
        by_patient: dict[str, set] = {}
        for patient, volume in zip(data.patient_id.tolist(), data.volume_id.tolist()):
            by_volume[volume] = by_volume.get(volume, 0) + 1
            by_patient.setdefault(patient, set()).add(volume)
        assert len(by_patient) == 15
        assert all(2 <= len(v) <= 4 for v in by_patient.values())
        assert all(3 <= n <= 6 for n in by_volume.values())

    def test_class_ratios_hold_at_scale(self):
        cfg = GenConfig(n_patients=600, class_ratios=(0.1, 0.8, 0.1), seed=5)
        data = gen_t2_volumes(cfg)
        volume_labels = dict(zip(data.volume_id.tolist(), data.labels.tolist()))
        counts = np.bincount(list(volume_labels.values()), minlength=3)
        fractions = counts / counts.sum()
        np.testing.assert_allclose(fractions, (0.1, 0.8, 0.1), atol=0.02)

    def test_separability_tracks_step_to_noise_ratio(self):
        def projection_accuracy(step, noise):
            cfg = GenConfig(
                n_patients=40, feature_dim=4, step_size=step, noise_sigma=noise,
                patient_sigma=0.0, class_ratios=(1 / 3, 1 / 3, 1 / 3),
                seed=11,
            )
            data = gen_t2_volumes(cfg)
            proj = data.x @ seed_direction(11, 4)
            centers = np.array([0.0, step, 2.0 * step])
            pred = np.argmin(np.abs(proj[:, None] - centers[None, :]), axis=1)
            return float(np.mean(pred == data.labels))

        assert projection_accuracy(3.0, 0.1) > 0.95
        assert projection_accuracy(0.1, 3.0) < 0.6

    def test_patient_offsets_confound_features(self):
        def patient_spread(sigma):
            cfg = GenConfig(n_patients=30, noise_sigma=0.1, patient_sigma=sigma, seed=7)
            data = gen_t2_volumes(cfg)
            centers = np.array([data.x[data.patient_id == p].mean(axis=0) for p in np.unique(data.patient_id)])
            return float(np.linalg.norm(centers - centers.mean(axis=0), axis=1).mean())

        assert patient_spread(5.0) > 3.0 * patient_spread(0.0)


class TestT1Pairs:
    def test_determinism(self):
        a = gen_t1_pairs(GenConfig(n_patients=10, seed=3))
        b = gen_t1_pairs(GenConfig(n_patients=10, seed=3))
        assert len(a) == len(b)
        assert a.labels.tolist() == b.labels.tolist()
        assert a.x.tobytes() == b.x.tobytes()
        assert a.x_b.tobytes() == b.x_b.tobytes()

    def test_pair_count_is_visits_minus_one(self):
        cfg = GenConfig(n_patients=25, visits_min=4, visits_max=4, seed=9)
        assert len(gen_t1_pairs(cfg)) == 25 * 3

    def test_label_matches_projection_delta(self):
        cfg = GenConfig(
            n_patients=50, feature_dim=3, step_size=1.0, noise_sigma=0.01,
            patient_sigma=0.0, other_rate=0.0, class_ratios=(0.3, 0.4, 0.3), seed=13,
        )
        data = gen_t1_pairs(cfg)
        for delta, label in zip(((data.x_b - data.x) @ seed_direction(13, 3)).tolist(), data.labels.tolist()):
            if label == ClassLabel.REDUCED:
                assert delta < -0.5
            elif label == ClassLabel.STABLE:
                assert abs(delta) < 0.5
            else:
                assert label == ClassLabel.WORSENED and delta > 0.5

    def test_other_rate_sets_other_fraction(self):
        cfg = GenConfig(n_patients=800, visits_min=4, visits_max=4, other_rate=0.10, seed=17)
        data = gen_t1_pairs(cfg)
        fraction = np.mean(data.labels == ClassLabel.OTHER)
        assert abs(fraction - 0.10) < 0.02

    def test_other_rate_zero_never_emits_other(self):
        data = gen_t1_pairs(GenConfig(n_patients=100, other_rate=0.0, seed=19))
        assert not np.any(data.labels == ClassLabel.OTHER)

    def test_step_labels_follow_class_ratios(self):
        cfg = GenConfig(
            n_patients=1500, visits_min=3, visits_max=3, other_rate=0.0,
            class_ratios=(0.2, 0.6, 0.2), seed=23,
        )
        counts = np.bincount(gen_t1_pairs(cfg).labels, minlength=3)
        np.testing.assert_allclose(counts / counts.sum(), (0.2, 0.6, 0.2), atol=0.02)

    def test_single_visit_patients_give_an_empty_dataset(self):
        data = gen_t1_pairs(GenConfig(n_patients=3, visits_min=1, visits_max=1, feature_dim=4))
        assert len(data) == 0 and data.x.shape == (0, 4) and data.task is Task.T1
