import warnings

import numpy as np
import pytest

import reference_metrics as ref
from ordchange.core import Task
from ordchange.errors import ConfigError, InvalidInputError, UndefinedMetricError
from ordchange.metrics import T1_AVERAGE_COMPONENTS, T2_AVERAGE_COMPONENTS, challenge_average, compute_report, suite

HAND_MATRIX = np.array([[5, 2, 0], [1, 6, 1], [0, 2, 3]])


def random_confusion(rng: np.random.Generator) -> np.ndarray:
    n_classes = int(rng.integers(2, 6))
    cm = rng.poisson(3.0, size=(n_classes, n_classes))
    if rng.random() < 0.2:
        cm[int(rng.integers(0, n_classes))] = 0  # some class absent from truth
    if cm.sum() == 0:
        cm[0, 0] = 1
    return cm


class TestFrozenValues:
    """Spot values frozen from the brute-force script before this module."""

    def test_hand_matrix(self):
        values = suite(HAND_MATRIX)[0]
        assert values["qw_kappa"] == pytest.approx(0.7222222222222223, abs=1e-15)
        assert values["rk_correlation"] == pytest.approx(0.5413804893762535, abs=1e-15)
        assert values["cohens_kappa"] == pytest.approx(0.5348837209302325, abs=1e-15)

    def test_symmetric_2x2(self):
        values = suite(np.array([[2, 1], [1, 2]]))[0]
        assert values["micro_f1"] == pytest.approx(2.0 / 3.0)
        assert values["specificity"] == pytest.approx(2.0 / 3.0)
        assert values["rk_correlation"] == pytest.approx(1.0 / 3.0)
        assert values["cohens_kappa"] == pytest.approx(1.0 / 3.0)
        assert values["qw_kappa"] == pytest.approx(1.0 / 3.0)

    def test_perfect_predictions_score_one(self):
        cm = np.diag([4, 7, 2])
        report = compute_report(cm, Task.T2)
        for name, value in report.values().items():
            assert value == pytest.approx(1.0), name
        assert report.flags == ()


class TestOracleAgreement:
    def test_fifty_random_matrices(self):
        rng = np.random.default_rng(2024)
        pairs = [
            ("micro_f1", ref.ref_micro_f1),
            ("specificity", ref.ref_specificity),
            ("rk_correlation", ref.ref_rk),
            ("cohens_kappa", ref.ref_cohens_kappa),
            ("qw_kappa", ref.ref_qw_kappa),
            ("balanced_accuracy", ref.ref_balanced_accuracy),
        ]
        for _ in range(50):
            cm = random_confusion(rng)
            values = suite(cm)[0]
            for name, slow in pairs:
                assert values[name] == pytest.approx(slow(cm.tolist()), abs=1e-9), (name, cm.tolist())

    def test_micro_f1_equals_accuracy(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            cm = random_confusion(rng)
            assert suite(cm)[0]["micro_f1"] == pytest.approx(np.trace(cm) / cm.sum(), abs=1e-12)

    def test_qwk_equals_cohens_kappa_binary(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(300):
            cm = rng.poisson(2.0, size=(2, 2))
            if cm.sum() == 0:
                continue
            values = suite(cm)[0]
            assert values["qw_kappa"] == pytest.approx(values["cohens_kappa"], abs=1e-12)
            checked += 1
        assert checked > 250


def kernel_flags(cm) -> tuple[str, ...]:
    """The degenerate flags the metric kernel gives for a matrix."""
    return suite(cm)[1]


class TestDegenerateHandling:
    def test_constant_predictions_flag_rk(self):
        cm = np.array([[3, 0, 0], [4, 0, 0], [2, 0, 0]])  # everything predicted class 0
        assert suite(cm)[0]["rk_correlation"] == 0.0
        assert "rk_correlation:degenerate" in kernel_flags(cm)

    def test_single_class_truth_skips_specificity(self):
        cm = np.array([[0, 0], [5, 0]])
        assert suite(cm)[0]["specificity"] == 0.0
        assert "specificity:skipped_class:1" in kernel_flags(cm)

    def test_empty_truth_class_skipped_in_balanced_accuracy(self):
        cm = np.array([[3, 1, 0], [0, 0, 0], [1, 0, 2]])
        assert suite(cm)[0]["balanced_accuracy"] == pytest.approx((3 / 4 + 2 / 3) / 2)
        assert "balanced_accuracy:empty_class:1" in kernel_flags(cm)

    def test_report_collects_flags(self):
        cm = np.array([[3, 0, 0], [4, 0, 0], [2, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # flags must be captured, not leak
            report = compute_report(cm, Task.T2)
        assert "rk_correlation:degenerate" in report.flags
        assert report.rk_correlation == 0.0

    def test_all_agreement_by_chance_kappa(self):
        cm = np.array([[7, 0], [0, 0]])  # p_e == 1: agreement indistinguishable from chance
        assert suite(cm)[0]["cohens_kappa"] == 0.0
        assert "cohens_kappa:degenerate" in kernel_flags(cm)

    def test_empty_matrix_rejected(self):
        with pytest.raises(UndefinedMetricError):
            suite(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros(4), np.array([["a", "b"], ["c", "d"]])])
    def test_malformed_matrices_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            suite(bad)

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            suite(np.array([[1, -1], [0, 2]]))


class TestChallengeAverage:
    def test_component_lists(self):
        assert T1_AVERAGE_COMPONENTS == ("micro_f1", "rk_correlation", "specificity")
        assert T2_AVERAGE_COMPONENTS == (
            "qw_kappa",
            "micro_f1",
            "rk_correlation",
            "specificity",
        )

    def test_published_t1_rows(self):
        single = challenge_average(
            Task.T1, {"micro_f1": 0.817, "rk_correlation": 0.642, "specificity": 0.917}
        )
        ensemble = challenge_average(
            Task.T1, {"micro_f1": 0.833, "rk_correlation": 0.657, "specificity": 0.911}
        )
        assert single == pytest.approx(0.7920000000000001, abs=1e-15)
        assert ensemble == pytest.approx(0.8003333333333332, abs=1e-15)
        assert round(single, 3) == 0.792
        assert round(ensemble, 3) == 0.800

    def test_t2_average_is_four_way_mean(self):
        values = {
            "qw_kappa": 0.4,
            "micro_f1": 0.6,
            "rk_correlation": 0.2,
            "specificity": 0.8,
        }
        assert challenge_average(Task.T2, values) == pytest.approx(0.5)

    def test_missing_component_rejected(self):
        with pytest.raises(ConfigError, match="specificity"):
            challenge_average(Task.T1, {"micro_f1": 0.8, "rk_correlation": 0.5})

    def test_extra_keys_ignored(self):
        values = {name: 0.5 for name in T2_AVERAGE_COMPONENTS}
        values["balanced_accuracy"] = 0.99
        assert challenge_average(Task.T2, values) == pytest.approx(0.5)


class TestComputeReport:
    def test_shape_must_match_task(self):
        with pytest.raises(InvalidInputError):
            compute_report(HAND_MATRIX, Task.T1)

    def test_report_values_consistent(self):
        report = compute_report(HAND_MATRIX, Task.T2)
        vals = report.values()
        assert vals["micro_f1"] == pytest.approx(suite(HAND_MATRIX)[0]["micro_f1"])
        assert vals["qw_kappa"] == pytest.approx(0.7222222222222223)
        assert report.average == pytest.approx(challenge_average(Task.T2, vals))

    def test_t1_report_ignores_qwk_in_average(self):
        cm = np.array([[4, 1, 0, 0], [1, 5, 1, 0], [0, 1, 3, 1], [0, 0, 1, 2]])
        report = compute_report(cm, Task.T1)
        expected = np.mean(
            [report.micro_f1, report.rk_correlation, report.specificity]
        )
        assert report.average == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-100, 1e-200])
    def test_total_too_small_to_score_rejected(self, scale):
        # Under a total of about 1.22e-77 its fourth power underflows: 1e-100 scored rk inf unflagged, and
        # 1e-200 scored rk 0.0 flagged degenerate with kappa nan.
        with pytest.raises(InvalidInputError, match="too small to score"):
            compute_report(HAND_MATRIX * scale, Task.T2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-78, 1e-70])
    def test_small_total_over_the_bound_scores_as_unscaled(self, scale):
        report, unscaled = compute_report(HAND_MATRIX * scale, Task.T2), compute_report(HAND_MATRIX, Task.T2)
        assert report.flags == ()
        for name, value in unscaled.values().items():
            assert abs(getattr(report, name) - value) <= 1e-12, name
        assert abs(report.average - unscaled.average) <= 1e-12
