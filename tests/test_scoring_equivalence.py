"""The one-pass metric kernel and the ``np.bincount`` confusion count against
the code they replaced (``reference_scoring``): the same bits, the same
flags and the same matrices."""

import warnings

import numpy as np
import pytest

import reference_scoring as old
from ordchange import metrics
from ordchange.core import ClassLabel, Task, confusion_from_predictions
from ordchange.errors import InvalidInputError

# Each old metric function by the name of its entry in the kernel's values.
OLD = {
    "micro_f1": old.micro_f1,
    "specificity": old.specificity,
    "rk_correlation": old.rk_correlation,
    "cohens_kappa": old.cohens_kappa,
    "qw_kappa": old.quadratic_weighted_kappa,
    "balanced_accuracy": old.balanced_accuracy,
}


def random_matrices(seed: int, count: int):
    """Matrices of C = 2-6 classes: Poisson counts, some with a zeroed row or
    column or a single nonzero column, some scaled to counts up to 1e15."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        cm = rng.poisson(rng.uniform(0.2, 6.0), size=(n, n)).astype(np.float64)
        for axis in (0, 1):
            if rng.random() < 0.25:
                cm[(slice(None),) * axis + (int(rng.integers(n)),)] = 0
        if rng.random() < 0.05:
            keep = int(rng.integers(n))
            cm[:, np.arange(n) != keep] = 0  # one predicted class: the kappas and rk degenerate
        if rng.random() < 0.2:  # the largest count becomes 1e3-1e15, so some totals pass 2**53
            cm = np.floor(cm * 10.0 ** rng.uniform(3, 15) / max(cm.max(), 1.0))
        if cm.sum() == 0:
            cm[int(rng.integers(n)), int(rng.integers(n))] = 10.0 ** rng.uniform(0, 15)
        yield cm if rng.random() < 0.5 else cm.astype(np.int64)


def old_suite(cm) -> tuple[dict[str, float], tuple[str, ...]]:
    """The six old metrics and the flags they warn, as the old report collected them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", old.DegenerateMetricWarning)
        values = {name: metric(cm) for name, metric in OLD.items()}
    return values, tuple(str(w.message) for w in caught if issubclass(w.category, old.DegenerateMetricWarning))


def bits(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).view(np.uint64)


def test_kernel_matches_the_old_metrics_bit_for_bit():
    new_values, old_values, flagged = [], [], 0
    for cm in random_matrices(seed=22, count=10_000):
        values, flags = metrics.suite(cm)
        expected, expected_flags = old_suite(cm)
        assert flags == expected_flags, cm.tolist()
        assert list(values) == list(expected) == list(metrics.METRIC_NAMES[:-1])
        new_values.append(list(values.values()))
        old_values.append(list(expected.values()))
        flagged += bool(flags)
    assert np.array_equal(bits(new_values), bits(old_values))
    assert 1_000 < flagged < 9_000  # both sides of every degenerate branch are reached


@pytest.mark.filterwarnings("ignore::reference_scoring.DegenerateMetricWarning")
def test_public_metrics_and_report_match_the_old_ones():
    reports = 0
    for cm in random_matrices(seed=23, count=500):
        values = metrics.suite(cm)[0]
        for name, metric in OLD.items():
            assert bits(metric(cm)) == bits(values[name]), (name, cm.tolist())
        task = {3: Task.T2, 4: Task.T1}.get(cm.shape[0])
        if task is not None:
            assert metrics.compute_report(cm, task) == old.compute_report(cm, task)
            reports += 1
    assert reports > 100


def test_report_checks_its_matrix_once(monkeypatch):
    calls = []
    check = metrics._check_cm
    monkeypatch.setattr(metrics, "_check_cm", lambda cm: calls.append(cm) or check(cm))
    metrics.compute_report(np.array([[3, 0, 0], [4, 0, 0], [2, 0, 0]]), Task.T2)
    assert len(calls) == 1


@pytest.mark.filterwarnings("error")
def test_a_degenerate_metric_warns_nothing():
    cm = np.array([[3, 0, 0], [0, 0, 0], [2, 0, 0]])
    values = metrics.suite(cm)[0]
    assert values["rk_correlation"] == 0.0 and values["balanced_accuracy"] == 0.5
    assert metrics.compute_report(cm, Task.T2).flags == ("rk_correlation:degenerate", "balanced_accuracy:empty_class:1")


@pytest.mark.parametrize("scale", [1e78, 1e160, 1e200, 1e308])
def test_report_rejects_a_total_too_large_to_score(scale):
    # Past a total of about 1.16e77 its fourth power overflows: 1e78 scored rk 0.0 unflagged, 1e160 and up nan.
    cm = np.diag([scale] * 3) + np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidInputError, match="too large to score"):
        metrics.compute_report(cm, Task.T2)


def test_report_scores_totals_up_to_the_bound_exactly():
    # Scaling by a power of two changes no bit of a ratio while nothing overflows.
    cm = np.array([[3.0, 1, 0], [1, 2, 1], [0, 1, 1]])
    assert metrics.compute_report(cm * 2.0**252, Task.T2) == metrics.compute_report(cm, Task.T2)
    with pytest.raises(InvalidInputError, match="too large to score"):
        metrics.compute_report(cm * 2.0**254, Task.T2)


@pytest.mark.parametrize("n_classes", [2, 3, 4, 6])
def test_confusion_matches_the_old_count(n_classes):
    rng = np.random.default_rng(n_classes)
    for size in (0, 1, 7, 320, 3_125):
        truth, pred = rng.integers(0, n_classes, size=(2, size))
        expected = old.confusion_from_predictions(truth, pred, n_classes)
        for args in ((truth, pred), (truth.astype(np.int32), pred.tolist())):
            cm = confusion_from_predictions(*args, n_classes)
            assert cm.dtype == np.int64 and np.array_equal(cm, expected)


def test_confusion_of_class_labels_matches_the_old_count():
    rng = np.random.default_rng(5)
    truth, pred = ([ClassLabel(int(v)) for v in row] for row in rng.integers(0, 4, size=(2, 200)))
    assert np.array_equal(confusion_from_predictions(truth, pred, 4), old.confusion_from_predictions(truth, pred, 4))


@pytest.mark.parametrize(
    "truth, pred, n_classes",
    [([0, 1], [0], 3), ([0, 3], [0, 1], 3), ([0, 1], [-1, 1], 3), ([0, 1], [0, 1], 1)],
    ids=["lengths_differ", "truth_out_of_range", "pred_out_of_range", "fewer_than_two_classes"],
)
def test_confusion_rejects_what_the_old_count_rejected(truth, pred, n_classes):
    with pytest.raises(InvalidInputError) as new_error:
        confusion_from_predictions(truth, pred, n_classes)
    with pytest.raises(InvalidInputError) as old_error:
        old.confusion_from_predictions(truth, pred, n_classes)
    assert str(new_error.value) == str(old_error.value)
