import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ordchange.core import (
    ClassLabel,
    Dataset,
    Task,
    atomic_write,
    as_prob_rows,
    confusion_from_predictions,
    softmax,
)
from ordchange.errors import InvalidInputError


class TestLabels:
    def test_class_values_are_fixed(self):
        assert ClassLabel.REDUCED == 0
        assert ClassLabel.STABLE == 1
        assert ClassLabel.WORSENED == 2
        assert ClassLabel.OTHER == 3

    def test_class_names_match_values(self):
        # gen's summary line names the classes by their lowercased names.
        assert [label.name.lower() for label in ClassLabel] == ["reduced", "stable", "worsened", "other"]

    def test_task_class_counts(self):
        assert Task.T1.n_classes == 4
        assert Task.T2.n_classes == 3


class TestVectors:
    def test_softmax_accepts_plain_list(self):
        out = softmax([1.0, -2.0, 0.5])
        assert out.dtype == np.float64 and out.shape == (3,)

    @pytest.mark.parametrize(
        "bad", [[1.0], 3.0, [1.0, np.nan], [1.0, np.inf]], ids=["one_entry", "scalar", "nan", "inf"]
    )
    def test_softmax_rejects_vector(self, bad):
        with pytest.raises(InvalidInputError):
            softmax(bad)

    def test_as_prob_vector_accepts_within_tolerance(self):
        as_prob_rows([[0.5, 0.5 + 5e-10]])

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, 0.6],
            [0.5, 0.5 + 5e-9],
            [-0.1, 1.1],
            [1.5, -0.5],
            [0.5, np.nan],
            [1.0],
        ],
    )
    def test_as_prob_vector_rejects(self, bad):
        with pytest.raises(InvalidInputError):
            as_prob_rows([bad])

    @pytest.mark.parametrize(
        "bad, match",
        [
            ([[0.5, 0.5], [1.0]], "mixes row lengths"),
            ([0.5, 0.5], r"\(N, C >= 2\) matrix"),
            ([[1.0], [1.0]], r"\(N, C >= 2\) matrix"),
            ([[[0.5, 0.5]]], r"\(N, C >= 2\) matrix"),
        ],
        ids=["ragged", "vector", "one_column", "three_axes"],
    )
    def test_as_prob_rows_rejects(self, bad, match):
        with pytest.raises(InvalidInputError, match=match):
            as_prob_rows(bad)

    def test_softmax_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25))

    def test_softmax_shift_invariance(self):
        z = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(softmax(z), softmax(z + 123.0), atol=1e-15)

    def test_softmax_extreme_logits_stay_finite(self):
        out = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(out))
        as_prob_rows([out])

    def test_softmax_2d_rows(self):
        z = np.array([[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]])
        out = softmax(z)
        assert out.shape == z.shape
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0])

    @given(arrays(np.float64, st.integers(2, 6), elements=st.floats(-500, 500)))
    def test_softmax_always_yields_prob_vector(self, z):
        as_prob_rows([softmax(z)])


class TestConfusion:
    def test_small_matrix(self):
        cm = confusion_from_predictions([0, 0, 1, 2, 2], [0, 1, 1, 2, 0], 3)
        expected = np.array([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
        np.testing.assert_array_equal(cm, expected)
        assert cm.sum() == 5

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            confusion_from_predictions([0, 3], [0, 1], 3)
        with pytest.raises(InvalidInputError):
            confusion_from_predictions([0, 1], [0, -1], 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            confusion_from_predictions([0, 1], [0], 3)

    @pytest.mark.parametrize(
        "truth, pred, match",
        [
            ([0.7, 1.9, 2.5], [0, 1, 2], "truth labels must be whole numbers"),
            ([0, 1, 2], [0, 1.5, 2], "predicted labels must be whole numbers"),
            ([0, np.nan, 2], [0, 1, 2], "truth labels must be whole numbers"),
            ([0, 1, 2], [0, 1, np.inf], "predicted labels must be whole numbers"),
            ([0, 1, 2.0**63], [0, 1, 2], "truth labels must be whole numbers"),
            ([0, 1, "2"], [0, 1, 2], "truth labels must be whole numbers"),
            ([[0, 1], [2, 0]], [[0, 1], [2, 0]], r"truth labels must be a 1-D array, got shape \(2, 2\)"),
        ],
        ids=["fraction", "pred_fraction", "nan", "inf", "past_int64", "text", "two_axes"],
    )
    def test_rejects_labels_int64_cannot_hold(self, truth, pred, match):
        with pytest.raises(InvalidInputError, match=match):
            confusion_from_predictions(truth, pred, 3)

    def test_whole_float_bool_and_class_labels_count_as_ints(self):
        expected = confusion_from_predictions([0, 1, 1], [1, 1, 0], 2)
        for truth, pred in (
            ([0.0, 1.0, 1.0], np.array([1.0, 1.0, 0.0])),
            ([False, True, True], np.array([True, True, False])),
            ([ClassLabel.REDUCED, ClassLabel.STABLE, ClassLabel.STABLE], np.array([1, 1, 0], dtype=np.uint8)),
        ):
            np.testing.assert_array_equal(confusion_from_predictions(truth, pred, 2), expected)

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60)
    )
    def test_total_count_preserved(self, pairs):
        t = [a for a, _ in pairs]
        p = [b for _, b in pairs]
        cm = confusion_from_predictions(t, p, 4)
        assert cm.sum() == len(pairs)
        assert np.all(cm >= 0)


def t2_data(volumes, indices, labels, dim=2, **columns) -> Dataset:
    n = len(volumes)
    base = dict(
        x=np.ones((n, dim)), labels=labels, patient_id=["P1"] * n, visit_id=["V1"] * n,
        volume_id=volumes, bscan_index=indices,
    )
    return Dataset(**{**base, **columns})


class TestRecords:
    """The checks the Dataset constructor runs over all rows at once."""

    def test_features_are_read_only(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = t2_data(["P1_V1", "P1_V1"], [0, 1], [1, 1], x=feats)
        with pytest.raises(ValueError):
            data.x[0, 0] = 9.0
        feats[0, 0] = 9.0  # the caller's array stays writable
        assert len(data) == 2 and data.task is Task.T2

    def test_bscan_rejects_negative_index(self):
        with pytest.raises(InvalidInputError, match="bscan_index"):
            t2_data(["P1_V1"], [-1], [1])

    def test_pair_rejects_dim_mismatch(self):
        with pytest.raises(InvalidInputError, match="shapes differ"):
            Dataset(x=np.ones((1, 3)), x_b=np.ones((1, 4)), labels=[1], patient_id=["P1"])

    def test_validate_dataset_passes_consistent(self):
        data = t2_data(["P1_V1"] * 3, [0, 1, 2], [1, 1, 1])
        assert data.labels.dtype == np.int64 and data.bscan_index.tolist() == [0, 1, 2]

    def test_validate_dataset_rejects_duplicate_key(self):
        with pytest.raises(InvalidInputError, match="duplicate row key P1_V1/0"):
            t2_data(["P1_V1", "P1_V2", "P1_V1"], [0, 0, 0], [1, 1, 1])

    def test_validate_dataset_rejects_conflicting_volume_labels(self):
        with pytest.raises(InvalidInputError, match="conflicting labels STABLE and WORSENED"):
            t2_data(["P1_V1", "P1_V1"], [0, 1], [1, 2])

    def test_labels_must_fit_the_task(self):
        with pytest.raises(InvalidInputError, match="label 3 is not valid for task t2"):
            t2_data(["P1_V1"], [0], [3])
        pair = dict(x=np.ones((2, 2)), x_b=np.ones((2, 2)), patient_id=["P1", "P1"])
        assert Dataset(labels=[3, 0], **pair).task is Task.T1
        with pytest.raises(InvalidInputError, match="label 4"):
            Dataset(labels=[4, 0], **pair)
        with pytest.raises(InvalidInputError, match="label -1"):
            Dataset(labels=[0, -1], **pair)

    def test_rejects_non_finite_features(self):
        with pytest.raises(InvalidInputError, match="non-finite"):
            t2_data(["P1_V1"], [0], [1], x=np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidInputError, match="non-finite"):
            Dataset(x=np.ones((1, 2)), x_b=np.array([[np.inf, 0.0]]), labels=[1], patient_id=["P1"])

    def test_rejects_misshapen_columns(self):
        with pytest.raises(InvalidInputError, match="patient_id"):
            t2_data(["P1_V1", "P1_V1"], [0, 1], [1, 1], patient_id=["P1"])
        with pytest.raises(InvalidInputError, match="matrix"):
            t2_data(["P1_V1"], [0], [1], x=np.ones(2))
        with pytest.raises(InvalidInputError, match="columns"):
            t2_data(["P1_V1"], [0], [1], visit_id=None)
        with pytest.raises(InvalidInputError, match="columns"):
            Dataset(x=np.ones((1, 2)), x_b=np.ones((1, 2)), labels=[1], patient_id=["P1"], volume_id=["v"])

    @pytest.mark.parametrize(
        "indices, labels, match",
        [
            ([0, 1], [0.9, 2.7], "column labels must be whole numbers"),
            ([0.5, 1.2], [1, 1], "column bscan_index must be whole numbers"),
            ([0, 1], [1, np.nan], "column labels must be whole numbers"),
            ([0, 1], [[1], [1]], r"column labels must be a 1-D array, got shape \(2, 1\)"),
        ],
        ids=["fractional_labels", "fractional_bscan_index", "nan_label", "two_axis_labels"],
    )
    def test_rejects_int_columns_int64_cannot_hold(self, indices, labels, match):
        with pytest.raises(InvalidInputError, match=match):
            t2_data(["P1_V1", "P1_V1"], indices, labels)

    def test_whole_float_and_bool_int_columns_are_stored_as_int64(self):
        data = t2_data(["P1_V1", "P1_V1"], np.array([0.0, 1.0]), [True, True])
        assert data.labels.dtype == data.bscan_index.dtype == np.int64
        assert data.labels.tolist() == [1, 1] and data.bscan_index.tolist() == [0, 1]

    def test_take_selects_rows_in_order(self):
        data = t2_data(["A_V1", "B_V1", "C_V1"], [0, 0, 0], [0, 1, 2], x=np.arange(6.0).reshape(3, 2))
        picked = data.take(np.array([2, 0]))
        assert picked.volume_id.tolist() == ["C_V1", "A_V1"]
        assert picked.labels.tolist() == [2, 0]
        np.testing.assert_array_equal(picked.x, [[4.0, 5.0], [0.0, 1.0]])
        masked = data.take(np.array([False, True, False]))
        assert len(masked) == 1 and masked.patient_id.tolist() == ["P1"]
        assert len(data.take(np.zeros(3, dtype=bool))) == 0


class TestAtomicWrite:
    def test_writes_what_the_callback_writes(self, tmp_path):
        atomic_write(tmp_path / "out.txt", lambda fh: fh.write(b"new\n"))
        assert (tmp_path / "out.txt").read_bytes() == b"new\n"

    @pytest.mark.filterwarnings("error")
    def test_callback_that_raises_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old bytes\n")

        def half_then_fail(fh):
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            text.write("first half of the new text\n")
            text.flush()
            raise OSError("second half failed")

        with pytest.raises(OSError, match="second half failed"):
            atomic_write(path, half_then_fail)
        assert path.read_bytes() == b"old bytes\n"
        assert not list(tmp_path.glob("*.tmp.*"))
