import numpy as np
import pytest

from ordchange.cli import _row_order
from ordchange.core import ClassLabel
from ordchange.ensemble import (
    PostprocessConfig,
    TieBreak,
    group_vote,
    mean_ensemble,
    unanimity_ensemble,
    volume_consistency,
)
from ordchange.errors import AlignmentError, ConfigError, InvalidInputError

R, S, W = int(ClassLabel.REDUCED), int(ClassLabel.STABLE), int(ClassLabel.WORSENED)


def vote(label: int, peak: float = 0.9) -> tuple[int, np.ndarray]:
    probs = np.full(3, (1.0 - peak) / 2.0)
    probs[label] = peak
    return label, probs


def stable_unanimity_vote(preds: list[tuple[int, np.ndarray]], cfg: PostprocessConfig | None = None) -> int:
    """One record's models as one group of ``group_vote`` at threshold 1.0."""
    labels, probs = zip(*preds)
    groups = np.zeros(len(preds), dtype=np.int64)
    return int(group_vote(groups, np.array(labels), np.array(probs), 1.0, cfg or PostprocessConfig())[0])


def stack(*models: list[list[float]]) -> np.ndarray:
    """The (M, N, C) stack of M models' probability rows over the same N records."""
    return np.array(models, dtype=np.float64)


class TestUnanimityVote:
    def test_all_stable_is_stable(self):
        assert stable_unanimity_vote([vote(S), vote(S), vote(S)]) == S

    def test_single_dissent_overrides_stable_majority(self):
        assert stable_unanimity_vote([vote(S), vote(S), vote(W)]) == W

    def test_conventional_majority_switch(self):
        cfg = PostprocessConfig(majority_includes_stable=True)
        assert stable_unanimity_vote([vote(S), vote(S), vote(W)], cfg) == S

    def test_non_stable_majority(self):
        assert stable_unanimity_vote([vote(W), vote(R), vote(W), vote(S)]) == W

    def test_tie_by_mean_probability(self):
        preds = [
            (R, np.array([0.70, 0.10, 0.20])),
            (W, np.array([0.25, 0.10, 0.65])),
        ]
        assert stable_unanimity_vote(preds) == R  # mean favors Reduced
        cfg = PostprocessConfig(tie_break=TieBreak.MOST_SEVERE)
        assert stable_unanimity_vote(preds, cfg) == W

    def test_tie_with_equal_means_takes_lower_class(self):
        preds = [
            (R, np.array([0.6, 0.1, 0.3])),
            (W, np.array([0.3, 0.1, 0.6])),
        ]
        assert stable_unanimity_vote(preds) == R

    def test_empty_rejected(self):
        for empty in ([], np.zeros((0, 2, 3))):
            with pytest.raises(InvalidInputError, match="stack of probabilities"):
                unanimity_ensemble(empty)


class TestMeanEnsemble:
    def test_averages_probabilities(self):
        a = [[0.6, 0.3, 0.1], [0.1, 0.8, 0.1]]
        b = [[0.2, 0.3, 0.5], [0.3, 0.4, 0.3]]
        labels, probs = mean_ensemble(stack(a, b))
        np.testing.assert_allclose(probs[0], [0.4, 0.3, 0.3])
        assert labels[0] == R
        np.testing.assert_allclose(probs[1], [0.2, 0.6, 0.2])
        assert labels[1] == S

    def test_argmax_tie_takes_lower_index(self):
        labels, _ = mean_ensemble(stack([[0.5, 0.5, 0.0]]))
        assert labels[0] == R

    def test_single_set_passthrough(self):
        labels, probs = mean_ensemble(stack([[0.2, 0.7, 0.1]]))
        np.testing.assert_allclose(probs[0], [0.2, 0.7, 0.1])
        assert labels[0] == S

    def test_misaligned_keys_list_offenders(self):
        # Rows are matched by key before they are stacked, in cli._row_order.
        keys = [f"k{i}" for i in range(15)]
        base = [f"j{i}" for i in range(15)]
        with pytest.raises(AlignmentError) as err:
            _row_order(keys, base, "files 'a' and 'b'")
        message = str(err.value)
        assert "'a'" in message and "'b'" in message
        # All 30 symmetric-difference keys are counted; only the first 10 are listed.
        assert "(30 total)" in message
        assert message.endswith(f"first offenders: {sorted(keys + base)[:10]}")

    def test_width_mismatch_rejected(self):
        # Models of 3 and 4 classes make no (M, N, C) stack.
        with pytest.raises(ValueError):
            mean_ensemble([[[0.5, 0.5, 0.0]], [[0.25, 0.25, 0.25, 0.25]]])

    def test_no_sets_rejected(self):
        for empty in ([], np.zeros((0, 2, 3)), np.full((2, 3), 1 / 3)):
            with pytest.raises(InvalidInputError, match="stack of probabilities"):
                mean_ensemble(empty)


class TestUnanimityEnsemble:
    def test_per_record_votes_and_mean_probs(self):
        a = [[0.1, 0.8, 0.1], [0.1, 0.8, 0.1]]
        b = [[0.1, 0.7, 0.2], [0.1, 0.2, 0.7]]
        labels, probs = unanimity_ensemble(stack(a, b))
        assert labels[0] == S  # both argmax Stable
        assert labels[1] == W  # one dissent wins
        np.testing.assert_allclose(probs[1], [0.1, 0.5, 0.4])


def consistency(
    preds: list[tuple[str, int, np.ndarray]], cfg: PostprocessConfig | None = None
) -> dict[str, int]:
    """The volume label of every (volume_id, label, probs) B-scan, checking
    that each volume's B-scans all carry it."""
    volumes, labels, probs = zip(*preds)
    out = volume_consistency(list(volumes), np.array(labels), np.array(probs), cfg).tolist()
    by_volume = dict(zip(volumes, out))
    assert out == [by_volume[v] for v in volumes]
    return by_volume


class TestVolumeConsistency:
    @staticmethod
    def volume(labels: list[int], vol: str = "P0_V0") -> list[tuple[str, int, np.ndarray]]:
        return [(vol, lab, vote(lab)[1]) for lab in labels]

    def test_seventy_percent_stable_flips_to_majority_dissent(self):
        preds = self.volume([S] * 7 + [W, W, R])
        volume_ids, labels, probs = zip(*preds)
        relabeled = volume_consistency(list(volume_ids), np.array(labels), np.array(probs))
        assert relabeled.tolist() == [W] * 10

    def test_exactly_at_threshold_is_stable(self):
        preds = self.volume([S] * 8 + [W, R])
        assert consistency(preds) == {"P0_V0": S}

    def test_uniform_non_stable_volume_unchanged(self):
        preds = self.volume([R] * 5)
        assert consistency(preds) == {"P0_V0": R}

    def test_volumes_are_independent(self):
        preds = self.volume([S] * 9 + [W], "P0_V0") + self.volume([W] * 4 + [S], "P1_V0")
        assert consistency(preds) == {"P0_V0": S, "P1_V0": W}

    def test_non_stable_tie_uses_mean_probability(self):
        preds = [
            ("v", R, np.array([0.70, 0.10, 0.20])),
            ("v", W, np.array([0.25, 0.10, 0.65])),
            ("v", S, np.array([0.10, 0.80, 0.10])),
        ]
        assert consistency(preds) == {"v": R}
        cfg = PostprocessConfig(tie_break=TieBreak.MOST_SEVERE)
        assert consistency(preds, cfg) == {"v": W}

    def test_majority_includes_stable_switch(self):
        preds = self.volume([S, S, W, W, W, R, R, R])  # fraction .25, R and W tie at 3
        cfg = PostprocessConfig(majority_includes_stable=True, tie_break=TieBreak.MOST_SEVERE)
        assert consistency(preds, cfg) == {"P0_V0": W}

    def test_custom_threshold(self):
        preds = self.volume([S, S, W, W])
        exact = PostprocessConfig(stable_ratio_threshold=0.5)
        assert consistency(preds, exact) == {"P0_V0": S}
        strict = PostprocessConfig(stable_ratio_threshold=0.51)
        assert consistency(preds, strict) == {"P0_V0": W}

    def test_missing_volume_id_rejected(self):
        with pytest.raises(InvalidInputError, match="volume_id"):
            volume_consistency([""], np.array([S]), np.array([[0.1, 0.8, 0.1]]))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            volume_consistency([], np.zeros(0, dtype=np.int64), np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "volumes, labels, match",
        [(["v", "v"], [S], "disagree on the row count"), (["v"], [3], r"labels must lie in \[0, 3\)"),
         (["v"], [-1], r"labels must lie in \[0, 3\)")],
        ids=["row_count", "label_too_large", "negative_label"],
    )
    def test_malformed_rows_rejected(self, volumes, labels, match):
        with pytest.raises(InvalidInputError, match=match):
            volume_consistency(volumes, np.array(labels), np.array([[0.1, 0.8, 0.1]]))


class TestValidation:
    def test_prediction_set_rejects_mixed_widths(self):
        # One model whose rows mix 3 and 4 classes makes no (M, N, C) stack.
        with pytest.raises(ValueError):
            unanimity_ensemble([[[1.0, 0, 0], [0.5, 0.5, 0.0, 0.0]]])

    def test_prediction_set_rejects_non_simplex(self):
        for ensemble in (mean_ensemble, unanimity_ensemble):
            with pytest.raises(InvalidInputError, match="sum to"):
                ensemble(stack([[0.2, 0.8, 0.0]], [[0.9, 0.9, 0.9]]))

    @pytest.mark.parametrize("threshold", [0.0, -0.1, 1.2])
    def test_threshold_bounds(self, threshold):
        with pytest.raises(ConfigError):
            PostprocessConfig(stable_ratio_threshold=threshold)

    def test_threshold_of_one_allowed(self):
        cfg = PostprocessConfig(stable_ratio_threshold=1.0)
        preds = TestVolumeConsistency.volume([S] * 10)
        assert consistency(preds, cfg) == {"P0_V0": S}

    def test_tie_break_type_checked(self):
        with pytest.raises(ConfigError):
            PostprocessConfig(tie_break="most_severe")
