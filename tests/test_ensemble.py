import numpy as np
import pytest

from ordchange.core import ClassLabel
from ordchange.ensemble import (
    PostprocessConfig,
    PredictionSet,
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


def pset(model_id: str, rows: dict[str, list[float]]) -> PredictionSet:
    return PredictionSet(model_id, list(rows), np.array(list(rows.values())))


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
        with pytest.raises(InvalidInputError):
            unanimity_ensemble([])


class TestMeanEnsemble:
    def test_averages_probabilities(self):
        a = pset("a", {"k1": [0.6, 0.3, 0.1], "k2": [0.1, 0.8, 0.1]})
        b = pset("b", {"k1": [0.2, 0.3, 0.5], "k2": [0.3, 0.4, 0.3]})
        labels, probs = mean_ensemble([a, b])
        np.testing.assert_allclose(probs[0], [0.4, 0.3, 0.3])
        assert labels[0] == R
        np.testing.assert_allclose(probs[1], [0.2, 0.6, 0.2])
        assert labels[1] == S

    def test_argmax_tie_takes_lower_index(self):
        a = pset("a", {"k": [0.5, 0.5, 0.0]})
        labels, _ = mean_ensemble([a])
        assert labels[0] == R

    def test_single_set_passthrough(self):
        a = pset("a", {"k1": [0.2, 0.7, 0.1]})
        labels, probs = mean_ensemble([a])
        np.testing.assert_allclose(probs[0], [0.2, 0.7, 0.1])
        assert labels[0] == S

    def test_order_follows_first_set(self):
        a = PredictionSet("a", ["z", "a"], np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        b = PredictionSet("b", ["a", "z"], np.array([[0, 1.0, 0], [1.0, 0, 0]]))
        labels, probs = mean_ensemble([a, b])
        assert labels.tolist() == [R, S]  # rows follow a's keys "z", "a"
        np.testing.assert_array_equal(probs, a.probs)

    def test_misaligned_keys_list_offenders(self):
        a = pset("a", {f"k{i}": [1.0, 0.0, 0.0] for i in range(15)})
        b = pset("b", {f"j{i}": [1.0, 0.0, 0.0] for i in range(15)})
        with pytest.raises(AlignmentError) as err:
            mean_ensemble([a, b])
        message = str(err.value)
        assert "'a'" in message and "'b'" in message
        # 30 symmetric-difference keys but only the first 10 are listed
        assert message.count("k") + message.count("j") <= 30

    def test_width_mismatch_rejected(self):
        a = pset("a", {"k": [0.5, 0.5, 0.0]})
        b = PredictionSet("b", ["k"], np.array([[0.25, 0.25, 0.25, 0.25]]))
        with pytest.raises(InvalidInputError):
            mean_ensemble([a, b])

    def test_no_sets_rejected(self):
        with pytest.raises(InvalidInputError):
            mean_ensemble([])


class TestUnanimityEnsemble:
    def test_per_record_votes_and_mean_probs(self):
        a = pset("a", {"k1": [0.1, 0.8, 0.1], "k2": [0.1, 0.8, 0.1]})
        b = pset("b", {"k1": [0.1, 0.7, 0.2], "k2": [0.1, 0.2, 0.7]})
        labels, probs = unanimity_ensemble([a, b])
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


class TestValidation:
    def test_prediction_set_rejects_duplicate_keys(self):
        with pytest.raises(InvalidInputError, match="repeats"):
            PredictionSet("m", ["k", "k"], np.array([[1.0, 0, 0], [1.0, 0, 0]]))

    def test_prediction_set_rejects_mixed_widths(self):
        with pytest.raises(InvalidInputError, match="mixes"):
            PredictionSet("m", ["a", "b"], [[1.0, 0, 0], [0.5, 0.5, 0.0, 0.0]])

    def test_prediction_set_rejects_non_simplex(self):
        with pytest.raises(InvalidInputError):
            PredictionSet("m", ["a"], np.array([[0.9, 0.9, 0.9]]))

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

    def test_prediction_set_is_read_only_and_checks_row_count(self):
        ps = pset("m", {"a": [0.2, 0.8, 0.0]})
        with pytest.raises(ValueError):
            ps.probs[0, 0] = 1.0
        with pytest.raises(InvalidInputError, match="2 keys for 1 rows"):
            PredictionSet("m", ["a", "b"], np.array([[0.2, 0.8, 0.0]]))
