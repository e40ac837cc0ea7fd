import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ordchange.core import Task, softmax
from ordchange.errors import ConfigError, InvalidInputError
from ordchange.losses import (
    LOSS_KINDS,
    LossConfig,
    batch_loss_gradient,
    central_difference_error,
    finite_difference_check,
    loss_value,
    validate_loss_for_task,
)

ONE_HOT_0 = np.array([1.0, 0.0, 0.0])

logit_vectors = arrays(np.float64, st.integers(2, 5), elements=st.floats(-20, 20))


class TestFrozenValues:
    """Values computed independently with exact formulas before this module."""

    def test_cross_entropy(self):
        assert loss_value("ce", np.array([0.7, 0.2, 0.1]), ONE_HOT_0) == pytest.approx(
            0.35667494393873245, abs=1e-15
        )

    def test_cross_entropy_uniform(self):
        p = np.full(3, 1.0 / 3.0)
        assert loss_value("ce", p, ONE_HOT_0) == pytest.approx(1.0986122886681098, abs=1e-15)

    def test_focal_default_gamma(self):
        assert loss_value("focal", np.array([0.7, 0.2, 0.1]), ONE_HOT_0) == pytest.approx(
            0.03210074495448592, abs=1e-15
        )

    def test_emd(self):
        assert loss_value("emd", np.array([0.5, 0.3, 0.2]), ONE_HOT_0) == pytest.approx(
            0.3109126351029605, abs=1e-15
        )

    def test_emd_rises_with_distance(self):
        near = loss_value("emd", np.array([0.7, 0.3, 0.0]), ONE_HOT_0)
        far = loss_value("emd", np.array([0.7, 0.0, 0.3]), ONE_HOT_0)
        assert near == pytest.approx(0.17320508075688773, abs=1e-15)
        assert far == pytest.approx(0.2449489742783178, abs=1e-15)
        assert far > near

    def test_combined_default_weights(self):
        p = np.array([0.5, 0.3, 0.2])
        assert loss_value("combined", p, ONE_HOT_0) == pytest.approx(0.48419943024294687, abs=1e-15)
        assert loss_value("combined", p, ONE_HOT_0) == pytest.approx(
            loss_value("focal", p, ONE_HOT_0) + loss_value("emd", p, ONE_HOT_0), abs=1e-15
        )


class TestIdentitiesAndProperties:
    @given(logit_vectors, st.integers(0, 4))
    def test_focal_gamma_zero_is_cross_entropy(self, z, k):
        p = softmax(z)
        y = np.zeros_like(p)
        y[k % p.shape[0]] = 1.0
        cfg = LossConfig(alpha=1.0, gamma=0.0)
        assert abs(loss_value("focal", p, y, cfg) - loss_value("ce", p, y)) < 1e-12

    @given(logit_vectors, logit_vectors.map(softmax))
    def test_combined_is_weighted_sum(self, z, y):
        p = softmax(z)
        if p.shape != y.shape:
            return
        cfg = LossConfig(focal_weight=0.7, emd_weight=2.5)
        expected = 0.7 * loss_value("focal", p, y, cfg) + 2.5 * loss_value("emd", p, y)
        assert loss_value("combined", p, y, cfg) == pytest.approx(expected, abs=1e-12)

    @given(logit_vectors)
    def test_emd_symmetry_and_zero(self, z):
        p = softmax(z)
        q = softmax(z[::-1].copy())
        assert abs(loss_value("emd", p, q) - loss_value("emd", q, p)) < 1e-12
        assert loss_value("emd", p, p) == 0.0

    @given(logit_vectors, logit_vectors)
    def test_emd_bounded_by_one(self, z_a, z_b):
        if z_a.shape != z_b.shape:
            return
        v = loss_value("emd", softmax(z_a), softmax(z_b))
        assert 0.0 <= v <= 1.0

    def test_emd_maximum_is_opposite_corners(self):
        # One-hot mass at the first vs the last class: every CDF step but the
        # final one differs by 1, so the value is sqrt((C-1)/C) < 1.
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        assert loss_value("emd", a, b) == pytest.approx(np.sqrt(3.0 / 4.0), abs=1e-15)

    @given(logit_vectors, st.integers(0, 4), st.sampled_from(LOSS_KINDS))
    def test_gradient_rows_sum_to_zero(self, z, k, kind):
        y = np.zeros_like(z)
        y[k % z.shape[0]] = 1.0
        _, grad = batch_loss_gradient(kind, z[None], y[None])
        assert abs(grad[0].sum()) < 1e-9

    @given(
        arrays(np.float64, st.integers(2, 5), elements=st.floats(-10, 10)),
        st.integers(0, 4),
    )
    def test_ce_gradient_is_softmax_minus_target(self, z, k):
        # Holds wherever no probability falls into the log clamp; the plateau
        # case is covered separately below.
        y = np.zeros_like(z)
        y[k % z.shape[0]] = 1.0
        _, grad = batch_loss_gradient("ce", z[None], y[None])
        np.testing.assert_allclose(grad[0], softmax(z) - y, atol=1e-12)

    def test_ce_gradient_vanishes_on_clamp_plateau(self):
        # Once the target probability saturates below epsilon the forward value
        # is the constant -log(eps), so the true slope (and the gradient) is 0.
        z = np.array([-30.0, 30.0])
        y = np.array([1.0, 0.0])
        value, grad = batch_loss_gradient("ce", z[None], y[None])
        assert value == pytest.approx(-np.log(1e-12))
        np.testing.assert_array_equal(grad[0], np.zeros(2))
        assert finite_difference_check("ce", z, y) < 1e-5

    def test_clamp_keeps_zero_probability_finite(self):
        p = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert loss_value("ce", p, y) == pytest.approx(-np.log(1e-12))
        assert np.isfinite(loss_value("focal", p, y))

    def test_focal_fractional_gamma_at_certainty(self):
        # (1-p)^(gamma-1) would blow up at p == 1 for gamma < 1; the guarded
        # branch must return the true limit, zero.
        z = np.array([40.0, 0.0, 0.0])
        y = np.array([1.0, 0.0, 0.0])
        _, grad = batch_loss_gradient("focal", z[None], y[None], LossConfig(gamma=0.5))
        assert np.all(np.isfinite(grad[0]))

    def test_emd_gradient_zero_at_minimum(self):
        z = np.array([0.0, 0.0, 0.0])
        y = softmax(z)
        value, grad = batch_loss_gradient("emd", z[None], y[None])
        assert value == 0.0
        np.testing.assert_array_equal(grad[0], np.zeros(3))


class TestOrdinality:
    @pytest.mark.parametrize("n_classes", [3, 4])
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 1.0])
    def test_emd_strictly_increases_with_rank_distance(self, n_classes, eps):
        for k in range(n_classes):
            y = np.zeros(n_classes)
            y[k] = 1.0
            by_distance: dict[int, list[float]] = {}
            for j in range(n_classes):
                if j == k:
                    continue
                p = y.copy()
                p[k] -= eps
                p[j] += eps
                by_distance.setdefault(abs(j - k), []).append(loss_value("emd", p, y))
            distances = sorted(by_distance)
            for near, far in zip(distances, distances[1:]):
                assert max(by_distance[near]) < min(by_distance[far])

    @pytest.mark.parametrize("n_classes", [3, 4])
    def test_cross_entropy_blind_to_rank_distance(self, n_classes):
        eps = 0.3
        for k in range(n_classes):
            y = np.zeros(n_classes)
            y[k] = 1.0
            values = set()
            for j in range(n_classes):
                if j == k:
                    continue
                p = y.copy()
                p[k] -= eps
                p[j] += eps
                values.add(round(loss_value("ce", p, y), 12))
            assert len(values) == 1


class TestGradientChecks:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_finite_differences_agree(self, kind):
        rng = np.random.default_rng(17)
        gammas = (0.0, 1.0, 2.0, 5.0)
        for trial in range(30):
            n = 3 + trial % 2
            z = rng.normal(0.0, 2.0, size=n)
            y = np.zeros(n)
            y[rng.integers(0, n)] = 1.0
            if trial % 4 == 3:
                y = rng.dirichlet(np.ones(n))
            cfg = LossConfig(gamma=gammas[trial % 4])
            assert finite_difference_check(kind, z, y, cfg) < 1e-5

    def test_step_size_validated(self):
        z = np.array([0.1, 0.2, 0.3])
        y = np.array([1.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError):
            finite_difference_check("ce", z, y, h=1e-8)
        with pytest.raises(InvalidInputError):
            finite_difference_check("ce", z, y, h=1e-2)

    def test_nan_gradient_is_the_worst_error(self):
        # max(0.0, nan) is 0.0; a NaN analytic entry must not read as agreement.
        err = central_difference_error(lambda v: float(v.sum()), np.zeros(3), np.array([np.nan, 1.0, 1.0]), 1e-5)
        assert np.isnan(err)


class TestBatchApi:
    def test_batch_matches_per_sample_mean(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(6, 4))
        Y = np.eye(4)[rng.integers(0, 4, size=6)]
        for kind in LOSS_KINDS:
            value, grad = batch_loss_gradient(kind, Z, Y)
            values, grads = zip(*(batch_loss_gradient(kind, z[None], y[None]) for z, y in zip(Z, Y)))
            assert value == pytest.approx(np.mean(values), abs=1e-12)
            np.testing.assert_allclose(grad, np.concatenate(grads) / 6.0, atol=1e-12)

    def test_batch_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            batch_loss_gradient("ce", np.zeros((2, 3)), np.zeros((3, 3)))

    def test_batch_rejects_empty_batch(self):
        with pytest.raises(InvalidInputError):
            batch_loss_gradient("ce", np.zeros((0, 3)), np.zeros((0, 3)))


class TestConfigValidation:
    def test_task_gates(self):
        validate_loss_for_task("ce", Task.T1)
        validate_loss_for_task("focal", Task.T1)
        validate_loss_for_task("combined", Task.T2)
        for kind in ("emd", "combined"):
            with pytest.raises(ConfigError):
                validate_loss_for_task(kind, Task.T1)
        with pytest.raises(ConfigError):
            validate_loss_for_task("hinge", Task.T2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"gamma": -1.0},
            {"gamma": np.inf},
            {"focal_weight": -2.0},
            {"emd_weight": np.nan},
            {"epsilon": 0.0},
            {"epsilon": 0.01},
        ],
    )
    def test_loss_config_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            LossConfig(**kwargs)

    def test_loss_gradient_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            batch_loss_gradient("hinge", np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="mixes row lengths"):
            loss_value("ce", np.array([0.5, 0.5]), np.array([0.4, 0.3, 0.3]))


def test_cdf_definition_backs_emd():
    # The loss literally compares the two class CDFs.
    p = np.array([0.5, 0.3, 0.2])
    y = np.array([1.0, 0.0, 0.0])
    d = np.cumsum(y) - np.cumsum(p)
    assert loss_value("emd", p, y) == pytest.approx(np.sqrt(np.mean(d * d)), abs=1e-15)
