import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordchange.model as model_mod
from checkpoint_bytes import seal, zero_checkpoint
from ordchange.core import Dataset, Task, softmax
from ordchange.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    InvalidInputError,
    NumericError,
)
from ordchange.losses import LossConfig, batch_loss_gradient
from ordchange.metrics import suite
from ordchange.model import (
    CHECKPOINT_MAGIC,
    ModelParams,
    OptimizerConfig,
    TrainConfig,
    backward,
    finite_difference_check_params,
    forward,
    init_optimizer_state,
    init_params,
    load_checkpoint,
    lr_schedule,
    make_batches,
    optimizer_step,
    predict,
    save_checkpoint,
    train,
)


def t2_dataset(feats, labels, prefix: str = "P") -> Dataset:
    """T2 rows with one B-scan per patient, each patient with one volume."""
    patients = [f"{prefix}{i:04d}" for i in range(len(labels))]
    return Dataset(
        x=feats,
        labels=labels,
        patient_id=patients,
        visit_id=["V0"] * len(labels),
        volume_id=[f"{p}_V0" for p in patients],
        bscan_index=np.zeros(len(labels), dtype=int),
    )


def t1_dataset(feats_a, feats_b, labels) -> Dataset:
    """T1 pair rows, one patient per pair."""
    return Dataset(x=feats_a, x_b=feats_b, labels=labels, patient_id=[f"P{i}" for i in range(len(labels))])


def single_layer_params(w_head, b_head=None, encoder=(), dropout=0.0) -> ModelParams:
    w = np.asarray(w_head, dtype=float)
    b = np.zeros(w.shape[0]) if b_head is None else np.asarray(b_head, dtype=float)
    return ModelParams(encoder_layers=tuple(encoder), head_layers=((w, b),), dropout_rate=dropout)


def topology(params: ModelParams) -> tuple[int, int, int, int]:
    return params.input_dim, params.encoder_output_dim, params.n_branches, params.head_offset


class TestInit:
    def test_shapes_follow_dims(self):
        params = init_params((8, 16), (16, 3))
        assert [(w.shape, b.shape) for w, b in params.encoder_layers] == [((16, 8), (16,))]
        assert [(w.shape, b.shape) for w, b in params.head_layers] == [((3, 16), (3,))]

    def test_bounds_and_zero_bias(self):
        params = init_params((50, 30), (30, 10, 4), seed=3)
        for w, b in (*params.encoder_layers, *params.head_layers):
            limit = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.all(np.abs(w) <= limit)
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_seed_determinism(self):
        a = init_params((4, 8), (8, 3), seed=11)
        b = init_params((4, 8), (8, 3), seed=11)
        c = init_params((4, 8), (8, 3), seed=12)
        for (wa, _), (wb, _) in zip(a.encoder_layers, b.encoder_layers):
            np.testing.assert_array_equal(wa, wb)
        assert not np.array_equal(a.encoder_layers[0][0], c.encoder_layers[0][0])

    def test_single_entry_encoder_means_no_encoder(self):
        params = init_params((5,), (5, 3))
        assert params.encoder_layers == ()
        assert topology(params) == (5, 5, 1, 0)

    def test_siamese_dims(self):
        params = init_params((4, 6), (12, 3))
        assert params.head_layers[0][0].shape[1] == 12
        assert topology(params) == (4, 6, 2, 4 * 6 + 6)

    @pytest.mark.parametrize(
        "enc,head",
        # The last is a siamese head with no encoder layers to share.
        [((4, 0), (4, 3)), ((4, 8), (9, 3)), ((4, 8), (8,)), ((), (4, 3)), ((8,), (16, 4))],
    )
    def test_invalid_dims_rejected(self, enc, head):
        with pytest.raises(ConfigError):
            init_params(enc, head)

    def test_params_validate_chain(self):
        with pytest.raises(ConfigError):
            ModelParams(
                encoder_layers=((np.ones((4, 2)), np.zeros(4)),),
                head_layers=((np.ones((3, 5)), np.zeros(3)),),
            )
        with pytest.raises(ConfigError):
            single_layer_params(np.full((2, 2), np.nan))
        with pytest.raises(ConfigError, match=r"weight \(3, 4\) and bias \(2,\) are inconsistent"):
            single_layer_params(np.ones((3, 4)), np.zeros(2))


class TestForward:
    def test_zero_weights_zero_logits(self):
        params = single_layer_params(np.zeros((3, 4)))
        logits, _ = forward(params, (np.array([[1.0, -2.0, 3.0, 4.0]]),))
        np.testing.assert_array_equal(logits, np.zeros((1, 3)))

    def test_identity_head_passes_input_through(self):
        params = single_layer_params(np.eye(3))
        x = np.array([[0.5, -1.5, 2.0]])
        logits, _ = forward(params, (x,))
        np.testing.assert_array_equal(logits, x)

    def test_hand_computed_two_layer(self):
        w_e = np.array([[1.0, -1.0], [2.0, 0.0]])
        w_h = np.array([[1.0, 1.0], [0.0, -1.0], [3.0, 0.5]])
        params = ModelParams(
            encoder_layers=((w_e, np.array([0.5, -1.0])),),
            head_layers=((w_h, np.array([0.0, 0.1, -0.2])),),
        )
        x = np.array([1.0, 2.0])
        emb = np.maximum(w_e @ x + np.array([0.5, -1.0]), 0.0)  # relu([-0.5, 1.0])
        expected = w_h @ emb + np.array([0.0, 0.1, -0.2])
        logits, _ = forward(params, (x[None, :],))
        np.testing.assert_allclose(logits[0], expected, atol=1e-15)

    def test_batch_matches_singles(self):
        params = init_params((4, 6), (6, 3), seed=0)
        xs = np.random.default_rng(1).normal(size=(5, 4))
        batch_logits, _ = forward(params, (xs,))
        for i in range(5):
            single, _ = forward(params, (xs[i : i + 1],))
            np.testing.assert_allclose(batch_logits[i], single[0], atol=1e-12)

    def test_inference_is_deterministic(self):
        params = init_params((4, 6), (6, 3), dropout=0.5, seed=0)
        x = np.ones((1, 4))
        a, _ = forward(params, (x,), training=False)
        b, _ = forward(params, (x,), training=False)
        np.testing.assert_array_equal(a, b)

    def test_wrong_width_rejected(self):
        params = init_params((4, 6), (6, 3))
        with pytest.raises(InvalidInputError, match="width 4"):
            forward(params, (np.ones((1, 5)),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.ones((2, 4))
        x[1, 2] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            forward(init_params((4, 6), (6, 3)), (x,))

    def test_plain_forward_rejects_siamese_params(self):
        params = init_params((4, 6), (12, 3))
        with pytest.raises(InvalidInputError, match="takes 2 input"):
            forward(params, (np.ones((1, 4)),))

    def test_training_dropout_needs_rng(self):
        params = init_params((4, 6), (6, 3), dropout=0.5)
        with pytest.raises(InvalidInputError):
            forward(params, (np.ones((1, 4)),), training=True)

    def test_dropout_mask_is_inverted_scale(self):
        params = init_params((4, 40), (40, 3), dropout=0.25, seed=2)
        rng = np.random.default_rng(9)
        _, cache = forward(params, (np.ones((1, 4)),), training=True, rng=rng)
        mask = cache["drop_mask"]
        values = set(np.round(np.unique(mask), 12))
        assert values <= {0.0, round(1.0 / 0.75, 12)}
        assert 0.0 in values  # with 40 units and rate .25 some unit drops


class TestSiamese:
    def test_difference_head_on_equal_inputs_is_zero(self):
        enc = ((np.eye(3), np.zeros(3)),)
        head_w = np.concatenate([np.eye(3), -np.eye(3)], axis=1)
        params = ModelParams(encoder_layers=enc, head_layers=((head_w, np.zeros(3)),))
        assert params.n_branches == 2
        x = np.array([[1.0, 2.0, 3.0]])
        logits, _ = forward(params, (x, x))
        np.testing.assert_allclose(logits, np.zeros((1, 3)), atol=1e-15)

    def test_order_matters(self):
        params = init_params((3, 4), (8, 3), seed=5)
        a = np.array([[1.0, 0.0, -1.0]])
        b = np.array([[0.0, 2.0, 1.0]])
        la, _ = forward(params, (a, b))
        lb, _ = forward(params, (b, a))
        assert not np.allclose(la, lb)

    def test_rejects_plain_params(self):
        params = init_params((3, 4), (4, 3))
        with pytest.raises(InvalidInputError, match="takes 1 input"):
            forward(params, (np.ones((1, 3)), np.ones((1, 3))))

    def test_rejects_mismatched_batch(self):
        params = init_params((3, 4), (8, 3))
        with pytest.raises(InvalidInputError, match="differ in length"):
            forward(params, (np.ones((2, 3)), np.ones((3, 3))))


class TestBackward:
    def test_zero_grad_logits_gives_zero_grads(self):
        params = init_params((4, 6), (6, 3), seed=1)
        logits, cache = forward(params, (np.ones((1, 4)),), training=True)
        grads = backward(cache, np.zeros_like(logits))
        np.testing.assert_array_equal(grads, np.zeros_like(params.vector))

    def test_stale_cache_rejected(self):
        with pytest.raises(InvalidInputError, match="training forward pass"):
            backward({"bogus": 1}, np.zeros(3))

    def test_grad_shape_mismatch_rejected(self):
        params = init_params((4, 6), (6, 3))
        _, cache = forward(params, (np.ones((1, 4)),), training=True)
        with pytest.raises(InvalidInputError):
            backward(cache, np.zeros((1, 4)))

    def test_combined_without_emd_matches_ce_path(self):
        params = init_params((4, 8), (8, 3), seed=13)
        x = np.random.default_rng(0).normal(size=4)
        y = np.array([0.0, 1.0, 0.0])
        batch_logits, cache = forward(params, (x[None, :],), training=True)
        logits = batch_logits[0]
        cfg = LossConfig(alpha=1.0, gamma=0.0, emd_weight=0.0)
        g_combined = batch_loss_gradient("combined", logits[None], y[None], cfg)[1]
        np.testing.assert_allclose(g_combined[0], softmax(logits) - y, atol=1e-12)
        grads = backward(cache, g_combined)
        grads_ce = backward(cache, batch_loss_gradient("ce", logits[None], y[None])[1])
        head = params.head_offset
        np.testing.assert_allclose(grads[head:], grads_ce[head:], atol=1e-12)

    @pytest.mark.parametrize("kind", ["ce", "focal", "emd", "combined"])
    def test_finite_differences_4_8_3_net(self, kind):
        params = init_params((4, 8), (8, 3), seed=21)
        rng = np.random.default_rng(4)
        x = rng.normal(size=4)
        y = np.array([0.0, 0.0, 1.0])
        assert finite_difference_check_params(params, (x,), y, kind) < 1e-5

    def test_finite_differences_grid(self):
        # Mixed losses, gammas, and both topologies; at least 20 cases.
        rng = np.random.default_rng(99)
        gammas = (0.0, 1.0, 2.0, 5.0)
        cases = 0
        for trial in range(12):
            n_classes = 3 + trial % 2
            cfg = LossConfig(gamma=gammas[trial % 4])
            for kind in ("focal", "combined"):
                plain = init_params((5, 7), (7, n_classes), seed=trial)
                x = rng.normal(size=5)
                y = np.eye(n_classes)[rng.integers(0, n_classes)]
                assert finite_difference_check_params(plain, (x,), y, kind, cfg) < 1e-5
                siam = init_params((4, 6), (12, n_classes), seed=trial + 50)
                xa, xb = rng.normal(size=4), rng.normal(size=4)
                assert finite_difference_check_params(siam, (xa, xb), y, kind, cfg) < 1e-5
                cases += 2
        assert cases >= 20

    def test_siamese_encoder_grads_accumulate_branches(self):
        params = init_params((3, 5), (10, 3), seed=8)
        xa = np.array([0.4, -0.2, 1.0])
        xb = np.array([-1.0, 0.3, 0.8])
        y = np.array([1.0, 0.0, 0.0])
        logits, cache = forward(params, (xa[None, :], xb[None, :]), training=True)
        g = batch_loss_gradient("ce", logits[0][None], y[None])[1][0]
        grads = backward(cache, g[None, :])
        # Recompute each branch alone by zeroing the other half of the head
        # input gradient; their encoder contributions must sum to the total.
        e = params.encoder_output_dim
        w_h = params.head_layers[0][0]
        g_fused = (g[None, :] @ w_h)[0]
        emb_a = np.maximum(params.encoder_layers[0][0] @ xa, 0.0)
        emb_b = np.maximum(params.encoder_layers[0][0] @ xb, 0.0)
        ga = (g_fused[:e] * (emb_a > 0))[:, None] * xa[None, :]
        gb = (g_fused[e:] * (emb_b > 0))[:, None] * xb[None, :]
        np.testing.assert_allclose(grads[: ga.size].reshape(ga.shape), ga + gb, atol=1e-12)

    @pytest.mark.parametrize("head_in", [5, 10], ids=["plain", "siamese"])
    def test_one_gradient_layout_per_call(self, monkeypatch, head_in):
        # Every branch writes into the views of the one gradient vector.
        params = init_params((3, 5), (head_in, 3), seed=8)
        rng = np.random.default_rng(1)
        logits, cache = forward(params, [rng.normal(size=(4, 3)) for _ in range(params.n_branches)], training=True)
        calls = []
        views = model_mod._views
        monkeypatch.setattr(model_mod, "_views", lambda *args: calls.append(args) or views(*args))
        backward(cache, np.ones_like(logits))
        assert len(calls) == 1


class TestInferencePass:
    """A forward pass with ``training=False`` keeps no backprop state."""

    def test_returns_no_cache_and_backward_rejects_it(self):
        params = init_params((4, 6), (6, 3), seed=1)
        logits, cache = forward(params, (np.ones((2, 4)),), training=False)
        assert logits.shape == (2, 3) and cache is None
        with pytest.raises(InvalidInputError, match="training forward pass"):
            backward(cache, np.zeros_like(logits))

    @pytest.mark.parametrize("encoder, head", [((5, 9, 7), (7, 3)), ((5, 6), (12, 8, 4))], ids=["plain", "siamese"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 33), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_logits_equal_a_dropout_free_training_pass_bit_for_bit(self, encoder, head, seed, rows, scale):
        params = init_params(encoder, head, seed=seed)
        rng = np.random.default_rng(seed)
        inputs = [rng.normal(0.0, scale, size=(rows, encoder[0])) for _ in range(params.n_branches)]
        inferred, _ = forward(params, inputs)
        trained, cache = forward(params, inputs, training=True)
        assert cache is not None and cache["drop_mask"] is None
        assert (inferred.shape, inferred.tobytes()) == (trained.shape, trained.tobytes())

    def test_peak_memory_is_under_one_and_a_half_widest_activations(self):
        params = init_params((16, 256, 64), (64, 3), seed=0)
        x = np.random.default_rng(0).normal(size=(4000, 16))
        widest = x.shape[0] * 256 * 8
        tracemalloc.start()
        try:
            forward(params, (x,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * widest

    @pytest.mark.parametrize("encoder, head", [((4, 8), (8, 3)), ((4, 6), (12, 4))], ids=["plain", "siamese"])
    def test_gradient_check_runs_without_the_dropout_rate(self, encoder, head):
        params = init_params(encoder, head, dropout=0.3, seed=7)
        rng = np.random.default_rng(5)
        inputs = [rng.normal(size=encoder[0]) for _ in range(params.n_branches)]
        y = np.eye(head[-1])[1]
        before = params.vector.copy()
        error = finite_difference_check_params(params, inputs, y, "combined")
        nodrop = ModelParams(params.encoder_layers, params.head_layers, 0.0)
        assert error == finite_difference_check_params(nodrop, inputs, y, "combined") and 0 < error < 1e-5
        assert params.vector.tobytes() == before.tobytes()


class TestOptimizers:
    def test_sgd_lr_one_gradient_equals_params(self):
        params = init_params((3, 4), (4, 3), seed=0)
        state = init_optimizer_state(OptimizerConfig(kind="sgd"), params)
        optimizer_step(state, params, params.vector.copy(), lr=1.0)
        for w, b in (*params.encoder_layers, *params.head_layers):
            np.testing.assert_array_equal(w, np.zeros_like(w))
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_sgd_decoupled_weight_decay(self):
        params = single_layer_params(np.array([[2.0, -4.0]]))
        grads = np.array([1.0, 1.0, 0.0])  # w (1, 2), then b (1,)
        cfg = OptimizerConfig(kind="sgd", weight_decay=0.1)
        optimizer_step(init_optimizer_state(cfg, params), params, grads, lr=0.5)
        # p - lr*g - lr*wd*p
        np.testing.assert_allclose(
            params.head_layers[0][0], np.array([[2.0 - 0.5 - 0.1, -4.0 - 0.5 + 0.2]])
        )

    def test_adam_first_step_is_signlike(self):
        params = single_layer_params(np.array([[1.0, -1.0, 0.5]]))
        g = np.array([[0.3, -0.2, 0.7]])
        grads = np.append(g, 0.0)
        cfg = OptimizerConfig(kind="adam")
        # After bias correction the first update is -lr * g/(|g| + eps).
        expected = params.head_layers[0][0] - 0.1 * g / (np.abs(g) + cfg.eps)
        state = init_optimizer_state(cfg, params)
        optimizer_step(state, params, grads, lr=0.1)
        np.testing.assert_allclose(params.head_layers[0][0], expected, atol=1e-12)
        assert state.step == 1

    def test_adam_zero_gradient_is_fixed_point(self):
        params = init_params((3, 4), (4, 3), seed=2)
        state = init_optimizer_state(OptimizerConfig(kind="adam"), params)
        before = params.vector.copy()
        optimizer_step(state, params, np.zeros_like(params.vector), lr=0.5)
        np.testing.assert_array_equal(params.vector, before)

    def test_step_updates_the_state_in_place(self):
        params = init_params((3, 4), (4, 3), seed=2)
        state = init_optimizer_state(OptimizerConfig(kind="adam"), params)
        vector, m, v = params.vector, state.m, state.v
        grads = np.random.default_rng(0).normal(size=params.vector.size)
        for step in (1, 2):
            assert optimizer_step(state, params, grads, lr=0.1) is None
            assert state.step == step and state.m is m and state.v is v and params.vector is vector
        assert np.all(m != 0) and np.all(v > 0)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_signed_zero_with_a_zero_step(self, kind):
        # At zero decay no decay pass runs, so -0.0 - 0.0 stays -0.0; the
        # decay pass subtracts lr * decay * -0.0 == -0.0, which gives +0.0.
        for decay, negative in ((0.0, True), (0.1, False)):
            params = init_params((3, 4), (4, 3), seed=0)
            params.vector[0] = -0.0
            state = init_optimizer_state(OptimizerConfig(kind=kind, weight_decay=decay), params)
            optimizer_step(state, params, np.zeros_like(params.vector), lr=0.5)
            assert params.vector[0] == 0.0 and bool(np.signbit(params.vector[0])) is negative

    def test_bad_lr_rejected(self):
        params = init_params((3, 4), (4, 3))
        grads = np.zeros_like(params.vector)
        state = init_optimizer_state(OptimizerConfig(kind="sgd"), params)
        for lr in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidInputError):
                optimizer_step(state, params, grads, lr=lr)

    def test_gradient_shape_mismatch_rejected(self):
        params = init_params((3, 4), (4, 3))
        state = init_optimizer_state(OptimizerConfig(kind="adam"), params)
        for grads in (np.zeros(params.vector.size - 1), np.zeros((1, params.vector.size))):
            with pytest.raises(InvalidInputError, match="does not match"):
                optimizer_step(state, params, grads, lr=0.1)

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(kind="rmsprop")

    @pytest.mark.parametrize("eps", [0.0, -1e-8])
    def test_non_positive_eps_rejected(self, eps):
        with pytest.raises(ConfigError, match="eps must be > 0"):
            OptimizerConfig(eps=eps)


class TestSchedule:
    def test_ramp_and_decay(self):
        cfg = TrainConfig(epochs=40, warmup_epochs=20, lr=0.001, lr_decay=0.9)
        assert lr_schedule(0, cfg) == pytest.approx(0.001 / 20)
        assert lr_schedule(19, cfg) == pytest.approx(0.001)
        assert lr_schedule(20, cfg) == pytest.approx(0.001)
        assert lr_schedule(22, cfg) == pytest.approx(0.001 * 0.81)

    def test_no_warmup_starts_at_full_lr(self):
        cfg = TrainConfig(epochs=5, lr=0.01, lr_decay=0.5)
        assert lr_schedule(0, cfg) == pytest.approx(0.01)
        assert lr_schedule(3, cfg) == pytest.approx(0.01 * 0.125)

    def test_negative_epoch_rejected(self):
        with pytest.raises(InvalidInputError):
            lr_schedule(-1, TrainConfig())


def labels_with_counts(counts: dict[int, int]) -> np.ndarray:
    return np.repeat(list(counts), list(counts.values()))


class TestBatching:
    def test_empty_labels_rejected(self):
        with pytest.raises(InvalidInputError, match="empty dataset"):
            make_batches(np.zeros(0, dtype=np.int64), TrainConfig(), np.random.default_rng(0))

    def test_balanced_batches_equal_composition(self):
        labels = labels_with_counts({0: 800, 1: 150, 2: 50})
        cfg = TrainConfig(balanced_batches=True, batch_size=30, encoder_dims=(3, 4), head_dims=(4, 3))
        batches = make_batches(labels, cfg, np.random.default_rng(0))
        assert len(batches) == math.ceil(800 / 10)
        for batch in batches:
            assert batch.size == 30
            counts = np.bincount(labels[batch], minlength=3)
            np.testing.assert_array_equal(counts, [10, 10, 10])

    def test_balanced_requires_every_class(self):
        labels = labels_with_counts({0: 10, 1: 10})
        cfg = TrainConfig(balanced_batches=True, batch_size=30, encoder_dims=(3, 4), head_dims=(4, 3))
        with pytest.raises(DataError, match="class 2"):
            make_batches(labels, cfg, np.random.default_rng(0))

    def test_undersample_caps_majority(self):
        labels = labels_with_counts({0: 800, 1: 150, 2: 50})
        cfg = TrainConfig(undersample_majority=1.0, batch_size=64, encoder_dims=(3, 4), head_dims=(4, 3))
        batches = make_batches(labels, cfg, np.random.default_rng(0))
        pooled = np.concatenate(batches)
        assert pooled.size == 150 + 150 + 50
        counts = np.bincount(labels[pooled], minlength=3)
        np.testing.assert_array_equal(counts, [150, 150, 50])
        assert np.unique(pooled).size == pooled.size  # no duplication in this mode

    def test_undersample_factor_past_the_majority_keeps_it_whole(self):
        # 1e308 * 150 overflows to inf; the cap is the majority's 800 rows.
        labels = labels_with_counts({0: 800, 1: 150, 2: 50})
        cfgs = [TrainConfig(undersample_majority=u, batch_size=64, encoder_dims=(3, 4), head_dims=(4, 3))
                for u in (1e308, 6.0)]
        huge, whole = (make_batches(labels, cfg, np.random.default_rng(0)) for cfg in cfgs)
        assert len(huge) == len(whole) and all(np.array_equal(a, b) for a, b in zip(huge, whole))
        assert np.array_equal(np.sort(np.concatenate(huge)), np.arange(labels.size))

    def test_plain_mode_covers_everything_once(self):
        labels = labels_with_counts({0: 17, 1: 6})
        cfg = TrainConfig(batch_size=5, encoder_dims=(3, 4), head_dims=(4, 3))
        batches = make_batches(labels, cfg, np.random.default_rng(1))
        pooled = np.concatenate(batches)
        assert sorted(pooled.tolist()) == list(range(23))
        assert [b.size for b in batches] == [5, 5, 5, 5, 3]

    def test_same_seed_same_batches(self):
        labels = labels_with_counts({0: 40, 1: 30, 2: 20})
        cfg = TrainConfig(balanced_batches=True, batch_size=12, encoder_dims=(3, 4), head_dims=(4, 3))
        a = make_batches(labels, cfg, np.random.default_rng(7))
        b = make_batches(labels, cfg, np.random.default_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"warmup_epochs": 31},
            {"lr": 0.0},
            {"lr_decay": 0.0},
            {"lr_decay": 1.5},
            {"batch_size": 0},
            {"balanced_batches": True, "batch_size": 2},
            {"balanced_batches": True, "undersample_majority": 1.0},
            {"dropout": 1.0},
            {"head_dims": (32, 4)},
            {"task": Task.T1, "loss_kind": "combined", "head_dims": (32, 4)},
            {"task": Task.T1, "loss_kind": "emd", "head_dims": (32, 4)},
            {"early_stop_patience": -1},
            {"freeze_head_epochs": 99},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_t1_with_focal_accepted(self):
        cfg = TrainConfig(task=Task.T1, loss_kind="focal", head_dims=(64, 4))
        assert cfg.task is Task.T1


def separable_dataset(n_per_class: int, seed: int, prefix: str) -> Dataset:
    rng = np.random.default_rng(seed)
    centers = {0: (-3.0, 0.0), 1: (0.0, 0.0), 2: (3.0, 0.0)}
    feats = [np.asarray(c) + rng.normal(0.0, 0.4, size=2) for c in centers.values() for _ in range(n_per_class)]
    return t2_dataset(np.array(feats), np.repeat(list(centers), n_per_class), prefix)


SANITY_CFG = TrainConfig(
    task=Task.T2,
    loss_kind="ce",
    encoder_dims=(2, 8),
    head_dims=(8, 3),
    epochs=30,
    lr=0.01,
    batch_size=32,
    seed=7,
)


class TestTrain:
    def test_patient_overlap_rejected(self):
        data = separable_dataset(4, 0, "P")
        with pytest.raises(InvalidInputError, match="overlap"):
            train(data, data.take(np.arange(3)), SANITY_CFG)

    def test_feature_dim_mismatch_rejected(self):
        data = t2_dataset(np.ones((12, 5)), labels_with_counts({0: 4, 1: 4, 2: 4}))
        with pytest.raises(ConfigError, match="feature dim"):
            train(data.take(np.arange(9)), data.take(np.arange(9, 12)), SANITY_CFG)

    @pytest.mark.parametrize("empty", ["train", "val"])
    def test_empty_dataset_rejected(self, empty):
        data, val_data = separable_dataset(4, 0, "A"), separable_dataset(2, 1, "B")
        if empty == "train":
            data = data.take(np.arange(0))
        else:
            val_data = val_data.take(np.arange(0))
        with pytest.raises(InvalidInputError, match="dataset is empty"):
            train(data, val_data, SANITY_CFG)

    def test_task_mismatch_rejected(self):
        data = separable_dataset(4, 0, "A")
        cfg = TrainConfig(task=Task.T1, loss_kind="focal", encoder_dims=(2, 8), head_dims=(16, 4))
        with pytest.raises(InvalidInputError, match="holds t2 rows"):
            train(data, separable_dataset(2, 1, "B"), cfg)

    def test_separable_sanity_run(self):
        # 200 training samples in three linearly separable 2-D blobs must be
        # fit almost perfectly within 30 epochs.
        train_data = separable_dataset(67, 1, "A").take(np.arange(200))
        val_data = separable_dataset(10, 2, "B")
        params, history = train(train_data, val_data, SANITY_CFG)
        pred = predict(params, train_data).argmax(axis=1)
        cm = np.zeros((3, 3), dtype=int)
        np.add.at(cm, (train_data.labels, pred), 1)
        assert suite(cm)[0]["micro_f1"] >= 0.95
        assert len(history.entries) == 30

    def test_bitwise_determinism(self):
        train_data = separable_dataset(10, 3, "A")
        val_data = separable_dataset(4, 4, "B")
        cfg = TrainConfig(
            encoder_dims=(2, 6), head_dims=(6, 3), epochs=4, batch_size=8, seed=5,
            dropout=0.2, loss_kind="combined",
        )
        p1, h1 = train(train_data, val_data, cfg)
        p2, h2 = train(train_data, val_data, cfg)
        for (w1, b1), (w2, b2) in zip(
            (*p1.encoder_layers, *p1.head_layers), (*p2.encoder_layers, *p2.head_layers)
        ):
            assert w1.tobytes() == w2.tobytes()
            assert b1.tobytes() == b2.tobytes()
        assert [e.train_loss for e in h1.entries] == [e.train_loss for e in h2.entries]

    def test_best_epoch_is_argmax_of_history(self):
        train_data = separable_dataset(10, 5, "A")
        val_data = separable_dataset(5, 6, "B")
        cfg = TrainConfig(encoder_dims=(2, 6), head_dims=(6, 3), epochs=6, batch_size=8, seed=1)
        _, history = train(train_data, val_data, cfg)
        averages = [e.val_report.average for e in history.entries]
        assert averages[history.best_epoch] == max(averages)

    def test_early_stopping_breaks_after_patience(self):
        train_data = separable_dataset(10, 7, "A")
        val_data = separable_dataset(5, 8, "B")
        # lr tiny enough that validation never improves after epoch 0
        cfg = TrainConfig(
            encoder_dims=(2, 6), head_dims=(6, 3), epochs=30, batch_size=8, seed=2,
            lr=1e-12, early_stop_patience=3,
        )
        _, history = train(train_data, val_data, cfg)
        assert len(history.entries) < 30
        assert history.best_epoch == 0

    def test_freeze_head_epochs_keeps_head_fixed(self):
        train_data = separable_dataset(10, 9, "A")
        val_data = separable_dataset(5, 10, "B")
        cfg = TrainConfig(
            encoder_dims=(2, 6), head_dims=(6, 3), epochs=2, batch_size=8, seed=3,
            lr=0.05, freeze_head_epochs=2,
        )
        params, _ = train(train_data, val_data, cfg)
        seed_init = np.random.SeedSequence(cfg.seed).spawn(3)[0]
        init = init_params(cfg.encoder_dims, cfg.head_dims, cfg.dropout, seed=seed_init)
        np.testing.assert_array_equal(params.head_layers[0][0], init.head_layers[0][0])
        assert not np.array_equal(params.encoder_layers[0][0], init.encoder_layers[0][0])

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_frozen_head_is_not_decayed(self, kind):
        train_data = separable_dataset(10, 9, "A")
        val_data = separable_dataset(5, 10, "B")
        cfg = TrainConfig(
            encoder_dims=(2, 6), head_dims=(6, 3), epochs=2, batch_size=8, seed=3,
            lr=0.05, freeze_head_epochs=2, optimizer=OptimizerConfig(kind=kind, weight_decay=0.1),
        )
        params, _ = train(train_data, val_data, cfg)
        seed_init = np.random.SeedSequence(cfg.seed).spawn(3)[0]
        init = init_params(cfg.encoder_dims, cfg.head_dims, cfg.dropout, seed=seed_init)
        assert params.vector[init.head_offset :].tobytes() == init.vector[init.head_offset :].tobytes()

    def test_returns_the_best_epoch_not_the_last(self):
        train_data = separable_dataset(10, 13, "A")
        val_data = separable_dataset(5, 14, "B")
        cfg = TrainConfig(
            encoder_dims=(2, 6), head_dims=(6, 3), epochs=12, batch_size=8, seed=4,
            lr=0.05, dropout=0.2, loss_kind="combined", early_stop_patience=2,
        )
        params, history = train(train_data, val_data, cfg)
        assert 0 < history.best_epoch < len(history.entries) - 1
        shorter_cfg = replace(cfg, epochs=history.best_epoch + 1, early_stop_patience=0)
        shorter, _ = train(train_data, val_data, shorter_cfg)
        assert params.vector.tobytes() == shorter.vector.tobytes()

    def test_step_functions_are_looked_up_on_every_call(self, monkeypatch):
        # Tracing and row counting replace these module attributes from outside.
        train_data = separable_dataset(10, 15, "A")
        val_data = separable_dataset(4, 16, "B")
        cfg = TrainConfig(encoder_dims=(2, 6), head_dims=(6, 3), epochs=2, batch_size=8, dropout=0.2)
        names = ("forward", "batch_loss_gradient", "backward", "optimizer_step", "make_batches")
        calls = {name: [] for name in names}

        def counting(fn, log):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                log.append((args, kwargs, result))
                return result

            return wrapper

        for name, log in calls.items():
            monkeypatch.setattr(model_mod, name, counting(getattr(model_mod, name), log))
        train(train_data, val_data, cfg)
        batch_sizes = [len(b) for *_, batches in calls["make_batches"] for b in batches]
        steps = len(batch_sizes)
        assert len(calls["make_batches"]) == cfg.epochs
        assert sum(batch_sizes) == cfg.epochs * len(train_data)
        assert [len(log) for log in calls.values()] == [steps + cfg.epochs, steps, steps, steps, cfg.epochs]
        training = [args[1][0].shape[0] for args, kwargs, _ in calls["forward"] if kwargs.get("training")]
        assert training == batch_sizes

    def test_non_finite_loss_aborts_with_diagnostics(self, monkeypatch):
        train_data = separable_dataset(6, 11, "A")
        val_data = separable_dataset(3, 12, "B")
        cfg = TrainConfig(encoder_dims=(2, 6), head_dims=(6, 3), epochs=2, batch_size=8)

        def poisoned(kind, logits, targets, loss_cfg):
            return float("nan"), np.zeros_like(logits)

        monkeypatch.setattr(model_mod, "batch_loss_gradient", poisoned)
        with pytest.raises(NumericError, match="epoch 0 batch 0.*focal=.*emd="):
            train(train_data, val_data, cfg)

    def test_pair_records_train_siamese(self):
        feats = np.random.default_rng(13).normal(size=(24, 2, 3))
        data = t1_dataset(feats[:, 0], feats[:, 1], np.arange(24) % 4)
        cfg = TrainConfig(
            task=Task.T1, loss_kind="focal", encoder_dims=(3, 5), head_dims=(10, 4),
            epochs=2, batch_size=8, seed=0,
        )
        params, history = train(data.take(np.arange(16)), data.take(np.arange(16, 24)), cfg)
        assert params.n_branches == 2
        assert len(history.entries) == 2


class TestPredict:
    def test_rows_and_simplex(self):
        params = init_params((2, 6), (6, 3), seed=0)
        data = separable_dataset(2, 0, "A")
        out = predict(params, data)
        assert out.shape == (len(data), 3)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        for i, row in enumerate(out):  # row i belongs to dataset row i
            np.testing.assert_allclose(row, predict(params, data.take(np.array([i])))[0], rtol=1e-12)

    def test_duplicate_record_identical_probs(self):
        params = init_params((2, 6), (6, 3), seed=0)
        row = separable_dataset(1, 0, "A").x[0]
        out = predict(params, t2_dataset(np.stack([row, row]), [0, 0]))
        np.testing.assert_array_equal(out[0], out[1])

    def test_topology_mismatch(self):
        siam = init_params((2, 6), (12, 3))
        plain = init_params((2, 6), (6, 3))
        data = separable_dataset(1, 0, "A")
        pair = t1_dataset(np.ones((1, 2)), np.ones((1, 2)), [1])
        with pytest.raises(InvalidInputError):
            predict(siam, data)
        with pytest.raises(InvalidInputError):
            predict(plain, pair)

    def test_empty_input(self):
        out = predict(init_params((2, 4), (4, 3)), t2_dataset(np.zeros((0, 2)), []))
        assert out.shape == (0, 3)

    def test_results_held_by_the_caller_stay_as_they_were(self):
        params = init_params((2, 6), (6, 3), dropout=0.3, seed=0)
        data = separable_dataset(3, 0, "A")
        logits = forward(params, data.inputs, training=True, rng=np.random.default_rng(0))[0]
        probs = predict(params, data)
        held = logits.copy(), probs.copy()
        forward(params, data.inputs, training=True, rng=np.random.default_rng(1))
        predict(params, data.take(np.arange(len(data))[::-1]))
        assert logits.tobytes() == held[0].tobytes() and probs.tobytes() == held[1].tobytes()

    def test_thousand_records_under_a_second(self):
        import time

        params = init_params((32, 64), (64, 3), seed=0)
        data = t2_dataset(np.random.default_rng(0).normal(size=(1000, 32)), np.ones(1000, dtype=int))
        start = time.perf_counter()
        out = predict(params, data)
        assert time.perf_counter() - start < 1.0
        assert len(out) == 1000


class TestCheckpoints:
    def make_params(self):
        return init_params((4, 6), (12, 5, 3), dropout=0.25, seed=42)

    def test_round_trip_exact(self, tmp_path):
        params = self.make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.dropout_rate == params.dropout_rate
        for (w0, b0), (w1, b1) in zip(
            (*params.encoder_layers, *params.head_layers),
            (*loaded.encoder_layers, *loaded.head_layers),
        ):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)
        assert topology(loaded) == topology(params) == (4, 6, 2, 30)

    def test_file_layout_and_determinism(self, tmp_path):
        params = self.make_params()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params)
        save_checkpoint(b, params)
        blob = a.read_bytes()
        assert blob.startswith(CHECKPOINT_MAGIC)
        assert blob == b.read_bytes()
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.make_params())
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.make_params())
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.make_params())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.make_params())
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 99)
        path.write_bytes(seal(bytes(blob[:-4])))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")

    @pytest.mark.parametrize(
        "encoder, head",
        [([(0, 4)], [(3, 0)]), ([], [(3, 0)]), ([(4, 2)], [(0, 4)]), ([(4, 2)], [(3, 4), (0, 3)])],
        ids=["zero_wide_encoder", "zero_wide_input", "zero_classes", "zero_classes_deep"],
    )
    def test_zero_width_layer_is_rejected(self, tmp_path, encoder, head):
        layers = [(np.zeros(shape), np.zeros(shape[0])) for shape in (*encoder, *head)]
        with pytest.raises(ConfigError, match=r"has a zero dimension"):
            ModelParams(tuple(layers[: len(encoder)]), tuple(layers[len(encoder) :]))
        # The same layers in a checkpoint whose checksum holds.
        path = tmp_path / "zero.ckpt"
        path.write_bytes(zero_checkpoint(encoder, head))
        with pytest.raises(CheckpointError, match=r"inconsistent parameters: .* has a zero dimension"):
            load_checkpoint(path)
