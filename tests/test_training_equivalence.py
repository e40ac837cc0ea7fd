"""The flat-vector training step and the balanced batches against the
oracles in ``reference_training``, and golden digests of ``train``'s output
files."""

import hashlib

import numpy as np
import pytest
import reference_training as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordchange.cli import main
from ordchange.core import Task
from ordchange.losses import LOSS_KINDS, LossConfig, batch_loss_gradient
from ordchange.model import (
    OptimizerConfig,
    TrainConfig,
    backward,
    forward,
    init_optimizer_state,
    init_params,
    make_batches,
    optimizer_step,
)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def layers(params) -> list[np.ndarray]:
    return [a for w, b in (*params.encoder_layers, *params.head_layers) for a in (w, b)]


@st.composite
def training_runs(draw):
    siamese = draw(st.booleans())
    # One entry means no encoder layers, which only the plain topology allows.
    enc = draw(st.lists(st.integers(1, 6), min_size=1 + siamese, max_size=3))
    head_in = 2 * enc[-1] if siamese else enc[-1]
    head = [head_in, *draw(st.lists(st.integers(1, 6), max_size=2)), draw(st.integers(2, 4))]
    optimizer = OptimizerConfig(
        kind=draw(st.sampled_from(["sgd", "adam"])),
        weight_decay=draw(st.sampled_from([0.0, 1e-4, 0.05])),
    )
    # A full batch size and a short one, as the last batch of an epoch is.
    batch = draw(st.integers(2, 9))
    sizes = draw(st.lists(st.sampled_from([batch, draw(st.integers(1, batch - 1))]), min_size=2, max_size=5))
    return dict(
        siamese=siamese,
        enc=enc,
        head=head,
        optimizer=optimizer,
        loss_kind=draw(st.sampled_from(LOSS_KINDS)),
        dropout=draw(st.sampled_from([0.0, 0.3])),
        sizes=sizes,
        frozen=draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes))),
        lr=draw(st.sampled_from([1e-3, 0.05, 0.5])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=120, deadline=None)
@given(run=training_runs())
def test_training_steps_match_per_layer_oracle(run):
    """Training steps as ``train`` takes them (allocating forward, loss and
    backward, parameters and moments updated in place, batches of two sizes)
    reproduce the per-layer arrays bit for bit, step after step, moments
    included."""
    rng = np.random.default_rng(run["seed"])
    params = init_params(run["enc"], run["head"], run["dropout"], seed=run["seed"])
    state = init_optimizer_state(run["optimizer"], params)
    ref_params = init_params(run["enc"], run["head"], run["dropout"], seed=run["seed"])
    ref_step, ref_m, ref_v = 0, *ref.init_moments(run["optimizer"].kind, ref_params)
    loss_cfg = LossConfig()
    for n, frozen in zip(run["sizes"], run["frozen"]):
        xs = [rng.normal(size=(n, run["enc"][0])) for _ in range(1 + run["siamese"])]
        targets = np.eye(run["head"][-1])[rng.integers(run["head"][-1], size=n)]
        mask_seed = int(rng.integers(2**32))
        logits, cache = forward(params, xs, training=True, rng=np.random.default_rng(mask_seed))
        ref_logits, ref_cache = ref.forward(ref_params, xs, np.random.default_rng(mask_seed))
        assert same_bits(logits, ref_logits)
        loss, grad_logits = batch_loss_gradient(run["loss_kind"], logits, targets, loss_cfg)
        ref_loss, ref_grad_logits = ref.batch_loss_gradient(run["loss_kind"], ref_logits, targets, loss_cfg)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert same_bits(grad_logits, ref_grad_logits)
        grads = backward(cache, grad_logits)
        ref_grads = ref.backward(ref_cache, ref_grad_logits)
        assert same_bits(grads, np.concatenate([a.ravel() for a in ref_grads]))

        assert optimizer_step(state, params, grads, run["lr"], freeze_head=frozen) is None
        ref_params, ref_step, ref_m, ref_v = ref.optimizer_step(
            run["optimizer"], ref_step, ref_m, ref_v, ref_params, ref_grads, run["lr"], freeze_head=frozen
        )
        assert all(same_bits(a, b) for a, b in zip(layers(params), layers(ref_params)))
        assert state.step == ref_step
        if run["optimizer"].kind == "adam":
            for moments, ref_moments in ((state.m, ref_m), (state.v, ref_v)):
                assert same_bits(moments, np.concatenate([a.ravel() for a in ref_moments]))


@st.composite
def loss_batches(draw):
    # Logits up to 80 apart push probabilities below the 1e-12 clamp and round
    # others to exactly 1.
    width = draw(st.integers(3, 5))
    rows = draw(st.lists(st.lists(st.floats(-40, 40), min_size=width, max_size=width), min_size=1, max_size=8))
    if draw(st.booleans()):
        targets = np.eye(width)[draw(st.lists(st.integers(0, width - 1), min_size=len(rows), max_size=len(rows)))]
    else:  # soft targets, so that no product with a target is exact
        targets = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(width), len(rows))
    cfg = LossConfig(
        alpha=draw(st.sampled_from([1.0, 0.25])),
        gamma=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7])),
        focal_weight=draw(st.sampled_from([1.0, 0.5])),
        emd_weight=draw(st.sampled_from([1.0, 2.0])),
        epsilon=draw(st.sampled_from([1e-12, 1e-3])),
    )
    return np.array(rows), targets, cfg


@settings(max_examples=200, deadline=None)
@given(batch=loss_batches(), kind=st.sampled_from(LOSS_KINDS))
def test_batch_loss_gradient_matches_per_term_oracle(batch, kind):
    logits, targets, cfg = batch
    value, grad = batch_loss_gradient(kind, logits, targets, cfg)
    ref_value, ref_grad = ref.batch_loss_gradient(kind, logits, targets, cfg)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert same_bits(grad, ref_grad)


def test_clamped_and_certain_probabilities_match_oracle():
    # Both guarded regions of the focal gradient, at gamma 0 and below 1.
    logits = np.array([[40.0, -40.0, 0.0], [-40.0, 40.0, -40.0]])
    targets = np.eye(3)[[1, 1]]
    for kind in LOSS_KINDS:
        for gamma in (0.0, 0.5):
            cfg = LossConfig(gamma=gamma)
            value, grad = batch_loss_gradient(kind, logits, targets, cfg)
            ref_value, ref_grad = ref.batch_loss_gradient(kind, logits, targets, cfg)
            assert value == ref_value and same_bits(grad, ref_grad)
            assert np.all(np.isfinite(grad))


@settings(max_examples=150, deadline=None)
@given(
    task=st.sampled_from(list(Task)),
    counts=st.lists(st.integers(1, 40), min_size=4, max_size=4),
    batch_size=st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
)
# A minority class drawn with replacement, and a batch size the class count does not divide.
@example(task=Task.T2, counts=[3, 40, 1, 1], batch_size=10, seed=1)
@example(task=Task.T1, counts=[40, 2, 7, 40], batch_size=7, seed=2)
# A batch size past C times the largest class: the rows per class stop at that class's size.
@example(task=Task.T2, counts=[2, 3, 1, 1], batch_size=40, seed=3)
def test_balanced_batches_match_per_batch_oracle(task, counts, batch_size, seed):
    """``make_batches`` in balanced mode returns the oracle's index arrays,
    as a list of 1-D arrays, and leaves the generator where the oracle does."""
    n_classes = task.n_classes
    labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(n_classes), counts[:n_classes]))
    cfg = TrainConfig(task=task, loss_kind="focal", head_dims=(32 * task.n_branches, n_classes), balanced_batches=True,
                      batch_size=batch_size)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batches = make_batches(labels, cfg, rng)
    ref_batches = ref.balanced_batches(labels, batch_size, n_classes, ref_rng)
    assert isinstance(batches, list) and len(batches) == len(ref_batches)
    assert all(b.ndim == 1 and same_bits(b, r) for b, r in zip(batches, ref_batches))
    assert rng.random() == ref_rng.random()


# sha256 of the checkpoint and history CSV of one gen + train. The t1 and t2
# digests come from the per-layer training step that the flat parameter vector
# replaced; the other two from the allocating step that the training
# workspace replaced.
GOLDEN = {
    # adam, combined loss, dropout, warmup and a frozen head
    "t2": (
        "task=t2\nn_patients=6\nvisits_min=2\nvisits_max=3\nbscans_min=2\nbscans_max=4\n"
        "feature_dim=5\nclass_ratios=0.3,0.4,0.3\nseed=3\n",
        "task=t2\nloss=combined\nencoder_dims=5,8\nhead_dims=8,3\ndropout=0.25\nepochs=6\n"
        "warmup_epochs=2\nfreeze_head_epochs=2\nlr=0.01\nbatch_size=8\noptimizer=adam\nseed=4\n",
        "33ad19b56caea29db2a5fe8fff145152fe2a01b59fbf9c738519a89a2dae1756",
        "765c8f6f3e6ed82b860c855be9b6271b2662d22aa880da40ac145fa95a03c674",
    ),
    # siamese pairs, focal loss, sgd with weight decay, undersampling
    "t1": (
        "task=t1\nn_patients=12\nvisits_min=3\nvisits_max=4\nfeature_dim=4\n"
        "class_ratios=0.3,0.4,0.3\nother_rate=0.2\nseed=3\n",
        "task=t1\nloss=focal\ngamma=1.5\nencoder_dims=4,6\nhead_dims=12,4\nepochs=5\nlr=0.05\n"
        "batch_size=8\noptimizer=sgd\nweight_decay=0.01\nundersample_majority=1.0\nseed=4\n",
        "f4149589b4c32e8b5c80ab4aae679e38634f949ec665cec55195197e1fc5577d",
        "1517ecb9b597547cec88429aa37c448d91d0295ac7b37391ef25a6f6a4b8d77c",
    ),
    # siamese pairs, cross-entropy, adam, dropout, a short last batch, best epoch before the last
    "t1_adam": (
        "task=t1\nn_patients=12\nvisits_min=3\nvisits_max=4\nfeature_dim=4\n"
        "class_ratios=0.3,0.4,0.3\nother_rate=0.2\nseed=5\n",
        "task=t1\nloss=ce\nencoder_dims=4,6\nhead_dims=12,4\ndropout=0.3\nepochs=5\nlr=0.01\n"
        "batch_size=7\noptimizer=adam\nseed=6\n",
        "1aaf98e082de19c5c9cb6ec2aa62bca7fde5a32737c42a58cf27e3b53f33b6fa",
        "5fdac1dcd9229dc34403c20a1aaed9dcadf4c98737f390ac218973475e4fee60",
    ),
    # the t2_train_loop benchmark shape scaled down, with sgd: balanced batches,
    # combined loss, dropout and warmup
    "t2_balanced_sgd": (
        "task=t2\nn_patients=20\nvisits_min=4\nvisits_max=4\nbscans_min=2\nbscans_max=2\n"
        "feature_dim=8\nclass_ratios=0.1,0.8,0.1\nseed=7\n",
        "task=t2\nloss=combined\nencoder_dims=8,16\nhead_dims=16,3\ndropout=0.2\nepochs=6\n"
        "warmup_epochs=2\nlr=0.05\nbatch_size=12\nbalanced_batches=true\noptimizer=sgd\nseed=8\n",
        "389b1c4205acb5fefc1935ecc3bd7b4cb2027150aa555cae3fe18eaa226392d1",
        "8a2222afbe8cbb514bca7cc8d3b6824e58118df8c115c69f122e9a2bb299c1c4",
    ),
}


@pytest.mark.parametrize("task", sorted(GOLDEN))
def test_train_output_matches_golden_digest(task, tmp_path):
    gen_cfg, train_cfg, ckpt_sha, history_sha = GOLDEN[task]
    (tmp_path / "gen.cfg").write_text(gen_cfg)
    (tmp_path / "train.cfg").write_text(train_cfg)
    assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "d")]) == 0
    argv = ["train", "--config", str(tmp_path / "train.cfg"), "--data", str(tmp_path / "d" / "dataset.csv")]
    assert main([*argv, "--out", str(tmp_path / "m.ckpt")]) == 0
    assert hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest() == ckpt_sha
    assert hashlib.sha256((tmp_path / "m.ckpt.history.csv").read_bytes()).hexdigest() == history_sha
