"""The group-vote kernel against the per-record oracle in ``reference_ensemble``,
and golden digests of ``ensemble``'s output for a fixed fold run."""

import contextlib
import hashlib
import io
import itertools
from pathlib import Path

import numpy as np
import pytest
import reference_ensemble as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ordchange.cli import main
from ordchange.ensemble import (
    PostprocessConfig,
    TieBreak,
    group_vote,
    mean_ensemble,
    unanimity_ensemble,
    volume_consistency,
)

# Rows of tenths summing to one: many exact ties between classes and between
# mean probabilities, and sums such as 0.1 + 0.2 + 0.3 whose rounding depends
# on the order they are added in (near ties).
TENTHS = {
    c: [np.array(parts) / 10 for parts in itertools.product(range(11), repeat=c) if sum(parts) == 10]
    for c in (3, 4)
}


def any_row(c: int):
    drawn = st.lists(st.floats(0.01, 1.0), min_size=c, max_size=c).map(lambda v: np.array(v) / sum(v))
    return st.one_of(st.sampled_from(TENTHS[c]), drawn)


configs = st.builds(
    PostprocessConfig,
    stable_ratio_threshold=st.sampled_from([0.2, 0.25, 1 / 3, 0.45, 0.5, 2 / 3, 0.75, 0.8, 1.0]),
    tie_break=st.sampled_from(list(TieBreak)),
    majority_includes_stable=st.booleans(),
)


@st.composite
def grouped_rows(draw):
    """Interleaved rows of 1-6 groups. A group is 1-4 members, each one row
    or a tied pair: a row labeled 0 and its mirror image labeled c-1, equal
    in votes and in mean probability for the two classes. Labels lean to
    Stable, so that all-Stable groups and groups at the threshold occur."""
    c = draw(st.sampled_from([3, 4]))
    base = draw(st.lists(st.sampled_from(TENTHS[c]), min_size=1, max_size=3))
    label = st.sampled_from([0, 1, 1, 1, 2] + ([3] if c == 4 else []))
    single = st.tuples(label, st.one_of(st.sampled_from(base), any_row(c))).map(lambda member: [member])
    pair = st.sampled_from(base).map(lambda r: [(0, r), (c - 1, r[::-1])])
    group = st.lists(st.one_of(single, pair), min_size=1, max_size=4).map(lambda members: sum(members, []))
    rows = [(g, lab, p) for g, members in enumerate(draw(st.lists(group, min_size=1, max_size=6))) for lab, p in members]
    groups, labels, probs = zip(*draw(st.permutations(rows)))
    return np.array(groups), np.array(labels, dtype=np.int64), np.array(probs)


def reference_labels(names, labels, probs, cfg) -> dict[str, int]:
    preds = [ref.BscanPrediction(f"r{i}", v, int(lab), p) for i, (v, lab, p) in enumerate(zip(names, labels, probs))]
    return ref.volume_consistency(preds, cfg)[0]


@settings(max_examples=400, deadline=None)
@given(rows=grouped_rows(), cfg=configs)
def test_group_vote_matches_reference(rows, cfg):
    groups, labels, probs = rows
    expected = reference_labels([str(g) for g in groups], labels, probs, cfg)
    voted = group_vote(groups, labels, probs, cfg.stable_ratio_threshold, cfg)
    assert voted.tolist() == [expected[str(g)] for g in range(len(voted))]


@settings(max_examples=200, deadline=None)
@given(rows=grouped_rows(), cfg=configs)
def test_volume_consistency_matches_reference(rows, cfg):
    groups, labels, probs = rows
    # Names that sort differently from the group numbers.
    names = [f"P{9 - g}_V{g % 2}" for g in groups]
    expected = reference_labels(names, labels, probs, cfg)
    assert volume_consistency(names, labels, probs, cfg).tolist() == [expected[v] for v in names]


@st.composite
def prediction_sets(draw):
    """1-4 models over the same 1-8 keys, each model's rows in its own order.
    Rows come mostly from a few entries and their mirror images (class k
    swapped with class c-1-k), so that models tie in votes and in mean
    probability exactly."""
    c = draw(st.sampled_from([3, 4]))
    keys = [f"k{i}" for i in range(draw(st.integers(1, 8)))]
    base = st.sampled_from(draw(st.lists(st.sampled_from(TENTHS[c]), min_size=1, max_size=3)))
    rows = st.one_of(base, base.map(lambda r: r[::-1]), any_row(c))
    sets = []
    for m in range(draw(st.integers(1, 4))):
        order = keys if m == 0 else draw(st.permutations(keys))
        sets.append((f"m{m}", list(order), [draw(rows) for _ in order]))
    return sets


@settings(max_examples=400, deadline=None)
@given(sets=prediction_sets(), cfg=configs)
def test_ensembles_match_reference(sets, cfg):
    # Each model's rows in the first model's key order.
    stack = np.stack([np.array(rows)[[keys.index(key) for key in sets[0][1]]] for _, keys, rows in sets])
    old = [ref.PredictionSet(name, tuple(zip(keys, rows))) for name, keys, rows in sets]
    for (labels, probs), expected in (
        (mean_ensemble(stack), ref.mean_ensemble(old)),
        (unanimity_ensemble(stack, cfg), ref.unanimity_ensemble(old, cfg)),
    ):
        assert [k for k, _, _ in expected] == sets[0][1]
        assert labels.tolist() == [lab for _, lab, _ in expected]
        assert probs.tobytes() == np.array([p for _, _, p in expected]).tobytes()


# sha256 of ensemble.csv for one gen, `train --folds 3` and three predicts,
# taken from the per-record voting code that the group-vote kernel replaced.
GEN_CFG = (
    "task=t2\nn_patients=9\nvisits_min=2\nvisits_max=3\nbscans_min=3\nbscans_max=6\n"
    "feature_dim=4\nclass_ratios=0.15,0.7,0.15\nnoise_sigma=1.0\nseed=3\n"
)
TRAIN_CFG = "task=t2\nloss=combined\nencoder_dims=4,6\nhead_dims=6,3\nepochs=3\nlr=0.01\nbatch_size=8\nseed=3\n"
UNANIMITY_POST = ("--mode", "unanimity", "--postprocess")
GOLDEN = {
    # (prediction files, flags): digest
    (2, ("--mode", "mean")): "e81457a6ce702b7b9439040a41571e9a83f0edcec94253df9702658613bbee76",
    (2, ("--mode", "mean", "--postprocess")): "137dfc96e23470a2587aba0c40dcbeb2c87dd2021ad61b8709bb177746aa5356",
    (2, ("--mode", "mean", "--postprocess", "--stable-threshold", "0.45")):
        "f7baa52775852cb570483bfb4f8955625430ef471eb0dfc940981df9f8769d32",
    (2, ("--mode", "mean", "--postprocess", "--stable-threshold", "1.0")):
        "a6174e79e4d4429c6b6e3185315d3d4a365c888c21a4aca79b9e44523a2619a3",
    (2, ("--mode", "mean", "--postprocess", "--tie-break", "most_severe", "--majority-includes-stable",
         "--stable-threshold", "0.45")): "f7baa52775852cb570483bfb4f8955625430ef471eb0dfc940981df9f8769d32",
    (2, ("--mode", "unanimity")): "0a7f6b11e9ea2d0a7ee3f30bec9ae963ec523e3961c5f6bfb865a76bc87addc8",
    (2, ("--mode", "unanimity", "--tie-break", "most_severe")):
        "ff4e8c0f5f380e1854c37196fca2ce3099513e1ddefbcbcbbfe7720f02c207ee",
    (2, ("--mode", "unanimity", "--majority-includes-stable")):
        "0b4a485c734fd3054b4bce0bece162dec53460ad240d3fa010733b260667b73d",
    (2, UNANIMITY_POST): "bf75fb2360d0e1eee1bee25a157678cfdfa03af3e293c966905529104cd5af8a",
    (2, (*UNANIMITY_POST, "--tie-break", "most_severe")):
        "7406a975c6ddb4e2b441dbd5370a30baf92aa3d09707765298d913add5bc0be7",
    (2, (*UNANIMITY_POST, "--majority-includes-stable")):
        "f60fd69504e527b0b6325a9a05687b5369a9da52c99c056d51e81a2fbe2dff0e",
    (2, (*UNANIMITY_POST, "--stable-threshold", "0.45")):
        "65916fdf3cc2b0403b4826c38ea38b3ed58c74578b8e91a3c83ba7b762f83baf",
    (2, (*UNANIMITY_POST, "--majority-includes-stable", "--stable-threshold", "1.0")):
        "f60fd69504e527b0b6325a9a05687b5369a9da52c99c056d51e81a2fbe2dff0e",
    (3, UNANIMITY_POST): "d245c25259e83adbcb3ed8cb75dc1704e7dc6bdbd695ad4867662913f7bedaf0",
}


@pytest.fixture(scope="module")
def fold_predictions(tmp_path_factory) -> list[Path]:
    root = tmp_path_factory.mktemp("folds")
    (root / "gen.cfg").write_text(GEN_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    dataset = str(root / "data" / "dataset.csv")
    preds = [root / f"p{i}.csv" for i in range(3)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(root / "gen.cfg"), "--out", str(root / "data")]) == 0
        assert main(["train", "--config", str(root / "train.cfg"), "--data", dataset,
                     "--out", str(root / "m.ckpt"), "--folds", "3"]) == 0
        for i, pred in enumerate(preds):
            assert main(["predict", "--ckpt", str(root / f"m.fold{i}.ckpt"), "--data", dataset,
                         "--out", str(pred)]) == 0
    return preds


@pytest.mark.parametrize("n_files, flags", sorted(GOLDEN), ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_ensemble_output_matches_golden_digest(fold_predictions, tmp_path, capsys, n_files, flags):
    out = tmp_path / "ensemble.csv"
    assert main(["ensemble", *map(str, fold_predictions[:n_files]), *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[n_files, flags]
