"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from workloads import Workload  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    recorded = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 2.0, 4.0, 0),  # overlaps a: together they cover [1, 4]
        Span(3, "c", 9.0, 12.0, 0),  # only [9, 10] lies inside root
        Span(4, "leaf", 1.5, 2.5, 1),
    ]
    own = spans.self_times(recorded)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_recorded_spans_nest_by_thread_and_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    with tracer.span("outer"):
        inner()
        inner()
    outer = next(s for s in tracer.spans if s.name == "outer")
    children = [s for s in tracer.spans if s.name == "inner"]
    assert [c.parent for c in children] == [outer.id, outer.id]
    own = spans.self_times(tracer.spans)
    covered = sum(c.end - c.start for c in children)
    assert own[outer.id] == pytest.approx(outer.end - outer.start - covered)


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert spans.percentile(samples, 99) == 990
    assert spans.percentile(samples[:-1], 99) is None
    assert spans.percentile(range(1, 21), 50) == 10
    assert spans.percentile(range(1, 20), 50) is None
    assert spans.percentile([], 50) is None


def _tiny(task: str, **overrides) -> Workload:
    if task == "t2":
        gen = {"n_patients": 8, "visits_min": 2, "visits_max": 3, "bscans_min": 3, "bscans_max": 4,
               "feature_dim": 4, "class_ratios": "0.4,0.2,0.4"}
        train = {"encoder_dims": "4,8", "head_dims": "8,3", "epochs": 2, "batch_size": 8, "balanced_batches": "true"}
        ensemble = ("--mode", "unanimity", "--postprocess")
    else:
        gen = {"n_patients": 12, "visits_min": 3, "visits_max": 4, "feature_dim": 4}
        train = {"loss": "focal", "encoder_dims": "4,8", "head_dims": "16,4", "epochs": 2, "batch_size": 8,
                 "undersample_majority": 1.0, "optimizer": "sgd", "weight_decay": 0.001}
        ensemble = ("--mode", "mean")
    fields = dict(name=f"tiny_{task}", task=task, gen=gen, train=train, folds=2,
                  ensemble=ensemble, gen_measured=True)
    fields.update(overrides)
    return Workload(**fields)


def _traced_counts(w: Workload, tmp_path: Path, tag: str) -> dict:
    cfg = tmp_path / "cfg"
    cfg.mkdir(exist_ok=True)
    (cfg / "gen.cfg").write_text(w.config_text(w.gen, 7))
    (cfg / "train.cfg").write_text(w.config_text(w.train, 7))
    out = tmp_path / tag
    out.mkdir()
    ledger = run.Ledger()
    tracer = spans.Tracer()
    with spans.instrument(tracer) as missing:
        assert run.in_process(w, cfg, out, tmp_path / "log", ledger, tracer) is not None
    assert missing == []
    n_rows, _ = run.check_outputs(w, out, out / "data", ledger)
    assert ledger.failed == 0
    metrics = spans.layer_metrics(tracer, ensemble_rows=n_rows)
    return {name: metrics[name] for name in spans.COUNT_METRICS}


@pytest.mark.parametrize("task", ["t2", "t1"])
def test_count_metrics_repeat_exactly_across_traced_runs(task, tmp_path, monkeypatch):
    monkeypatch.setenv("ORDCHANGE_THREADS", "2" if task == "t1" else "1")
    w = _tiny(task)
    first = _traced_counts(w, tmp_path, "first")
    second = _traced_counts(w, tmp_path, "second")
    assert first == second
    assert first["model.optimizer_step.calls"] > 0
    assert first["cli.bytes_written"] > 0
    if task == "t2":
        # two prediction sets, two unanimity votes and one volume check per row
        assert first["ensemble.prob_checks_per_row"] == 5.0


def test_instrument_restores_every_wrapped_name():
    import ordchange.cli
    import ordchange.ensemble
    import ordchange.model

    before = (ordchange.cli.train, ordchange.model.forward, ordchange.ensemble.as_prob_vector,
              ordchange.model.ModelParams.__dict__["__post_init__"])
    with spans.instrument(spans.Tracer()):
        assert ordchange.model.forward is not before[1]
    after = (ordchange.cli.train, ordchange.model.forward, ordchange.ensemble.as_prob_vector,
             ordchange.model.ModelParams.__dict__["__post_init__"])
    assert after == before


def test_thread_settings_never_exceed_nproc():
    for nproc in (1, 2, 3, 8):
        for threads in (1, 2, 4):
            env = run.thread_settings(_tiny("t1", fold_threads=threads), nproc)
            folds, blas = int(env["ORDCHANGE_THREADS"]), int(env["OPENBLAS_NUM_THREADS"])
            assert folds <= nproc and (blas == 1 or folds + blas <= nproc)


def test_reference_job_scales_each_command_by_the_runs_around_it(tmp_path):
    ledger = run.Ledger()
    seconds = run.reference_seconds(tmp_path, tmp_path / "log", ledger)
    assert ledger.failed == 0 and seconds > 0
    assert list(tmp_path.iterdir()) == [tmp_path / "log"]  # the job removes its CSV
    assert run.speed_scale(run.REFERENCE_S, run.REFERENCE_S) == pytest.approx(1.0)
    # a host running at half speed doubles both times; the scaled time stays put
    assert 2.0 * run.speed_scale(2 * run.REFERENCE_S, 2 * run.REFERENCE_S) == pytest.approx(1.0)
