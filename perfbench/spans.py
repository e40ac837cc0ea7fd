"""In-memory span recorder and the outside-in instrumentation of ordchange.

The traced run wraps public functions of the ordchange modules by replacing
the module attribute that their callers look up at call time, so no file of
the program changes. Each call becomes one span (name, start, end, parent);
spans stay in memory and are written once, when the traced run ends.
Cheap validation gates that run thousands of times per command are counted
instead of timed.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import math
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans per thread (parents are the enclosing span of the same
    thread) and named counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def add(self, name: str, n: int | float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn: Callable, name: str | Callable[[tuple, dict], str], on_result=None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``name`` may be a function of the call's (args, kwargs). ``on_result``
        is called as on_result(tracer, args, kwargs, result) after the span.
        """

        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` counting its calls under ``name`` without a span."""

        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path: str | os.PathLike) -> None:
        """Write every span and count as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s._asdict() for s in self.spans], "counts": dict(self.counts)}, fh)


# --- span arithmetic ---------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def percentile(samples: Iterable[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None unless at least ten samples lie
    beyond it (so p99 needs 1,000 samples and p50 needs 20)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < 10:
        return None
    return ordered[max(rank, 1) - 1]


# --- instrumentation of ordchange ------------------------------------------------------


def _training_forward(index: int) -> Callable[[tuple, dict], str]:
    # Inference passes (validation each epoch, predict) are ten to a thousand
    # times larger than a training batch and would set the per-step tail.
    def name(args, kwargs):
        training = kwargs.get("training", args[index] if len(args) > index else False)
        return "model.forward" if training else "model.forward_infer"

    return name


def _rows_read(tracer, args, kwargs, result):
    tracer.add("cli.read_dataset_csv.rows", len(result[1]))


def _rows_predicted(tracer, args, kwargs, result):
    tracer.add("model.predict.rows", len(result))


def _records_generated(tracer, args, kwargs, result):
    tracer.add("datagen.records", len(result))


def _bytes_written(tracer, args, kwargs, result):
    tracer.add("cli.bytes_written", os.path.getsize(args[0] if args else kwargs["path"]))


# (module, attribute, span name, on_result). Names are wrapped where callers
# look them up: ``cli`` imported the model and ensemble entry points by name.
SPANNED = (
    ("ordchange.cli", "read_dataset_csv", "cli.read_dataset_csv", _rows_read),
    ("ordchange.cli", "write_dataset_csv", "cli.write_dataset_csv", _bytes_written),
    ("ordchange.cli", "write_truth_csv", "cli.write_dataset_csv", _bytes_written),
    ("ordchange.cli", "read_predictions_csv", "cli.read_predictions_csv", None),
    ("ordchange.cli", "write_predictions_csv", "cli.write_predictions_csv", _bytes_written),
    ("ordchange.cli", "read_truth_csv", "cli.read_truth_csv", None),
    ("ordchange.cli", "gen_t2_volumes", "datagen.generate", _records_generated),
    ("ordchange.cli", "gen_t1_pairs", "datagen.generate", _records_generated),
    ("ordchange.cli", "train", "model.train", None),
    ("ordchange.cli", "predict", "model.predict", _rows_predicted),
    ("ordchange.cli", "save_checkpoint", "model.checkpoint", None),
    ("ordchange.cli", "load_checkpoint", "model.checkpoint", None),
    ("ordchange.cli", "compute_report", "metrics.compute_report", None),
    ("ordchange.cli", "PredictionSet", "ensemble.prediction_set", None),
    ("ordchange.cli", "mean_ensemble", "ensemble.vote", None),
    ("ordchange.cli", "unanimity_ensemble", "ensemble.vote", None),
    ("ordchange.cli", "volume_consistency", "ensemble.volume_consistency", None),
    ("ordchange.model", "forward", _training_forward(2), None),
    ("ordchange.model", "siamese_forward", _training_forward(3), None),
    ("ordchange.model", "backward", "model.backward", None),
    ("ordchange.model", "optimizer_step", "model.optimizer_step", None),
    ("ordchange.model", "batch_loss_gradient", "losses.batch_loss_gradient", None),
    ("ordchange.model", "make_batches", "model.make_batches", None),
    ("ordchange.model", "compute_report", "metrics.compute_report", None),
)

# (module, dotted attribute, count name)
COUNTED = (
    ("ordchange.ensemble", "as_prob_vector", "ensemble.as_prob_vector"),
    ("ordchange.model", "ModelParams.__post_init__", "model.params_built"),
)


def _resolve(module: str, dotted: str):
    """Return (owner, attribute, current value), the value None when absent."""
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    # A class attribute is read from the class's own dict, so that restoring
    # it never shadows an inherited one.
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, attr, value


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every wrapped name for the duration of the block.

    Yields the list of names that the program no longer defines; their
    metrics read zero.
    """
    patched = []
    missing = []
    try:
        for module, dotted, label, *hook in (*SPANNED, *COUNTED):
            owner, attr, original = _resolve(module, dotted)
            if original is None:
                missing.append(f"{module}.{dotted}")
                continue
            if hook:
                replacement = tracer.wrap(original, label, on_result=hook[0])
            else:
                replacement = tracer.count_calls(original, label)
            setattr(owner, attr, replacement)
            patched.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# --- per-layer metrics -------------------------------------------------------------

# Work counts that must repeat exactly for a seed.
COUNT_METRICS = (
    "cli.bytes_written",
    "datagen.records",
    "model.forward.calls",
    "model.backward.calls",
    "model.optimizer_step.calls",
    "losses.batch_loss_gradient.calls",
    "metrics.compute_report.calls",
    "model.param_checks_per_step",
    "ensemble.prob_checks_per_row",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ensemble_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run.

    ``ensemble_rows`` is the number of rows the run's ensemble commands
    wrote. Seconds are summed over calls and threads; a layer the run does
    not exercise reads zero.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for s in tracer.spans:
        durations[s.name].append(s.end - s.start)
    own = self_times(tracer.spans)
    train_self = sum(own[s.id] for s in tracer.spans if s.name == "model.train")

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    counts = tracer.counts
    m: dict[str, float] = {
        "cli.read_dataset_csv.s": total("cli.read_dataset_csv"),
        "cli.read_dataset_csv.rows_per_s": _ratio(
            counts["cli.read_dataset_csv.rows"], total("cli.read_dataset_csv")
        ),
        "cli.write_dataset_csv.s": total("cli.write_dataset_csv"),
        "cli.read_predictions_csv.s": total("cli.read_predictions_csv"),
        "cli.write_predictions_csv.s": total("cli.write_predictions_csv"),
        "cli.bytes_written": counts["cli.bytes_written"],
        "datagen.generate.s": total("datagen.generate"),
        "datagen.records": counts["datagen.records"],
    }
    for name in ("model.forward", "model.backward", "model.optimizer_step", "losses.batch_loss_gradient"):
        samples = durations.get(name, [])
        m[f"{name}.s"] = sum(samples)
        m[f"{name}.calls"] = len(samples)
        for q in (50, 99):
            value = percentile(samples, q)
            if value is not None:
                m[f"{name}.us_p{q}"] = value * 1e6
    m.update(
        {
            "model.make_batches.s": total("model.make_batches"),
            "model.train.self_s": train_self,
            "model.param_checks_per_step": _ratio(
                counts["model.params_built"], len(durations.get("model.optimizer_step", ()))
            ),
            "model.predict.s": total("model.predict"),
            "model.predict.rows_per_s": _ratio(counts["model.predict.rows"], total("model.predict")),
            "model.checkpoint.s": total("model.checkpoint"),
            "metrics.compute_report.s": total("metrics.compute_report"),
            "metrics.compute_report.calls": len(durations.get("metrics.compute_report", ())),
            "ensemble.prediction_set.s": total("ensemble.prediction_set"),
            "ensemble.vote.s": total("ensemble.vote"),
            "ensemble.volume_consistency.s": total("ensemble.volume_consistency"),
            "ensemble.prob_checks_per_row": _ratio(counts["ensemble.as_prob_vector"], ensemble_rows),
        }
    )
    return m
