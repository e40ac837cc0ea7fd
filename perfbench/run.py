"""Outside-in benchmark of the ordchange CSV pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload t2_pipeline --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each workload's command sequence runs as child processes
(one client, closed loop: each command starts after the previous one exits),
repeatedly until ``--seconds`` have passed. A fixed reference job runs
between the commands, and each command's time is scaled by it to the
host's usual speed (see reference_seconds). The end-to-end metrics are the
medians over the repetitions. With ``--trace 1`` the same sequence
runs in this process through ``ordchange.cli.main``, alternating an untraced
and a traced repetition; the traced ones wrap the program's public functions
from outside (see spans.py) and give the per-layer metrics.

Every output is checked. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment and sample counts, and the same record is kept in
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RESULTS = STATE / "results"

SETUP_REPS = 7
# Median wall seconds of reference.py over 494 runs on the reference machine (see
# reference_seconds).
REFERENCE_S = 0.36
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150.0
PROB_SUM_TOL = 1e-6
STAGES = ("gen", "train", "predict", "ensemble", "eval")


class Ledger:
    """Counts attempted and failed operations: commands and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


# --- environment -------------------------------------------------------------------


def thread_settings(workload: Workload, nproc: int) -> dict[str, str]:
    """Python fold threads plus BLAS threads never exceed nproc.

    A BLAS thread count of 1 computes in the calling thread and adds none.
    """
    folds = max(1, min(workload.fold_threads, nproc))
    blas = str(max(1, nproc - folds))
    return {
        "ORDCHANGE_THREADS": str(folds),
        "OPENBLAS_NUM_THREADS": blas,
        "OMP_NUM_THREADS": blas,
        "MKL_NUM_THREADS": blas,
    }


def environment(nproc: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    thread_vars = {
        k: v
        for k, v in sorted(os.environ.items())
        if "THREAD" in k or k.startswith(("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "GOTO"))
    }
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": thread_vars,
        "machine": platform.machine(),
    }


# --- child processes -------------------------------------------------------------


def run_child(argv: list[str], log: Path, extra_env: dict | None = None) -> tuple[int, float, int]:
    """Run one process to completion; return (exit code, wall seconds, max RSS in KiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **(extra_env or {}))
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def run_cli(argv: list[str], log: Path, extra_env: dict | None = None) -> tuple[int, float, int]:
    return run_child([sys.executable, str(HERE / "child.py"), *argv], log, extra_env)


def reference_seconds(work: Path, log: Path, ledger: Ledger) -> float:
    """Wall seconds of one run of the fixed reference job.

    The host lends this machine its cores at a speed that drifts by 20-40%
    over minutes, so raw wall seconds of the same command differ more between
    runs than any useful bound. The reference job runs before the first and
    after every measured command (and set-up), and each command's seconds
    are scaled by

        REFERENCE_S / mean of the reference seconds just before and after it

    so they read as seconds at the reference machine's usual speed. The job
    runs no ordchange code, so a change of the program moves scaled seconds
    as it moves wall seconds.
    """
    code, secs, _ = run_child([sys.executable, str(HERE / "reference.py"), str(work / "reference.csv")], log)
    if not ledger.check(code == 0, f"reference job exited {code}:\n{tail(log)}"):
        raise SystemExit(1)
    return secs


def speed_scale(before: float, after: float) -> float:
    return REFERENCE_S / statistics.mean((before, after))


def tail(log: Path, n: int = 20) -> str:
    with contextlib.suppress(OSError):
        return "\n".join(log.read_text(errors="replace").splitlines()[-n:])
    return ""


# --- set-up --------------------------------------------------------------------------


def digest(directory: Path) -> dict[str, str]:
    """sha256 of every file below ``directory`` except run manifests."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and not path.name.endswith("manifest.json"):
            out[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def set_up(
    w: Workload, seed: int, work: Path, log: Path, ledger: Ledger, references: list[float] | None = None
) -> tuple[Path, float, float | None]:
    """Write the configs, generate unmeasured inputs and import the CLI once
    in a fresh interpreter, SETUP_REPS times. Returns the first set-up's
    directory, the median set-up seconds and the median set-up ``gen`` seconds
    (None when ``gen`` is measured instead). Given a ``references`` list, the
    reference job runs before the first set-up and after each one, its
    seconds are appended there, and every set-up is scaled by those around
    it."""
    seconds, gen_seconds, digests = [], [], []
    if references is not None:
        references.append(reference_seconds(work, log, ledger))
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        d = work / f"setup{rep}"
        d.mkdir()
        (d / "gen.cfg").write_text(w.config_text(w.gen, seed), encoding="utf-8")
        (d / "train.cfg").write_text(w.config_text(w.train, seed), encoding="utf-8")
        if not w.gen_measured:
            code, secs, _ = run_cli(["gen", "--config", str(d / "gen.cfg"), "--out", str(d / "data")], log)
            if not ledger.check(code == 0, f"set-up gen exited {code}:\n{tail(log)}"):
                raise SystemExit(1)
            gen_seconds.append(secs)
        code, _, _ = run_child([sys.executable, "-c", "import ordchange.cli"], log)
        if not ledger.check(code == 0, f"cold import exited {code}:\n{tail(log)}"):
            raise SystemExit(1)
        seconds.append(time.perf_counter() - start)
        if references is not None:
            references.append(reference_seconds(work, log, ledger))
            scale = speed_scale(*references[-2:])
            seconds[-1] *= scale
            if gen_seconds:
                gen_seconds[-1] *= scale
        if not w.gen_measured:
            digests.append(digest(d / "data"))
    if digests:
        ledger.check(all(dg == digests[0] for dg in digests), "set-up gen reruns are byte-identical")
    for rep in range(1, SETUP_REPS):
        shutil.rmtree(work / f"setup{rep}")
    gen_median = statistics.median(gen_seconds) if gen_seconds else None
    return work / "setup0", statistics.median(seconds), gen_median


# --- output checks -------------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_outputs(w: Workload, out: Path, data: Path, ledger: Ledger) -> tuple[int, float]:
    """Check the prediction CSVs and the report; return (dataset rows, task average)."""
    _, truth = read_csv(data / "truth.csv")
    case_ids = [row[0] for row in truth]
    expected = set(case_ids)
    ledger.check(len(expected) == len(case_ids) > 0, "truth.csv holds each case_id once")
    for pred in [*w.predictions(out), out / "ensemble.csv"]:
        header, rows = read_csv(pred)
        ids = [row[0] for row in rows]
        ledger.check(
            len(ids) == len(case_ids) and len(set(ids)) == len(ids) and set(ids) == expected,
            f"{pred.name} holds each dataset case_id exactly once",
        )
        cols = [i for i, name in enumerate(header) if name.startswith("p_")]
        sums_ok = bool(cols) and all(
            abs(math.fsum(float(row[i]) for i in cols) - 1.0) <= PROB_SUM_TOL for row in rows
        )
        ledger.check(sums_ok, f"{pred.name} probability rows sum to 1 within {PROB_SUM_TOL}")
    header, rows = read_csv(out / "report.csv")
    average = float(rows[0][header.index("average")]) if rows and "average" in header else math.nan
    ledger.check(math.isfinite(average), "report.csv carries a finite task average")
    return len(case_ids), average


# --- untraced end-to-end runs --------------------------------------------------------


def end_to_end(w: Workload, seed: int, seconds: float, work: Path, ledger: Ledger) -> tuple[dict, dict]:
    log = work / "children.log"
    references: list[float] = []
    setup_dir, setup_s, setup_gen_s = set_up(w, seed, work, log, ledger, references)
    deadline = time.perf_counter() + seconds
    samples: list[dict] = []
    walls: list[float] = []  # each repetition with its reference jobs
    raw: list[dict] = []  # each repetition's unscaled wall seconds per stage
    first_outputs: dict[str, str] | None = None
    while len(samples) < MIN_ITERATIONS or time.perf_counter() + statistics.median(walls) <= deadline:
        k = len(samples)
        out = work / f"iter{k}"
        out.mkdir()
        data = w.data_dir(setup_dir, out)
        rows_file = work / f"train_rows{k}.txt"
        wall_s = dict.fromkeys(STAGES, 0.0)
        stage_s = dict.fromkeys(STAGES, 0.0)
        peak_kb = 0
        start = time.perf_counter()
        for stage, argv in w.commands(setup_dir, data, out):
            code, secs, rss_kb = run_cli(argv, log, {"PERFBENCH_ROWS_FILE": str(rows_file)})
            peak_kb = max(peak_kb, rss_kb)
            if not ledger.check(code == 0, f"{stage} exited {code}:\n{tail(log)}"):
                return {}, {"setup_s": setup_s, "iterations": k}
            references.append(reference_seconds(work, log, ledger))
            wall_s[stage] += secs
            stage_s[stage] += secs * speed_scale(*references[-2:])
        walls.append(time.perf_counter() - start)
        raw.append(wall_s)

        n_rows, average = check_outputs(w, out, data, ledger)
        outputs = digest(out)
        if first_outputs is None:
            first_outputs = outputs
        else:
            ledger.check(outputs == first_outputs, f"iteration {k} outputs are byte-identical to iteration 0")
            shutil.rmtree(out)
        trained = int(rows_file.read_text()) if rows_file.exists() else 0
        ledger.check(trained > 0, "train reported the rows its batches held")
        n_predicts = len(w.checkpoints(out))
        samples.append(
            {
                "pipeline_s": sum(stage_s.values()),
                "gen_s": stage_s["gen"] if w.gen_measured else setup_gen_s,
                "train_s": stage_s["train"],
                "predict_s": stage_s["predict"],
                "ensemble_s": stage_s["ensemble"],
                "eval_s": stage_s["eval"],
                "train_samples_per_s": trained / stage_s["train"],
                "predict_rows_per_s": n_rows * n_predicts / stage_s["predict"],
                "peak_rss_mb": peak_kb / 1024.0,
            }
        )
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["setup_s"] = setup_s
    detail = {
        "iterations": len(samples),
        "trained_rows": trained,
        "dataset_rows": n_rows,
        "task_average": average,
        "samples": samples,
        "wall_s": raw,
        "reference_s": references,
    }
    return metrics, detail


# --- traced in-process runs -----------------------------------------------------------


def in_process(w: Workload, setup_dir: Path, out: Path, log: Path, ledger: Ledger, tracer=None) -> float | None:
    """Run the sequence through ordchange.cli.main in this process; return its wall seconds."""
    import ordchange.cli

    data = w.data_dir(setup_dir, out)
    start = time.perf_counter()
    for stage, argv in w.commands(setup_dir, data, out):
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                if tracer is None:
                    code = ordchange.cli.main(argv)
                else:
                    with tracer.span(f"cli.{stage}"):
                        code = ordchange.cli.main(argv)
        except Exception:  # a traceback is a failed command, not a benchmark crash
            captured.write(traceback.format_exc())
            code = -1
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(captured.getvalue())
        if not ledger.check(code == 0, f"in-process {stage} returned {code}:\n{tail(log)}"):
            return None
    return time.perf_counter() - start


def traced(w: Workload, seed: int, seconds: float, work: Path, ledger: Ledger) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import ordchange
    import spans

    if not ledger.check(Path(ordchange.__file__).resolve().is_relative_to(SRC), "ordchange imports from ./src"):
        raise SystemExit(1)
    log = work / "in_process.log"
    setup_dir, _, _ = set_up(w, seed, work, log, ledger)
    deadline = time.perf_counter() + seconds
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    first_outputs: dict[str, str] | None = None
    unwrapped: list[str] = []
    first_tracer = None
    while len(layers) < MIN_ITERATIONS or (
        time.perf_counter() + statistics.median(plain_walls) + statistics.median(traced_walls) <= deadline
    ):
        for tracing in (False, True):
            k = len(plain_walls) + len(traced_walls)
            out = work / f"iter{k}"
            out.mkdir()
            tracer = spans.Tracer() if tracing else None
            with spans.instrument(tracer) if tracing else contextlib.nullcontext([]) as missing:
                wall = in_process(w, setup_dir, out, log, ledger, tracer)
            if wall is None:
                return {}, {"iterations": len(layers)}
            data = w.data_dir(setup_dir, out)
            n_rows, average = check_outputs(w, out, data, ledger)
            outputs = digest(out)
            if first_outputs is None:
                first_outputs = outputs
            else:
                ledger.check(outputs == first_outputs, f"iteration {k} outputs are byte-identical to iteration 0")
            shutil.rmtree(out)
            if tracing:
                traced_walls.append(wall)
                layers.append(spans.layer_metrics(tracer, ensemble_rows=n_rows))
                unwrapped = missing
                first_tracer = first_tracer or tracer
            else:
                plain_walls.append(wall)
    for name in spans.COUNT_METRICS:
        ledger.check(len({m.get(name) for m in layers}) == 1, f"{name} repeats exactly across traced runs")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["metrics.task_average"] = average  # the outputs are byte-identical across repetitions
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    first_tracer.write(RESULTS / f"{w.name}.seed{seed}.spans.json")
    detail = {
        "iterations": len(layers),
        "traced_pipeline_s": traced_walls,
        "untraced_pipeline_s": plain_walls,
        "unwrapped": unwrapped,
    }
    return metrics, detail


# --- entry point -----------------------------------------------------------------------


def load_units(kind: str) -> dict[str, str]:
    """Units of the ``end_to_end`` or ``per_layer`` metrics, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ordchange" / "cli.py").is_file():
        print(f"perfbench: no ordchange sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    # Before anything imports numpy, so BLAS starts with these thread counts.
    os.environ.update(thread_settings(w, nproc))
    env = environment(nproc)

    RESULTS.mkdir(parents=True, exist_ok=True)
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=STATE / "work"))
    ledger = Ledger()
    try:
        if args.trace:
            metrics, detail = traced(w, args.seed, args.seconds, work, ledger)
        else:
            metrics, detail = end_to_end(w, args.seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "env": env, **detail}
    (RESULTS / f"{w.name}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n", encoding="utf-8"
    )
    units = load_units("per_layer" if args.trace else "end_to_end")
    print(json.dumps(record, separators=(",", ":")))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0 and bool(metrics),
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
