"""Closed-loop benchmark of supsim: one process, one caller, one trial after
another through the harness's public `run_trial`.

    python3 bench/run.py --blas-threads 1 --workload matmul-m128k4 \\
        --seed 7 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the environment, the seeds and the counter fingerprint.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
alternates untraced and traced trials of the same seeds and reports the
per-layer metrics and the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# median time of reference() on the machine the bounds were set on; see
# "Machine speed" in README.md
REFERENCE_MS = 10.0

sys.path.insert(0, str(BENCH_DIR))
from workloads import (  # noqa: E402
    WARMUP_INDEX,
    WORKLOADS,
    check_trial,
    fingerprint,
    snapshot_inputs,
    trial_seed,
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--blas-threads", type=int, required=True,
                   help="BLAS thread count, fixed before numpy loads")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, help="base seed of the trial seeds")
    p.add_argument("--seconds", type=int, help="timed trial time to reach")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 1 <= args.blas_threads <= len(os.sched_getaffinity(0)):
        p.error("--blas-threads must lie between 1 and the usable cores")
    if args.probe is None:
        if args.workload is None or args.seed is None or args.seconds is None:
            p.error("--workload, --seed and --seconds are required")
        if not 0 <= args.seed < 1 << 40 or args.seconds < 1:
            p.error("--seed must lie in [0, 2^40) and --seconds be >= 1")
    return args


def import_supsim():
    """Import the package from this checkout's source tree, never from an
    installed copy."""
    if not (SRC / "supsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no supsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import supsim
    from supsim import harness

    if Path(supsim.__file__).resolve().parent != SRC / "supsim":
        raise SystemExit(f"error: imported supsim from {supsim.__file__}")
    return harness


def row_digest(row: dict) -> str:
    return fingerprint([row])


# ---------------------------------------------------------------------------
# Set-up time: fresh processes that import, build and run the warm-up trial


def probe(spec: str) -> None:
    """Child side: set up as a benchmark run does, then say so."""
    harness = import_supsim()
    data = json.loads(spec)
    cfg = harness.ExperimentConfig.from_dict(data["config"])
    row = harness.run_trial(cfg, data["seed"])
    print(json.dumps({"warmup": row_digest(row)}), flush=True)


def measure_setup(config: dict, seed: int, blas_threads: int) -> tuple[list, set]:
    """Wall times from spawning a process to its warm-up trial's end."""
    spec = json.dumps({"config": config, "seed": seed})
    cmd = [sys.executable, str(BENCH_DIR / "run.py"),
           "--blas-threads", str(blas_threads), "--probe", spec]
    times, digests = [], set()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not line:
            raise SystemExit(f"error: set-up probe exited {proc.returncode}")
        times.append(t1 - t0)
        digests.add(json.loads(line)["warmup"])
    return times, digests


# ---------------------------------------------------------------------------
# The closed loop


class EngineCapture:
    """Stands in for `harness.Engine` to keep each trial's engine, a copy of
    its inputs and its outcome for the independent checks.  Installed in
    traced and untraced runs alike; it times nothing."""

    def __init__(self, harness) -> None:
        self._harness = harness
        self._engine_cls = engine_cls = harness.Engine
        self.engine = self.inputs = self.outcome = None
        capture = self

        class KeptEngine(engine_cls):
            def run(self, *args, **kwargs):
                capture.outcome = super().run(*args, **kwargs)
                return capture.outcome

        self._kept_cls = KeptEngine

    def __enter__(self):
        self._harness.Engine = self
        return self

    def __exit__(self, *exc) -> None:
        self._harness.Engine = self._engine_cls

    def __call__(self, *args, **kwargs):
        engine = self._kept_cls(*args, **kwargs)
        self.engine, self.inputs, self.outcome = engine, snapshot_inputs(engine), None
        return engine


class Loop:
    """Trials of one workload, seed after seed, each checked after its
    timed region."""

    def __init__(self, harness, workload, base_seed: int) -> None:
        self.harness = harness
        self.workload = workload
        self.base_seed = base_seed
        self.cfg = harness.ExperimentConfig.from_dict(dict(workload.config))
        self.capture = EngineCapture(harness)
        self.failures: dict[str, int] = {}
        self.attempted = 0

    def trial(self, index: int) -> tuple[float, dict]:
        seed = trial_seed(self.base_seed, index)
        t0 = time.perf_counter()
        row = self.harness.run_trial(self.cfg, seed)
        elapsed = time.perf_counter() - t0
        cap = self.capture
        output = cap.outcome.target_output if cap.outcome is not None else None
        reason = check_trial(self.workload.config, row, cap.engine, cap.inputs, output)
        self.attempted += 1
        if reason is not None:
            self.failures[reason] = self.failures.get(reason, 0) + 1
        return elapsed, row

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def reference() -> int:
    """A fixed computation that uses no supsim code: dict and tuple work in
    the interpreter, then 64-bit mixing and a lexsort in numpy, as the
    workloads do.  Its time tracks the speed the machine gives this
    process at that moment.  The caller keeps the cyclic collector off
    while it runs, so that it frees no garbage of the program's."""
    import numpy as np

    table, acc = {}, 0
    for i in range(6000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = (i, key ^ 0x5A5A)
    for key, (i, v) in table.items():
        acc = acc + i if v & 1 else acc ^ key
    x = np.arange(1 << 15, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for _ in range(3):
        x = (x ^ (x >> np.uint64(29))) * np.uint64(0xBF58476D1CE4E5B9)
    order = np.lexsort((x & np.uint64(0xFFFF), x >> np.uint64(48)))
    return acc + int(x[order[0]])


def run_untraced(loop: Loop, seconds: float) -> tuple[list, list, float, list]:
    """Trial times, rows, the peak resident memory once the counted trials
    are done, and one time of `reference()` after each trial.

    Each trial's engine lives in a reference cycle until the cyclic
    collector runs, so the peak keeps rising with the trial count; read at
    a fixed trial it does not depend on the run length."""
    times, rows, refs = [], [], []
    counted = loop.workload.counted_trials
    while len(times) < counted or sum(times) < seconds:
        elapsed, row = loop.trial(len(times))
        times.append(elapsed)
        rows.append(row)
        if len(times) == counted:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()
            refs.append(time.perf_counter() - t0)
        finally:
            gc.enable()
    return times, rows, peak, refs


def run_traced(loop: Loop, seconds: float, tracer) -> dict:
    """Pairs of one untraced and one traced trial of the same seed, in
    alternating order."""
    plain, traced, rows, tasks = [], [], [], []
    identical = True
    i = 0
    while i < loop.workload.counted_trials or sum(plain) + sum(traced) < seconds:
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.trial = i
                tracer.install()
                try:
                    elapsed, row = loop.trial(i)
                finally:
                    tracer.uninstall()
                traced.append(elapsed)
                tasks.append(loop.capture.engine.graph.n)
                traced_row = row
            else:
                elapsed, row = loop.trial(i)
                plain.append(elapsed)
                rows.append(row)
        identical &= traced_row == rows[-1]
        i += 1
    return {"plain": plain, "traced": traced, "rows": rows, "tasks": tasks,
            "identical": identical}


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(times: list, setup: list, peak_mb: float, scale: float) -> dict:
    """Times are multiplied by `scale` (see `speed_scale`)."""
    return {
        "trials_per_s": (len(times) / (scale * sum(times)), "1/s"),
        "trial_ms.p50": (1000.0 * scale * statistics.median(times), "ms"),
        "setup_s": (scale * statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def speed_scale(refs: list) -> float:
    """REFERENCE_MS over the run's median reference time: the factor that
    turns a time measured in this run into the time it would take at the
    reference speed."""
    return REFERENCE_MS / (1000.0 * statistics.median(refs))


def model_counts(rows: list[dict]) -> dict:
    k = len(rows)
    verify = ("verify_worker", "verify_source", "verify_target", "verify_supervisor")
    sums = {
        "comp_total": sum(r["comp_total"] for r in rows),
        "verify_total": sum(r[f] for r in rows for f in verify),
        "comm_total": sum(r["comm_total"] for r in rows),
        "source_sends": sum(r["source_sends"] for r in rows),
        "target_receives": sum(r["target_receives"] for r in rows),
        "supervisor_msgs": sum(r["supervisor_msgs"] for r in rows),
    }
    return {f"model.{name}": (total / k, "count") for name, total in sums.items()}


def per_layer(table, traced: dict, counted: int) -> dict:
    """Per-trial figures from the spans.  Times average over every traced
    trial; counts over the first `counted` trials, whose seeds are fixed."""
    n = len(traced["traced"])
    rows = traced["rows"]

    def ms(sel, own=False) -> float:
        return 1000.0 * (table.self_total(sel) if own else table.total(sel)) / n

    def per_counted(sel, work=False) -> float:
        sel = sel & (table.trial < counted)
        return float(table.work[sel].sum() if work else sel.sum()) / counted

    executes = table.mask("protocol.flagapp.execute") | table.prefix_mask(
        "matmul.execute.") | table.prefix_mask("mergesort.execute.")
    engine_self = table.self_total(table.mask("protocol.run"))
    rounds_all = sum(r["rounds"] for r in rows)
    rounds_counted = sum(r["rounds"] for r in rows[:counted])
    attempts_counted = float((executes & (table.trial < counted)).sum())
    adversary = table.mask("adversary", outer=True)
    out = {
        "harness.oracle_ms": (ms(table.mask("harness.oracle")), "ms"),
        "harness.self_ms": (ms(table.mask("harness.run_trial"), own=True), "ms"),
        "taskgraph.build_ms": (ms(table.mask("taskgraph.build")), "ms"),
        "protocol.self_ms": (1000.0 * engine_self / n, "ms"),
        "protocol.round_us": (1e6 * engine_self / rounds_all, "us"),
        "protocol.attempt_us": (1e6 * engine_self / float(executes.sum()), "us"),
        "protocol.rounds": (rounds_counted / counted, "count"),
        "protocol.attempts": (attempts_counted / counted, "count"),
        "protocol.attempts_per_task": (
            attempts_counted / sum(traced["tasks"][:counted]), "count"),
        "adversary.ms": (ms(adversary), "ms"),
        "adversary.calls": (per_counted(adversary), "count"),
        "verify.f_matmul.ms": (ms(table.mask("verify.f_matmul")), "ms"),
        "verify.f_matmul.madds": (
            per_counted(table.mask("verify.f_matmul"), work=True), "count"),
        "verify.freivalds.ms": (ms(table.mask("verify.freivalds")), "ms"),
        "verify.freivalds.calls": (per_counted(table.mask("verify.freivalds")), "count"),
        "verify.digest.ms": (ms(table.mask("verify.digest")), "ms"),
        "verify.digest.bytes": (per_counted(table.mask("verify.digest"), work=True), "B"),
        "verify.verify_items.ms": (ms(table.mask("verify.verify_items")), "ms"),
        "verify.verify_items.items": (
            per_counted(table.mask("verify.verify_items"), work=True), "count"),
        "verify.sign_items.ms": (ms(table.mask("verify.sign_items")), "ms"),
        "matmul.instance_ms": (ms(table.mask("matmul.instance"), own=True), "ms"),
        "matmul.target_verify_ms": (
            ms(table.mask("matmul.target_verify"), own=True), "ms"),
        "mergesort.instance_ms": (ms(table.mask("mergesort.instance"), own=True), "ms"),
        "mergesort.target_ms": (ms(table.mask("mergesort.target"), own=True), "ms"),
    }
    for kind in ("relay", "multiply", "output"):
        out[f"matmul.execute.{kind}_ms"] = (
            ms(table.mask(f"matmul.execute.{kind}"), own=True), "ms")
    for kind in ("sort", "split", "merge", "final"):
        out[f"mergesort.execute.{kind}_ms"] = (
            ms(table.mask(f"mergesort.execute.{kind}"), own=True), "ms")
    out.update(model_counts(rows[:counted]))
    out["trace.overhead_pct"] = (
        100.0 * (sum(traced["traced"]) / sum(traced["plain"]) - 1.0), "%")
    return out


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def benchmark(harness, workload, base_seed: int, seconds: float, trace: bool,
              setup: list | None = None) -> tuple[dict, dict]:
    """One run.  Returns (result line, info line)."""
    loop = Loop(harness, workload, base_seed)
    counted = workload.counted_trials
    info = {"workload": workload.name, "base_seed": base_seed, "trace": int(trace),
            "first_seed": trial_seed(base_seed, 0)}
    with loop.capture:
        warm = harness.run_trial(loop.cfg, trial_seed(base_seed, WARMUP_INDEX))
        info["warmup"] = row_digest(warm)
        if trace:
            import tracer as tracing

            tr = tracing.Tracer()
            traced = run_traced(loop, seconds, tr)
            rows = traced["rows"]
            metrics = per_layer(tracing.SpanTable(tr), traced, counted)
            spans = BENCH_DIR / "results" / f"spans-{workload.name}.npz"
            tr.write(spans)
            info["spans"] = str(spans.relative_to(ROOT))
            info["traced_equals_untraced"] = traced["identical"]
            correct = traced["identical"]
        else:
            times, rows, peak_mb, refs = run_untraced(loop, seconds)
            scale = speed_scale(refs)
            metrics = end_to_end(times, setup, peak_mb, scale)
            info["speed_scale"] = scale
            info["measured"] = end_to_end(times, setup, peak_mb, 1.0)
            correct = True
    info.update(trials=len(rows), counted_trials=counted,
                fingerprint=fingerprint(rows[:counted]), failures=loop.failures,
                env=environment())
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    if args.probe is not None:
        probe(args.probe)
        return 0
    harness = import_supsim()
    workload = WORKLOADS[args.workload]
    setup = None
    if not args.trace:
        setup, probe_digests = measure_setup(
            workload.config, trial_seed(args.seed, WARMUP_INDEX), args.blas_threads)
    result, info = benchmark(harness, workload, args.seed, args.seconds,
                             bool(args.trace), setup)
    if setup is not None:
        info["setup_runs_s"] = setup
        # every fresh process must replay the warm-up trial bit for bit
        result["correct"] &= probe_digests == {info["warmup"]}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
