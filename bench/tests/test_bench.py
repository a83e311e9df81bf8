"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from supsim import harness, metrics, matmul  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "path-n20000": dict(n=200),
    "matmul-m128k4": dict(m=16, n=4),
    "mergesort-m65536n64": dict(m=256, n=4),
}


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, config={**w.config, **TINY[name]}, counted_trials=2)


def names_and_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_at_a_tiny_size(name, trace):
    result, info = run.benchmark(harness, tiny(name), 3, 0.0, trace, setup=[0.5])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (4 if trace else 2)
    assert info["trials"] == 2 and len(info["fingerprint"]) == 32
    section = "per_layer" if trace else "end_to_end"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == names_and_units(section)
    if not trace:
        scale, measured = info["speed_scale"], info["measured"]
        m = result["metrics"]
        assert m["trial_ms.p50"]["value"] == pytest.approx(
            scale * measured["trial_ms.p50"][0])
        assert m["trials_per_s"]["value"] == pytest.approx(
            measured["trials_per_s"][0] / scale)
        assert m["peak_rss_mb"]["value"] == measured["peak_rss_mb"][0]


def test_counts_and_fingerprint_repeat_for_the_same_seed():
    w = tiny("mergesort-m65536n64")
    first = run.benchmark(harness, w, 5, 0.0, True)
    second = run.benchmark(harness, w, 5, 0.0, True)
    assert first[1]["fingerprint"] == second[1]["fingerprint"]
    for name, m in first[0]["metrics"].items():
        if m["unit"] == "count":
            assert m["value"] == second[0]["metrics"][name]["value"], name


def test_cli_prints_the_end_to_end_metrics_of_benchmark_json():
    out = subprocess.run(
        SPEC["command"] + ["--workload", "path-n20000", "--seed", "2",
                           "--seconds", "1", "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    info, result = json.loads(out[-2]), json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == names_and_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["blas_threads"] in (1, None)
    assert len(info["setup_runs_s"]) == run.SETUP_PROBES


def _one_trial(name: str):
    loop = run.Loop(harness, tiny(name), 4)
    with loop.capture:
        _, row = loop.trial(0)
    cap = loop.capture
    return loop, row, cap


def test_one_corrupted_product_entry_fails_the_check():
    loop, row, cap = _one_trial("matmul-m128k4")
    output = cap.outcome.target_output
    args = (loop.workload.config, row, cap.engine, cap.inputs)
    assert row["output_ok"] is True
    assert workloads.check_trial(*args, output) is None
    bad = output.copy()
    bad[3, 5] = (int(bad[3, 5]) + 1) % workloads.MODULUS
    assert workloads.check_trial(*args, bad) is not None


def test_one_corrupted_sorted_value_fails_the_check():
    loop, row, cap = _one_trial("mergesort-m65536n64")
    output = cap.outcome.target_output
    args = (loop.workload.config, row, cap.engine, cap.inputs)
    assert workloads.check_trial(*args, output) is None
    bad = output.copy()
    bad[7] += 1
    assert workloads.check_trial(*args, bad) is not None


def test_a_corrupted_target_output_counts_as_failed(monkeypatch):
    result_of = matmul.MatmulApp.result

    def corrupted(self):
        out = result_of(self)
        out[0, 0] = (int(out[0, 0]) + 1) % workloads.MODULUS
        return out

    monkeypatch.setattr(matmul.MatmulApp, "result", corrupted)
    result, info = run.benchmark(harness, tiny("matmul-m128k4"), 3, 0.0, False,
                                 setup=[0.5])
    assert result["attempted"] == 2 and result["failed"] == 2
    assert sum(info["failures"].values()) == 2


def test_untraced_run_installs_no_wrapper(monkeypatch):
    originals = [(o, a, tracer.current(o, a)) for o, a, _, _ in tracer.targets()]
    seen = []
    as_row = metrics.Metrics.as_row

    def probe(self):
        seen.append(all(tracer.current(o, a) is f for o, a, f in originals))
        return as_row(self)

    monkeypatch.setattr(metrics.Metrics, "as_row", probe)
    run.benchmark(harness, tiny("path-n20000"), 3, 0.0, False, setup=[0.5])
    assert seen and all(seen)
    seen.clear()
    run.benchmark(harness, tiny("path-n20000"), 3, 0.0, True)
    assert True in seen and False in seen  # the probe does see wrappers
    assert all(tracer.current(o, a) is f for o, a, f in originals)


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    # outer [0, 10] holds child [1, 4], which holds grandchild [2, 3]
    for name, parent, start, end in (("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0),
                                     ("c", 1, 2.0, 3.0)):
        t.name.append(t._id(name))
        t.parent.append(parent)
        t.trial_of.append(0)
        t.start.append(start)
        t.end.append(end)
        t.work.append(0.0)
    table = tracer.SpanTable(t)
    assert table.self_time.tolist() == [7.0, 2.0, 1.0]


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "path-n20000", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
