"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 20

Runs bench/run.py once per seed on each workload, interleaving the
workloads so that a slow spell of the machine touches all of them, and
prints for every metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread (Q3 - Q1)
as a share of the median.  Every run's result line is kept in
bench/results/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="comma-separated base seeds")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="last")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    cmd = [sys.executable if part == "python3" else part for part in spec["command"]]

    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            out = subprocess.run(
                cmd + ["--workload", w, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, check=True, capture_output=True, text=True,
            ).stdout.splitlines()
            info, result = json.loads(out[-2]), json.loads(out[-1])
            runs[w].append({"seed": seed, "info": info, "result": result})
            print(w, seed, json.dumps({k: v["value"] for k, v in
                                       result["metrics"].items()}), flush=True)

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"spread-{args.label}.json").write_text(json.dumps(runs, indent=1))
    print(f"{'workload':22} {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} spread")
    for w, rs in runs.items():
        failed = {r["result"]["failed"] / r["result"]["attempted"] for r in rs}
        for name in rs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            share = (q3 - q1) / med if med else 0.0
            print(f"{w:22} {name:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:.4f}")
        print(f"{w:22} failed shares {sorted(failed)}; correct "
              f"{all(r['result']['correct'] for r in rs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
