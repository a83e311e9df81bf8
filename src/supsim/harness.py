"""Experiment runner and CLI.

One trial = one seed: four independent Philox streams (supervisor,
honest workers, adversary, instance) are keyed by the seed, the
application and graph are built for the configured app, and the engine
runs to termination or the round cap.  A batch is a list of per-trial
rows plus a summary and a list of verdicts; verdicts compare a statistic
over the trials against an explicit ceiling so thresholds are auditable
from the output itself.

Output is deterministic: the same config (seeds included) produces
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .adversary import builtin_strategies, make_strategy
from .matmul import MatmulApp, load_instance, make_matmul_app
from .matmul import _validate_params as _validate_matmul
from .mergesort import MergesortApp, make_mergesort_app, read_values
from .mergesort import _validate_params as _validate_mergesort
from .protocol import Engine, FlagApp, check_beta
from .rngs import TrialRngs
from .taskgraph import _validate_dag, _validate_path, build_path, random_leveled_dag
from .verify import f_matmul

APPS = ("path", "dag", "matmul", "mergesort")

# fixed column order for rows (csv header and json field sanity)
ROW_FIELDS = (
    "seed",
    "app",
    "strategy",
    "terminated",
    "capped",
    "output_ok",
    "rounds",
    "source_sends",
    "target_receives",
    "supervisor_msgs",
    "per_task_max_items",
    "comp_worker",
    "comp_source",
    "comp_target",
    "comp_supervisor",
    "verify_worker",
    "verify_source",
    "verify_target",
    "verify_supervisor",
    "comm_worker",
    "comm_source",
    "comm_target",
    "comm_supervisor",
    "comp_total",
    "comm_total",
)

SUMMARY_FIELDS = (
    "trials",
    "frac_terminated",
    "all_terminated",
    "all_outputs_correct",
    "mean_rounds",
    "p99_rounds",
    "max_rounds",
    "mean_source_sends",
    "max_source_sends",
    "mean_target_receives",
    "max_target_receives",
    "mean_comp_total",
    "max_comp_total",
    "mean_comm_total",
    "max_comm_total",
    "max_per_task_items",
)


@dataclass
class ExperimentConfig:
    """Everything one batch needs.  For app="dag", n is the depth and m
    the width of the random leveled graph; for app="matmul", n is the
    block count k^2 and m the matrix dimension; for app="mergesort",
    n is the stream count and m the item count."""

    app: str = "path"
    beta: float = 0.0
    n: int = 8
    m: int = 64
    tau: int = 8
    c: float = 1.0
    strategy: str = "honest"
    seeds: tuple[int, ...] = (0,)
    round_cap: int | None = None
    target_always_rejects: bool = False
    input_path: str | None = None
    ceilings: dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        if self.app not in APPS:
            raise ValueError(f"app must be one of {APPS}, got {self.app!r}")
        check_beta(self.beta)
        if self.strategy not in builtin_strategies():
            raise ValueError(
                f"unknown strategy {self.strategy!r} "
                f"(known: {', '.join(sorted(builtin_strategies()))})"
            )
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.round_cap is not None and self.round_cap < 1:
            raise ValueError(f"round_cap must be >= 1, got {self.round_cap}")
        # app shape rules, checked by the same functions the builders call;
        # an input file must have the shape n and m describe
        if self.app == "path":
            _validate_path(self.n)
        elif self.app == "dag":
            _validate_dag(self.m, self.n)
        elif self.app == "mergesort":
            if self.input_path:
                m = len(read_values(self.input_path))
                if m != self.m:
                    raise ValueError(
                        f"{self.input_path} holds {m} values, but m={self.m}"
                    )
            _validate_mergesort(self.m, self.n)
        elif self.app == "matmul":
            k = math.isqrt(self.n)
            if k * k != self.n:
                raise ValueError(f"matmul needs n=k^2, got n={self.n}")
            if self.tau < 1:
                raise ValueError(f"tau must be >= 1, got {self.tau}")
            # failure budget: masked checks miss with prob 2^-tau per list
            # step, so beta plus that must stay a small constant
            if self.beta + 2.0 ** (-self.tau) > 0.125:
                raise ValueError(
                    f"matmul needs beta + 2^-tau <= 1/8, got "
                    f"{self.beta + 2.0 ** (-self.tau):.4f}"
                )
            if self.input_path:
                inst = load_instance(self.input_path)
                if (inst.n, inst.m) != (self.n, self.m):
                    raise ValueError(
                        f"{self.input_path} holds n=k^2={inst.n}, m={inst.m}, "
                        f"but n={self.n}, m={self.m}"
                    )
            else:
                _validate_matmul(self.m, k)
        for name in self.ceilings:
            stat, _, metric = name.partition("_")
            if stat not in ("mean", "max", "p99") or not metric:
                raise ValueError(
                    f"ceiling {name!r} must look like mean_<field>, "
                    f"max_<field>, or p99_<field>"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "seeds" in data:
            data = dict(data)
            data["seeds"] = tuple(int(s) for s in data["seeds"])
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out = {}
        for f_ in fields(self):
            val = getattr(self, f_.name)
            out[f_.name] = list(val) if isinstance(val, tuple) else val
        return out


@dataclass
class Batch:
    config: dict
    trials: list[dict]
    summary: dict
    verdicts: list[dict]

    @property
    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts)


def _build_trial(cfg: ExperimentConfig, seed: int):
    """Graph, app, and an oracle comparator for one seed."""
    rngs = TrialRngs.from_seed(seed)
    if cfg.app == "path":
        graph = build_path(cfg.n)
        app = FlagApp(graph)
        expect = {v: True for v in graph.final_tasks}
        oracle = lambda out: out == expect
    elif cfg.app == "dag":
        graph = random_leveled_dag(cfg.m, cfg.n, rngs.instance)
        app = FlagApp(graph)
        expect = {v: True for v in graph.final_tasks}
        oracle = lambda out: out == expect
    elif cfg.app == "matmul":
        k = math.isqrt(cfg.n)
        if cfg.input_path:
            inst = load_instance(cfg.input_path)
            app = MatmulApp(inst, tau=cfg.tau, c=cfg.c,
                            key=rngs.instance.bytes(16))
        else:
            app = make_matmul_app(cfg.m, k, cfg.tau, rngs.instance, cfg.c)
        graph = app.graph
        product = f_matmul(app.instance.a, app.instance.b)
        oracle = lambda out: bool(np.array_equal(out, product))
    else:
        if cfg.input_path:
            values = read_values(cfg.input_path)
            app = MergesortApp(values, n=cfg.n, c=cfg.c, rng=rngs.instance)
        else:
            app = make_mergesort_app(cfg.m, cfg.n, rngs.instance, cfg.c)
            values = app.input_values
        graph = app.graph
        expect = np.sort(values)
        oracle = lambda out: bool(np.array_equal(out, expect))
    return rngs, graph, app, oracle


def run_trial(cfg: ExperimentConfig, seed: int, trace_sink=None) -> dict:
    rngs, graph, app, oracle = _build_trial(cfg, seed)
    strategy = make_strategy(cfg.strategy)
    engine = Engine(
        graph,
        app,
        strategy,
        beta=cfg.beta,
        rngs=rngs,
        round_cap=cfg.round_cap,
        target_always_rejects=cfg.target_always_rejects,
        trace_sink=trace_sink,
    )
    outcome = engine.run()
    row = {
        "seed": int(seed),
        "app": cfg.app,
        "strategy": cfg.strategy,
        "terminated": bool(outcome.terminated),
        "capped": not outcome.terminated,
        "output_ok": bool(oracle(outcome.target_output))
        if outcome.terminated
        else None,
    }
    row.update(outcome.metrics.as_row())
    return row


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def _summarize(trials: list[dict]) -> dict:
    if not trials:
        return {k: 0 if k == "trials" else None for k in SUMMARY_FIELDS}
    rounds = [t["rounds"] for t in trials]
    oks = [t["output_ok"] for t in trials if t["output_ok"] is not None]
    out = {
        "trials": len(trials),
        "frac_terminated": _mean([1.0 if t["terminated"] else 0.0 for t in trials]),
        "all_terminated": all(t["terminated"] for t in trials),
        "all_outputs_correct": all(oks) if oks else None,
        "mean_rounds": _mean(rounds),
        "p99_rounds": float(np.quantile(rounds, 0.99)),
        "max_rounds": int(max(rounds)),
        "mean_source_sends": _mean([t["source_sends"] for t in trials]),
        "max_source_sends": int(max(t["source_sends"] for t in trials)),
        "mean_target_receives": _mean([t["target_receives"] for t in trials]),
        "max_target_receives": int(max(t["target_receives"] for t in trials)),
        "mean_comp_total": _mean([t["comp_total"] for t in trials]),
        "max_comp_total": int(max(t["comp_total"] for t in trials)),
        "mean_comm_total": _mean([t["comm_total"] for t in trials]),
        "max_comm_total": int(max(t["comm_total"] for t in trials)),
        "max_per_task_items": int(max(t["per_task_max_items"] for t in trials)),
    }
    return out


def _verdicts(cfg: ExperimentConfig, trials: list[dict], summary: dict) -> list[dict]:
    out = []
    if trials and not cfg.target_always_rejects:
        out.append(
            {
                "name": "all_terminated",
                "limit": 1.0,
                "observed": summary["frac_terminated"],
                "pass": bool(summary["all_terminated"]),
            }
        )
        if summary["all_outputs_correct"] is not None:
            out.append(
                {
                    "name": "all_outputs_correct",
                    "limit": 1.0,
                    "observed": _mean(
                        [1.0 if t["output_ok"] else 0.0 for t in trials
                         if t["output_ok"] is not None]
                    ),
                    "pass": bool(summary["all_outputs_correct"]),
                }
            )
    for name in sorted(cfg.ceilings):
        limit = cfg.ceilings[name]
        stat, _, metric = name.partition("_")
        vals = [t[metric] for t in trials]
        if not vals:
            observed = 0.0
        elif stat == "mean":
            observed = _mean(vals)
        elif stat == "max":
            observed = float(max(vals))
        else:
            observed = float(np.quantile(vals, 0.99))
        out.append(
            {
                "name": name,
                "limit": float(limit),
                "observed": observed,
                "pass": bool(observed <= limit),
            }
        )
    return out


def run_experiment(cfg: ExperimentConfig, trace_path: str | None = None) -> Batch:
    cfg.validate()
    trials = []
    trace_fh = open(trace_path, "w") if trace_path else None
    try:
        for seed in cfg.seeds:
            sink = None
            if trace_fh is not None:
                def sink(rec, _seed=int(seed)):
                    trace_fh.write(
                        json.dumps({"seed": _seed, **rec}, sort_keys=True) + "\n"
                    )
            trials.append(run_trial(cfg, seed, trace_sink=sink))
    finally:
        if trace_fh is not None:
            trace_fh.close()
    summary = _summarize(trials)
    verdicts = _verdicts(cfg, trials, summary)
    return Batch(config=cfg.to_dict(), trials=trials, summary=summary,
                 verdicts=verdicts)


# ---------------------------------------------------------------------------
# Serialization


def emit(batch: Batch, fmt: str = "json") -> bytes:
    if fmt == "json":
        doc = {
            "config": batch.config,
            "trials": batch.trials,
            "summary": batch.summary,
            "verdicts": batch.verdicts,
        }
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for t in batch.trials:
            writer.writerow([_csv_cell(t.get(k)) for k in ROW_FIELDS])
        srow = {k: None for k in ROW_FIELDS}
        srow.update(
            {
                "seed": "summary",
                "app": batch.config["app"],
                "strategy": batch.config["strategy"],
                "terminated": batch.summary["all_terminated"],
                "capped": None,
                "output_ok": batch.summary["all_outputs_correct"],
                "rounds": batch.summary["mean_rounds"],
                "source_sends": batch.summary["mean_source_sends"],
                "target_receives": batch.summary["mean_target_receives"],
                "per_task_max_items": batch.summary["max_per_task_items"],
                "comp_total": batch.summary["mean_comp_total"],
                "comm_total": batch.summary["mean_comm_total"],
            }
        )
        writer.writerow([_csv_cell(srow[k]) for k in ROW_FIELDS])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r} (known: json, csv)")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def dump_graph(cfg: ExperimentConfig, seed: int) -> bytes:
    _, graph, _, _ = _build_trial(cfg, seed)
    return (graph.to_json() + "\n").encode()


# ---------------------------------------------------------------------------
# CLI


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="supsim",
        description="Simulate supervised computations over task DAGs "
        "with adversarial workers.",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--app", choices=APPS)
    p.add_argument("--beta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--c", type=float, dest="c")
    p.add_argument("--strategy")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--trials", type=int, help="use seeds 0..N-1")
    p.add_argument("--round-cap", type=int, dest="round_cap")
    p.add_argument("--target-always-rejects", action="store_true", default=None)
    p.add_argument("--input", dest="input_path", help="instance file to load")
    p.add_argument("--out", help="result file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--trace", help="write per-round JSONL trace to this file")
    p.add_argument("--dump-graph", help="write the task graph as JSON to this file")
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        with open(args.config) as fh:
            data.update(json.load(fh))
    for key in ("app", "beta", "n", "m", "tau", "c", "strategy", "round_cap",
                "target_always_rejects", "input_path"):
        val = getattr(args, key)
        if val is not None:
            data[key] = val
    if args.seeds is not None:
        data["seeds"] = _parse_seeds(args.seeds)
    elif args.trials is not None:
        data["seeds"] = tuple(range(args.trials))
    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.dump_graph:
        seed = cfg.seeds[0] if cfg.seeds else 0
        Path(args.dump_graph).write_bytes(dump_graph(cfg, seed))

    batch = run_experiment(cfg, trace_path=args.trace)
    payload = emit(batch, args.format or "json")
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0 if batch.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
