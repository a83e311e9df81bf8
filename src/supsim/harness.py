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
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .adversary import builtin_strategies, make_strategy
from .matmul import load_instance, make_matmul_app
from .matmul import _validate_params as _validate_matmul
from .mergesort import make_mergesort_app, read_values
from .mergesort import _validate_params as _validate_mergesort
from .metrics import Metrics
from .protocol import Engine, FlagApp, check_beta
from .rngs import TrialRngs
from .taskgraph import _validate_dag, _validate_path, build_path, random_leveled_dag
from .verify import f_matmul

APPS = ("path", "dag", "matmul", "mergesort")

COUNTERS = tuple(Metrics().as_row())

# fixed column order for rows (csv header and json field sanity): the
# trial's identity and verdict, then the counters in `Metrics.as_row` order
ROW_FIELDS = (
    "seed",
    "app",
    "strategy",
    "terminated",
    "capped",
    "output_ok",
    *COUNTERS,
)

# the summary's statistics, each `<mean|max|p99>_<counter>`; the summary
# also holds max_per_task_items, an older name for max_per_task_max_items
SUMMARY_STATS = (
    "mean_rounds", "p99_rounds", "max_rounds",
    "mean_source_sends", "max_source_sends",
    "mean_target_receives", "max_target_receives",
    "mean_comp_total", "max_comp_total",
    "mean_comm_total", "max_comm_total",
)


def _type_ok(value, tp) -> bool:
    """Whether a config value has the field type `tp`.  A number is a
    finite int or float and never a bool; a tuple field takes a list or a
    tuple."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:
        return any(_type_ok(value, a) for a in args)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(
            _type_ok(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _type_ok(k, args[0]) and _type_ok(v, args[1])
            for k, v in value.items())
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float)) and -math.inf < value < math.inf
    return isinstance(value, tp)


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
        hints = get_type_hints(type(self))
        for f_ in fields(self):
            val = getattr(self, f_.name)
            if not _type_ok(val, hints[f_.name]):
                raise ValueError(f"{f_.name} must be {f_.type}, got {val!r}")
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
        # an input file is checked against them by `load_input`
        if self.app == "path":
            _validate_path(self.n)
        elif self.app == "dag":
            _validate_dag(self.m, self.n)
        elif self.app == "mergesort":
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
            _validate_matmul(self.m, k)
        for name in self.ceilings:
            _stat(name, [])  # parses the name

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
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


def load_input(cfg: ExperimentConfig):
    """The instance in `cfg.input_path`, or None without one: a matmul
    `MatmulInstance` or the mergesort values.  Its shape must be the one n
    and m describe.  A batch reads the file once and hands the result to
    every trial."""
    path = cfg.input_path
    if not path or cfg.app not in ("matmul", "mergesort"):
        return None
    if cfg.app == "matmul":
        inst = load_instance(path)
        if (inst.n, inst.m) != (cfg.n, cfg.m):
            raise ValueError(
                f"{path} holds n=k^2={inst.n}, m={inst.m}, "
                f"but n={cfg.n}, m={cfg.m}"
            )
        return inst
    values = read_values(path)
    if len(values) != cfg.m:
        raise ValueError(f"{path} holds {len(values)} values, but m={cfg.m}")
    return values


def _build_trial(cfg: ExperimentConfig, seed: int, instance=None):
    """App (which holds the task graph) and an oracle comparator for one
    seed.  `instance` is what `load_input(cfg)` returns; it is loaded here
    when not given."""
    if instance is None:
        instance = load_input(cfg)
    rngs = TrialRngs.from_seed(seed)
    if cfg.app == "path":
        app = FlagApp(build_path(cfg.n))
        expect = {v: True for v in app.graph.final_tasks}
        oracle = lambda out: out == expect
    elif cfg.app == "dag":
        app = FlagApp(random_leveled_dag(cfg.m, cfg.n, rngs.instance))
        expect = {v: True for v in app.graph.final_tasks}
        oracle = lambda out: out == expect
    elif cfg.app == "matmul":
        app = make_matmul_app(cfg.m, math.isqrt(cfg.n), cfg.tau, rngs.instance,
                              cfg.c, instance=instance)
        # The oracle uses the kernel under test.  What keeps a shared fault
        # from hiding: test_verify checks `f_matmul` against Python ints at
        # the limb and chunk edges, acceptance criterion 8 spot-checks an
        # m=64 product the same way, and the benchmark compares every
        # trial's output with an exact Python-int product.
        product = f_matmul(app.instance.a, app.instance.b)
        oracle = lambda out: bool(np.array_equal(out, product))
    else:
        app = make_mergesort_app(cfg.m, cfg.n, rngs.instance, cfg.c,
                                 values=instance)
        expect = np.sort(app.input_values)
        oracle = lambda out: bool(np.array_equal(out, expect))
    return rngs, app, oracle


def run_trial(cfg: ExperimentConfig, seed: int, trace_sink=None,
              instance=None) -> dict:
    rngs, app, oracle = _build_trial(cfg, seed, instance)
    strategy = make_strategy(cfg.strategy)
    engine = Engine(
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


def _stat(name: str, trials: list[dict]):
    """The statistic `<mean|max|p99>_<counter>` over the trials' rows, 0
    without trials: mean and p99 as a float, max as an int."""
    stat, _, counter = name.partition("_")
    if stat not in ("mean", "max", "p99") or counter not in COUNTERS:
        raise ValueError(
            f"ceiling {name!r} is not <mean|max|p99>_<counter>, with counter "
            f"one of: {', '.join(COUNTERS)}"
        )
    if not trials:
        return 0
    xs = [t[counter] for t in trials]
    if stat == "max":
        return int(max(xs))
    return _mean(xs) if stat == "mean" else float(np.quantile(xs, 0.99))


def _summarize(trials: list[dict]) -> dict:
    oks = [t["output_ok"] for t in trials if t["output_ok"] is not None]
    out = {
        "trials": len(trials),
        "frac_terminated": _mean([1.0 if t["terminated"] else 0.0 for t in trials]),
        "all_terminated": all(t["terminated"] for t in trials),
        "all_outputs_correct": all(oks) if oks else None,
        **{name: _stat(name, trials) for name in SUMMARY_STATS},
        "max_per_task_items": _stat("max_per_task_max_items", trials),
    }
    # an empty batch has a count and no statistics
    return out if trials else {k: 0 if k == "trials" else None for k in out}


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
        observed = float(_stat(name, trials))
        out.append(
            {
                "name": name,
                "limit": float(limit),
                "observed": observed,
                "pass": bool(observed <= limit),
            }
        )
    return out


def run_experiment(cfg: ExperimentConfig, trace_path: str | None = None,
                   instance=None) -> Batch:
    """All seeds of a batch.  `instance` is what `load_input(cfg)` returns;
    it is loaded here, once, when not given."""
    cfg.validate()
    if instance is None:
        instance = load_input(cfg)
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
            trials.append(run_trial(cfg, seed, trace_sink=sink,
                                    instance=instance))
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
        # each counter column holds the summary's mean of it, where the
        # summary has one, and per_task_max_items its max
        srow = {
            "seed": "summary",
            "app": batch.config["app"],
            "strategy": batch.config["strategy"],
            "terminated": batch.summary["all_terminated"],
            "output_ok": batch.summary["all_outputs_correct"],
            **{col: batch.summary.get(f"mean_{col}") for col in COUNTERS},
            "per_task_max_items": batch.summary["max_per_task_items"],
        }
        writer.writerow([_csv_cell(srow.get(k)) for k in ROW_FIELDS])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r} (known: json, csv)")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def dump_graph(cfg: ExperimentConfig, seed: int, instance=None) -> bytes:
    _, app, _ = _build_trial(cfg, seed, instance)
    return (app.graph.to_json() + "\n").encode()


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
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
    flags = dict(vars(args))
    if args.seeds is not None:
        flags["seeds"] = _parse_seeds(args.seeds)
    elif args.trials is not None:
        flags["seeds"] = tuple(range(args.trials))
    for f_ in fields(ExperimentConfig):
        if flags.get(f_.name) is not None:
            data[f_.name] = flags[f_.name]
    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        instance = load_input(cfg)
        # an unwritable output path fails here, not after the batch
        for path in (args.out, args.trace, args.dump_graph):
            if path:
                open(path, "ab").close()
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.dump_graph:
        seed = cfg.seeds[0] if cfg.seeds else 0
        Path(args.dump_graph).write_bytes(dump_graph(cfg, seed, instance))

    batch = run_experiment(cfg, trace_path=args.trace, instance=instance)
    payload = emit(batch, args.format or "json")
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0 if batch.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
