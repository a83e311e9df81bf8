"""The benchmark's workloads, their seeds, and the checks that judge each
trial without using supsim's own code.

All three workloads run the `random_mix` adversary at beta = 1/12, so
rollbacks, pruning and failed checks happen in every trial.  Each trial
takes 0.15 s or more, so one trial is long next to the scheduling noise
of a small shared machine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

MODULUS = (1 << 61) - 1
BETA = 0.0833
SEED_STRIDE = 1_000_000
WARMUP_INDEX = SEED_STRIDE - 1


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    `config` holds `ExperimentConfig` fields.  The first
    `counted_trials` trials of every run have fixed seeds; the modelled
    counters and the fingerprint are taken over exactly those, so they
    repeat whatever the run length, and a run never stops before them.
    """

    name: str
    config: dict
    counted_trials: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "path-n20000",
            dict(app="path", n=20000, beta=BETA, strategy="random_mix"),
            20,
        ),
        Workload(
            "matmul-m128k4",
            dict(app="matmul", m=128, n=16, tau=8, beta=BETA,
                 strategy="random_mix"),
            10,
        ),
        Workload(
            "mergesort-m65536n64",
            dict(app="mergesort", m=65536, n=64, beta=BETA,
                 strategy="random_mix"),
            10,
        ),
    )
}


def trial_seed(base_seed: int, index: int) -> int:
    """Seed of trial `index` in a run started with `base_seed`.

    Runs with different base seeds never share a trial seed; the warm-up
    trial uses index WARMUP_INDEX.
    """
    if not 0 <= index < SEED_STRIDE:
        raise ValueError(f"trial index out of range: {index}")
    return base_seed * SEED_STRIDE + index


def snapshot_inputs(engine):
    """Copies of the instance an engine starts from, taken before it runs,
    so a run that mutates source-held data cannot hide its own fault."""
    app = engine.app
    if hasattr(app, "instance"):
        return app.instance.a.copy(), app.instance.b.copy()
    if hasattr(app, "input_values"):
        return app.input_values.copy()
    return None


def exact_product(a, b):
    """A · B mod 2^61-1 in Python integers (no field kernel involved)."""
    return (a.astype(object) @ b.astype(object)) % MODULUS


def check_trial(config: dict, row: dict, engine, inputs, output) -> str | None:
    """None if the trial passes every check, else the first failed check."""
    if not row["terminated"]:
        return "did not terminate"
    if row["rounds"] >= engine.round_cap:
        return "reached the round cap"
    if row["output_ok"] is not True:
        return "harness oracle rejected the output"
    app = config["app"]
    if app == "matmul":
        a, b = inputs
        want = exact_product(a, b)
        if output.shape != want.shape or output.tolist() != want.tolist():
            return "product differs from the exact integer product"
    elif app == "mergesort":
        if output.tolist() != sorted(inputs.tolist()):
            return "output differs from sorted(values)"
    elif app == "path":
        (final,) = engine.graph.final_tasks
        if output != {final: True}:
            return "final task not accepted"
        if row["rounds"] < config["n"] + 1:
            return "fewer rounds than tasks plus a delivery round"
    return None


def fingerprint(rows: list[dict]) -> str:
    """Keyless blake2b over the canonical rows of modelled counters."""
    h = hashlib.blake2b(digest_size=16)
    for row in rows:
        h.update(json.dumps(row, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()
