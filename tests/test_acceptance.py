"""End-to-end acceptance runs, one test per numbered criterion.

Each test prints exactly one `criterion NN: PASS/FAIL` line (written
straight to the real stdout so pytest's capture cannot swallow it) with
the calibrated ceiling and the observed statistic, then asserts.  The
heavyweight experiment batches are shared between criteria through
module-scoped fixtures, and every batch is registered so the final
safety sweep can scan the full strategy x seed matrix.
"""

import math
import sys
import time

import numpy as np
import pytest

from supsim.adversary import builtin_strategies, make_strategy
from supsim.harness import ExperimentConfig, run_experiment
from supsim.matmul import make_matmul_app
from supsim.mergesort import MergesortApp
from supsim.protocol import Engine, FlagApp, is_ancestor_closed, wavefront
from supsim.rngs import TrialRngs, stream
from supsim.taskgraph import (
    assert_leveled,
    build_path,
    random_leveled_dag,
    topological_order,
)
from supsim.verify import P, f_matmul, freivalds, freivalds_once

from _oracles import brute_wavefront, py_matmul_mod

ALL_BATCHES: list = []

_ACTIVE_CAPFD = None


@pytest.fixture(autouse=True)
def _expose_capfd(capfd):
    # let _line punch through pytest's fd-level capture
    global _ACTIVE_CAPFD
    _ACTIVE_CAPFD = capfd
    yield
    _ACTIVE_CAPFD = None


def _line(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    msg = f"criterion {num:2d}: {verdict}  {detail}"
    if _ACTIVE_CAPFD is not None:
        with _ACTIVE_CAPFD.disabled():
            print(msg, file=sys.__stdout__, flush=True)
    else:
        print(msg, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _register(batch) -> None:
    ALL_BATCHES.append(batch)


# -- shared experiment batches -------------------------------------------------

PATH_STRATS = ("always_reject", "silent", "corrupt_output", "random_mix")


@pytest.fixture(scope="module")
def path_matrix():
    """Path n=1000, beta=1/12, 200 seeds per strategy; timed."""
    batches = {}
    elapsed = 0.0
    for strat in PATH_STRATS:
        cfg = ExperimentConfig(
            app="path", n=1000, beta=1 / 12, strategy=strat,
            seeds=tuple(range(200)),
        )
        t0 = time.perf_counter()
        batch = run_experiment(cfg)
        elapsed += time.perf_counter() - t0
        _register(batch)
        batches[strat] = batch
    return batches, elapsed


@pytest.fixture(scope="module")
def matmul_matrix():
    """Matmul m=64, k=4, tau=8, beta=1/200, 50 seeds per strategy."""
    batches = {}
    for strat in sorted(builtin_strategies()):
        cfg = ExperimentConfig(
            app="matmul", n=16, m=64, tau=8, beta=1 / 200, strategy=strat,
            seeds=tuple(range(50)),
        )
        batch = run_experiment(cfg)
        _register(batch)
        batches[strat] = batch
    return batches


@pytest.fixture(scope="module")
def mergesort_matrix():
    """Mergesort m=4096, n=64, beta=1/200, 50 seeds per strategy."""
    batches = {}
    for strat in sorted(builtin_strategies()):
        cfg = ExperimentConfig(
            app="mergesort", n=64, m=4096, beta=1 / 200, strategy=strat,
            seeds=tuple(range(50)),
        )
        batch = run_experiment(cfg)
        _register(batch)
        batches[strat] = batch
    return batches


@pytest.fixture(scope="module")
def honest_mergesort_run():
    cfg = ExperimentConfig(
        app="mergesort", n=64, m=4096, beta=0.0, strategy="honest", seeds=(0,),
    )
    batch = run_experiment(cfg)
    _register(batch)
    return batch.trials[0]


# -- criteria -------------------------------------------------------------------


def test_criterion_01_path_runtime(path_matrix):
    batches, elapsed = path_matrix
    n, beta = 1000, 1 / 12
    ceiling = n + (4 * beta / (1 - 4 * beta)) * n + 100
    rounds = [t["rounds"] for b in batches.values() for t in b.trials]
    frac_within = float(np.mean([r <= ceiling for r in rounds]))
    ok = frac_within >= 0.99 and elapsed < 10.0 and all(
        t["terminated"] for b in batches.values() for t in b.trials
    )
    _line(
        1, ok,
        f"rounds <= {ceiling:.0f} in {frac_within:.1%} of 800 trials "
        f"(need >= 99%), wall time {elapsed:.2f}s (need < 10s)",
    )


def test_criterion_02_source_sends(path_matrix):
    batches, _ = path_matrix
    beta = 1 / 12
    ceiling = 1 / (1 - 7 * beta) + 0.2
    worst = max(b.summary["mean_source_sends"] for b in batches.values())
    _line(
        2, worst <= ceiling,
        f"worst per-strategy mean source_sends {worst:.3f} <= {ceiling:.3f}",
    )


def test_criterion_03_target_receives(path_matrix):
    batches, _ = path_matrix
    ceiling = 1.5
    worst = max(b.summary["mean_target_receives"] for b in batches.values())
    _line(
        3, worst <= ceiling,
        f"worst per-strategy mean target_receives {worst:.3f} <= {ceiling}",
    )


def test_criterion_04_honest_majority_on_log_path():
    n = 256
    length = math.ceil(4 * math.log(n))  # 23
    beta = 1 / 10
    graph = build_path(length)
    hits = 0
    trials = 500
    for seed in range(trials):
        app = FlagApp(graph)
        eng = Engine(
            graph, app, make_strategy("honest_until_end"), beta=beta,
            rngs=TrialRngs.from_seed(seed),
        )
        out = eng.run()
        assert out.terminated
        honest = sum(eng.worker_honest)
        if honest > length / 2:
            hits += 1
    frac = hits / trials
    _line(
        4, frac >= 0.99,
        f"honest majority among the {length} assigned workers at "
        f"termination in {frac:.1%} of {trials} trials (need >= 99%)",
    )


def test_criterion_05_adversarial_target():
    n = 256
    length = math.ceil(2 * math.log2(n))  # 16
    cfg = ExperimentConfig(
        app="path", n=length, beta=1 / 12, strategy="always_reject",
        seeds=tuple(range(200)), round_cap=n, target_always_rejects=True,
    )
    batch = run_experiment(cfg)
    _register(batch)
    mean_sends = batch.summary["mean_source_sends"]
    assert all(t["rounds"] == n for t in batch.trials)
    _line(
        5, mean_sends <= 2.0,
        f"mean source_sends {mean_sends:.3f} <= 2 after {n} rounds of "
        f"target rejections on a {length}-task path",
    )


def test_criterion_06_dag_runtime():
    depth, width = 64, 8
    cfg = ExperimentConfig(
        app="dag", n=depth, m=width, beta=1 / 200, strategy="random_mix",
        seeds=tuple(range(100)),
    )
    batch = run_experiment(cfg)
    _register(batch)
    n_tasks = width * (depth + 1)
    ceiling = 8 * (depth + math.log2(n_tasks))
    worst = batch.summary["max_rounds"]
    ok = worst <= ceiling and batch.summary["all_terminated"]
    _line(
        6, ok,
        f"max rounds {worst} <= {ceiling:.1f} over 100 random "
        f"{n_tasks}-task DAGs of span {depth}",
    )


def test_criterion_07_freivalds_soundness():
    rng = stream(777, 3)
    exact_ok = True
    for w in (2, 4):
        for trial in range(20):
            a = rng.integers(0, P, size=(w, w), dtype=np.uint64)
            b = rng.integers(0, P, size=(w, w), dtype=np.uint64)
            c = f_matmul(a, b)
            if trial % 2 == 0:
                i, j = (int(x) for x in rng.integers(0, w, size=2))
                c[i, j] = np.uint64((int(c[i, j]) + 1) % P)
                tight = True
            else:
                c = rng.integers(0, P, size=(w, w), dtype=np.uint64)
                if np.array_equal(c, f_matmul(a, b)):
                    continue
                tight = False
            accepts = sum(
                freivalds_once(a, b, c, np.array(bits, dtype=np.uint64))
                for bits in np.ndindex(*(2,) * w)
            )
            rate = accepts / 2**w
            if rate > 0.5 or (tight and rate != 0.5):
                exact_ok = False

    # empirical full-protocol rate at tau=10 on worst-case instances
    tau, trials = 10, 10_000
    false_accepts = 0
    for _ in range(trials):
        a = rng.integers(0, P, size=(4, 4), dtype=np.uint64)
        b = rng.integers(0, P, size=(4, 4), dtype=np.uint64)
        c = f_matmul(a, b)
        i, j = (int(x) for x in rng.integers(0, 4, size=2))
        c[i, j] = np.uint64((int(c[i, j]) + 1 + int(rng.integers(0, P - 1))) % P)
        if freivalds(a, b, c, tau=tau, rng=rng):
            false_accepts += 1
    p = 2.0**-tau
    sigma = math.sqrt(p * (1 - p) / trials)
    bound = p + 3 * sigma
    rate = false_accepts / trials
    ok = exact_ok and rate <= bound
    _line(
        7, ok,
        f"exhaustive per-repetition rate <= 1/2 (tight cases exactly 1/2); "
        f"tau={tau} empirical rate {rate:.5f} <= {bound:.5f}",
    )


def test_criterion_08_matmul_end_to_end(matmul_matrix):
    ceiling_rounds = 12 * math.log2(16)  # 48
    all_rows = [t for b in matmul_matrix.values() for t in b.trials]
    terminated = all(t["terminated"] for t in all_rows)
    correct = all(t["output_ok"] for t in all_rows)
    worst_rounds = max(t["rounds"] for t in all_rows)

    # spot-check the library oracle itself against big-int arithmetic
    app = make_matmul_app(64, 4, tau=8, rng=stream(0, 3))
    assert f_matmul(app.instance.a, app.instance.b).tolist() == py_matmul_mod(
        app.instance.a.tolist(), app.instance.b.tolist()
    )

    # honest-run multiply-add budget
    honest_cfg = ExperimentConfig(
        app="matmul", n=16, m=64, tau=8, beta=0.0, strategy="honest", seeds=(0,),
    )
    honest_batch = run_experiment(honest_cfg)
    _register(honest_batch)
    madds = honest_batch.trials[0]["comp_total"]
    madd_ceiling = 4 * 64**3
    ok = (
        terminated and correct
        and worst_rounds <= ceiling_rounds
        and madds <= madd_ceiling
    )
    _line(
        8, ok,
        f"{len(all_rows)} runs correct, max rounds {worst_rounds} <= "
        f"{ceiling_rounds:.0f}, honest madds {madds} <= {madd_ceiling}",
    )


def test_criterion_09_mergesort_end_to_end(mergesort_matrix):
    m, n = 4096, 64
    ceiling_rounds = 12 * math.log2(n)  # 72
    items_ceiling = 8 * (m // n) * math.log(n)
    all_rows = [t for b in mergesort_matrix.values() for t in b.trials]
    terminated = all(t["terminated"] for t in all_rows)
    correct = all(t["output_ok"] for t in all_rows)
    worst_rounds = max(t["rounds"] for t in all_rows)
    worst_items = max(t["per_task_max_items"] for t in all_rows)
    ok = (
        terminated and correct
        and worst_rounds <= ceiling_rounds
        and worst_items <= items_ceiling
    )
    _line(
        9, ok,
        f"{len(all_rows)} runs sorted, max rounds {worst_rounds} <= "
        f"{ceiling_rounds:.0f}, max per-task items {worst_items} <= "
        f"{items_ceiling:.0f}",
    )


def test_criterion_10_work_ceilings(mergesort_matrix, honest_mergesort_run):
    m, n = 4096, 64
    comp_ceiling = 4 * m * math.log2(m)
    comm_ceiling = 4 * m * math.log2(n)
    honest_comp = honest_mergesort_run["comp_total"]
    honest_comm = honest_mergesort_run["comm_total"]
    mean_comp = float(np.mean(
        [b.summary["mean_comp_total"] for b in mergesort_matrix.values()]
    ))
    mean_comm = float(np.mean(
        [b.summary["mean_comm_total"] for b in mergesort_matrix.values()]
    ))
    ok = (
        honest_comp <= comp_ceiling
        and honest_comm <= comm_ceiling
        and mean_comp <= 2 * comp_ceiling
        and mean_comm <= 2 * comm_ceiling
    )
    _line(
        10, ok,
        f"honest comp {honest_comp} <= {comp_ceiling:.0f}, honest comm "
        f"{honest_comm} <= {comm_ceiling:.0f}; adversarial means "
        f"{mean_comp:.0f}/{mean_comm:.0f} within 2x",
    )


def test_criterion_11_zero_incorrect_outputs(
    path_matrix, matmul_matrix, mergesort_matrix
):
    judged = 0
    wrong = 0
    for batch in ALL_BATCHES:
        for t in batch.trials:
            if t["terminated"]:
                judged += 1
                if not t["output_ok"]:
                    wrong += 1
    ok = wrong == 0 and judged >= 1000
    _line(
        11, ok,
        f"{wrong} incorrect outputs across {judged} terminated runs "
        f"(exact oracle equality)",
    )


def test_criterion_12_structural_invariants():
    # leveled-network property of the random graph generator
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g = random_leveled_dag(int(rng.integers(1, 9)), int(rng.integers(1, 33)), rng)
        assert_leveled(g)

    # wavefront definition equivalence on random closed sets
    checked = 0
    for seed in range(150):
        rng = np.random.default_rng(10_000 + seed)
        g = random_leveled_dag(int(rng.integers(1, 6)), int(rng.integers(1, 17)), rng)
        order = topological_order(g)
        cut = int(rng.integers(0, g.n + 1))
        f = set(order[:cut])
        preds = {v: g.preds[v] for v in range(g.n)}
        assert wavefront(g, f) == brute_wavefront(preds, f)
        checked += 1

    # ancestor closure after every round, audited inside the engine
    for seed in range(20):
        g = random_leveled_dag(4, 12, np.random.default_rng(20_000 + seed))
        eng = Engine(
            g, FlagApp(g), make_strategy("random_mix"), beta=0.3,
            rngs=TrialRngs.from_seed(seed), check_closure=True,
        )
        out = eng.run()
        assert out.terminated
        assert is_ancestor_closed(g, eng.sup.f)

    # quantile interleaving up to n = 256, with heavy ties
    for n, m, seed in ((2, 16, 1), (16, 256, 2), (64, 1024, 3), (256, 2048, 4)):
        rng = stream(seed, 3)
        values = rng.integers(0, max(4, m // 8), size=m, dtype=np.uint64)
        app = MergesortApp(values, n=n, rng=rng)
        eng = Engine(
            app.graph, app, make_strategy("honest"), beta=0.0,
            rngs=TrialRngs.from_seed(seed),
        )
        out = eng.run()
        assert out.terminated
        assert np.array_equal(out.target_output, np.sort(values))

    _line(
        12, True,
        "leveled property, wavefront equivalence, per-round closure, and "
        "quantile interleaving (n up to 256) all hold",
    )
