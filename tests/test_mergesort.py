import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supsim.adversary import builtin_strategies, make_strategy
from supsim.mergesort import (
    MergesortApp,
    bit_reversal,
    build_mergesort_graph,
    in_cyclic_range,
    make_mergesort_app,
    read_values,
)
from supsim.metrics import Metrics
from supsim.protocol import Done, Engine, Reject, SupervisorState
from supsim.rngs import TrialRngs, stream
from supsim.taskgraph import assert_leveled

from _oracles import in_cyclic_oracle


def test_bit_reversal_frozen_values():
    assert [bit_reversal(j, 3) for j in range(8)] == [0, 4, 2, 6, 1, 5, 3, 7]
    assert bit_reversal(0, 0) == 0
    with pytest.raises(ValueError):
        bit_reversal(8, 3)


@given(st.integers(0, 10), st.data())
@settings(max_examples=60)
def test_bit_reversal_is_an_involution(bits, data):
    j = data.draw(st.integers(0, max(0, 2**bits - 1)))
    assert bit_reversal(bit_reversal(j, bits), bits) == j


def test_parameter_validation():
    rng = stream(0, 3)
    vals = rng.integers(0, 100, size=48, dtype=np.uint64)
    with pytest.raises(ValueError):
        MergesortApp(vals, n=3, rng=rng)  # n not a power of two
    with pytest.raises(ValueError):
        MergesortApp(vals, n=4, rng=rng)  # m/n = 12 not a power of two
    with pytest.raises(ValueError):
        MergesortApp(vals[:8], n=8, rng=rng)  # m too small for n log n


def test_graph_shape_small():
    g = build_mergesort_graph(4, 32, c=1.0)
    # 4 blocks x 2 sort tasks, 4 splitters, 2 merge layers of 4, 4 final
    # runs x 2 forwarders
    assert g.n == 8 + 4 + 4 + 4 + 8
    assert g.span == 6
    assert g.max_degree <= 2
    assert_leveled(g)
    segs = {
        (g.meta[v]["layer"], g.meta[v]["g"]): g.meta[v]["segment"]
        for v in range(g.n)
        if g.meta[v]["role"] == "merge"
    }
    assert segs == {(1, 0): (1, 16), (1, 1): (17, 32), (2, 0): (1, 32)}


def test_merge_predecessors_follow_the_halving_rule():
    g = build_mergesort_graph(8, 64, c=1.0)
    nodes = {}
    for v in range(g.n):
        meta = g.meta[v]
        if meta["role"] == "merge":
            nodes[(meta["layer"], meta["g"], meta["k"])] = v
        elif meta["role"] == "split0":
            nodes[(0, meta["j"], 0)] = v
    for (i, grp, k), v in nodes.items():
        if i == 0:
            continue
        pieces = 1 << i
        want = (
            nodes[(i - 1, 2 * grp, k >> 1)],
            nodes[(i - 1, 2 * grp + 1, ((k - 1) % pieces) >> 1)],
        )
        assert g.preds[v] == want


@given(
    st.integers(0, 2**61 - 2),
    st.integers(1, 2**61 - 1),
    st.tuples(st.integers(0, 100), st.integers(1, 50)),
    st.tuples(st.integers(0, 100), st.integers(1, 50)),
)
@settings(max_examples=120)
def test_cyclic_range_matches_oracle(val, idx, lo, hi):
    got = in_cyclic_range(
        np.array([val], dtype=np.uint64), np.array([idx], dtype=np.uint64), (lo, hi)
    )
    assert bool(got[0]) == in_cyclic_oracle((val, idx), lo, hi)


def test_cyclic_range_none_accepts_everything():
    vals = np.array([5, 7], dtype=np.uint64)
    idxs = np.array([1, 2], dtype=np.uint64)
    assert in_cyclic_range(vals, idxs, None).all()


def _run(app, strategy, seed, beta, **kw):
    eng = Engine(
        app.graph, app, make_strategy(strategy), beta=beta,
        rngs=TrialRngs.from_seed(seed), **kw
    )
    return eng.run()


def test_honest_run_sorts():
    app = make_mergesort_app(32, 4, rng=stream(0, 3))
    out = _run(app, "honest", 0, 0.0)
    assert out.terminated
    assert out.rounds_used == app.graph.span + 1
    assert np.array_equal(out.target_output, np.sort(app.input_values))


def test_duplicate_values_sort_correctly():
    rng = stream(42, 3)
    values = rng.integers(0, 4, size=64, dtype=np.uint64)  # heavy ties
    app = MergesortApp(values, n=4, rng=rng)
    out = _run(app, "honest", 1, 0.0)
    assert out.terminated
    assert np.array_equal(out.target_output, np.sort(values))


def test_all_equal_values_sort_correctly():
    values = np.full(64, 7, dtype=np.uint64)
    app = MergesortApp(values, n=8, rng=stream(3, 3))
    out = _run(app, "honest", 2, 0.0)
    assert out.terminated
    assert np.array_equal(out.target_output, values)


@pytest.mark.parametrize("strat", sorted(builtin_strategies()))
def test_all_strategies_yield_sorted_output(strat):
    for seed in range(3):
        app = make_mergesort_app(256, 8, rng=stream(seed, 3))
        out = _run(app, strat, seed, 0.25, check_closure=True)
        assert out.terminated, f"{strat} seed {seed} hit the round cap"
        assert np.array_equal(
            out.target_output, np.sort(app.input_values)
        ), f"{strat} seed {seed}"


def test_count_cheat_is_detected_and_repaired():
    # with a high adversary rate the cheat engages; the run must still
    # produce a fully sorted output, and some rejection must have fired
    kinds_seen = []
    app = make_mergesort_app(256, 8, rng=stream(5, 3))
    eng = Engine(
        app.graph, app, make_strategy("count_cheat"), beta=0.4,
        rngs=TrialRngs.from_seed(5),
        trace_sink=lambda rec: kinds_seen.extend(rec["reports"]),
    )
    out = eng.run()
    assert out.terminated
    assert np.array_equal(out.target_output, np.sort(app.input_values))
    assert "Reject" in kinds_seen


def test_execute_rejects_tampered_runs():
    app = make_mergesort_app(32, 4, rng=stream(7, 3))
    g = app.graph
    v = next(
        v for v in range(g.n)
        if g.meta[v]["role"] == "sort" and g.meta[v]["seq"] == 1
    )
    pred = g.preds[v][0]
    honest_rep, honest_out = app.execute(
        pred, [app.source_payload(pred)], SupervisorState(), stream(1, 1),
        Metrics(),
    )
    assert isinstance(honest_rep, Done)

    def run_on(items):
        rep, _ = app.execute(v, [items], SupervisorState(), stream(1, 1),
                             Metrics())
        return rep

    assert isinstance(run_on(honest_out), Done)
    forged_value = honest_out.copy()
    forged_value[3, 0] += np.uint64(1)  # breaks the tag
    assert isinstance(run_on(forged_value), Reject)
    dup = honest_out.copy()
    dup[2] = dup[1]  # duplicate index smuggled in
    assert isinstance(run_on(dup), Reject)
    short = honest_out[:-1]  # count mismatch
    assert isinstance(run_on(short), Reject)
    swapped = honest_out[::-1].copy()  # violates claimed sortedness
    assert isinstance(run_on(swapped), Reject)
    assert isinstance(run_on(None), Reject)


def test_supervisor_enforces_count_conservation():
    app = make_mergesort_app(32, 4, rng=stream(8, 3))
    g = app.graph
    sup = SupervisorState()
    split = next(v for v in range(g.n) if g.meta[v]["role"] == "split0")
    assert not app.supervisor_on_done(split, (3, 5), sup)  # feeders undeclared
    chain = []
    v = split
    while g.preds[v]:
        v = g.preds[v][0]
        chain.append(v)
    for v in reversed(chain):  # declare the sort chain head first
        assert app.supervisor_on_done(v, (8,), sup)
    assert app.supervisor_on_done(split, (3, 5), sup)
    lo, hi = g.succs[split]
    assert sup.expected_counts[(split, lo)] == 3
    assert sup.expected_counts[(split, hi)] == 5
    assert not app.supervisor_on_done(split, (3, 4), sup)  # loses an item
    assert not app.supervisor_on_done(split, (9, -1), sup)  # negative count
    assert not app.supervisor_on_done(split, (8,), sup)  # wrong arity
    assert not app.supervisor_on_done(split, None, sup)


def test_truncate_and_forge_helpers():
    app = make_mergesort_app(32, 4, rng=stream(9, 3))
    items = app.source_payload(app.graph.initial_tasks[0])
    assert app.truncate_payload(items, 2).shape == (6, 4)
    assert app.truncate_payload(items[:1], 5).shape == (0, 4)
    rng = stream(2, 2)
    forged = app.forge_payload(0, rng)
    assert forged.dtype == np.uint64 and forged.shape[1] == 4
    corrupted = app.corrupt_payload(items, rng)
    assert corrupted.shape == items.shape
    assert not np.array_equal(corrupted, items)


def test_read_values_roundtrip(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("5\n17\n0\n9\n")
    got = read_values(path)
    assert got.dtype == np.uint64
    assert got.tolist() == [5, 17, 0, 9]


def test_quantile_interleaving_at_width_256():
    # n sorted target streams, cyclically keyed by the sampled quantiles,
    # must concatenate to the full sort even at the widest layout
    rng = stream(123, 3)
    values = rng.integers(0, 50, size=2048, dtype=np.uint64)  # many ties
    app = MergesortApp(values, n=256, rng=rng)
    out = _run(app, "honest", 3, 0.0)
    assert out.terminated
    assert np.array_equal(out.target_output, np.sort(values))


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_quantile_interleaving_property(log_n, seed, spread):
    n = 2**log_n
    block = max(2, 2 ** max(3, log_n).bit_length())  # keep m >= n log2 n
    m = n * block
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 10**spread + 2, size=m, dtype=np.uint64)
    app = MergesortApp(values, n=n, rng=np.random.default_rng(seed + 1))
    out = _run(app, "honest", seed % 100, 0.0)
    assert out.terminated
    assert np.array_equal(out.target_output, np.sort(values))
