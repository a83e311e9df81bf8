import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supsim.adversary import builtin_strategies, make_strategy
from supsim.matmul import (
    MatmulApp,
    MatmulInstance,
    build_matmul_graph,
    load_instance,
    make_matmul_app,
    random_instance,
    save_instance,
    stripes,
)
from supsim.protocol import Engine, Reject, SupervisorState
from supsim.rngs import TrialRngs, stream
from supsim.taskgraph import TaskKind, assert_leveled, ceil_log2
from supsim.verify import f_matmul

from _oracles import P, py_matmul_mod


def _inst(m=8, k=2, seed=0):
    return random_instance(m, k, stream(seed, 3))


def test_instance_validation():
    rng = stream(0, 3)
    good = rng.integers(0, P, size=(8, 8), dtype=np.uint64)
    with pytest.raises(ValueError):
        MatmulInstance(good, good[:4], k=2)  # shape mismatch
    with pytest.raises(ValueError):
        MatmulInstance(good, good, k=3)  # k not a power of two
    with pytest.raises(ValueError):
        MatmulInstance(good, good, k=16)  # k does not divide m
    bad = good.copy()
    bad[0, 0] = np.uint64(P)
    with pytest.raises(ValueError):
        MatmulInstance(bad, good, k=2)  # entry outside the field
    with pytest.raises(ValueError):
        # m too small to feed k^2 broadcast trees of depth log2(k^2)
        MatmulInstance(good[:2, :2], good[:2, :2], k=2)


def test_stripes_partition_the_operands():
    inst = _inst(m=8, k=2)
    a_bands, b_bands = stripes(inst.a, inst.b, inst.k)
    assert len(a_bands) == 2 and len(b_bands) == 2
    assert a_bands[0].shape == (4, 8)
    assert b_bands[1].shape == (8, 4)
    assert np.array_equal(np.vstack(a_bands), inst.a)
    assert np.array_equal(np.hstack(b_bands), inst.b)


def test_instance_file_roundtrip(tmp_path):
    inst = _inst(m=8, k=2, seed=5)
    path = tmp_path / "inst.bin"
    save_instance(path, inst)
    back = load_instance(path)
    assert back.k == inst.k
    assert np.array_equal(back.a, inst.a)
    assert np.array_equal(back.b, inst.b)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a matrix file at all")
    with pytest.raises(ValueError):
        load_instance(path)


def test_graph_shape_for_k2():
    g = build_matmul_graph(2, c=1.0)
    # 4 stripes: 2-long input chains and 3-node broadcast trees;
    # 4 blocks: one multiply plus a 2-long output chain each
    assert g.n == 4 * 2 + 4 * 3 + 4 + 4 * 2
    assert g.max_degree <= 2
    assert_leveled(g)
    assert len(g.initial_tasks) == 4
    roles = [g.meta[v]["role"] for v in range(g.n)]
    assert roles.count("multiply") == 4
    assert roles.count("output") == 8


def test_multiply_preds_pair_the_right_tree_leaves():
    g = build_matmul_graph(4, c=1.0)
    k = 4
    leaves = {}
    for v in range(g.n):
        meta = g.meta[v]
        if meta["role"] == "tree" and meta["pos"] >= k:
            leaves[(meta["stripe"], meta["pos"] - k)] = v
    for v in range(g.n):
        meta = g.meta[v]
        if meta["role"] != "multiply":
            continue
        i, j = meta["i"], meta["j"]
        assert g.preds[v] == (leaves[(("A", i), j)], leaves[(("B", j), i)])


@given(st.integers(1, 3), st.floats(0.5, 3.0))
@settings(max_examples=20, deadline=None)
def test_graph_list_lengths_scale_with_c(log_k, c):
    k = 2**log_k
    g = build_matmul_graph(k, c=c)
    want = ceil_log2(k * k) and -(-int(np.ceil(c * np.log2(k * k))))
    seqs = [g.meta[v]["seq"] for v in range(g.n) if g.meta[v]["role"] == "output"]
    assert max(seqs) + 1 == max(1, int(np.ceil(c * np.log2(k * k))))


def test_honest_run_matches_bigint_oracle():
    app = make_matmul_app(8, 2, tau=8, rng=stream(0, 3))
    eng = Engine(app.graph, app, make_strategy("honest"), beta=0.0,
                 rngs=TrialRngs.from_seed(0))
    out = eng.run()
    assert out.terminated
    assert out.target_output.tolist() == py_matmul_mod(
        app.instance.a.tolist(), app.instance.b.tolist()
    )


def test_rounds_with_no_adversaries_equal_pipeline_depth():
    app = make_matmul_app(8, 2, tau=4, rng=stream(1, 3))
    eng = Engine(app.graph, app, make_strategy("honest"), beta=0.0,
                 rngs=TrialRngs.from_seed(1))
    out = eng.run()
    assert out.rounds_used == app.graph.span + 1


@pytest.mark.parametrize("strat", sorted(builtin_strategies()))
def test_all_strategies_yield_correct_product(strat):
    for seed in range(3):
        app = make_matmul_app(8, 2, tau=10, rng=stream(seed, 3))
        eng = Engine(
            app.graph,
            app,
            make_strategy(strat),
            beta=0.25,
            rngs=TrialRngs.from_seed(seed),
            check_closure=True,
        )
        out = eng.run()
        assert out.terminated, f"{strat} seed {seed} hit the round cap"
        expect = f_matmul(app.instance.a, app.instance.b)
        assert np.array_equal(out.target_output, expect), f"{strat} seed {seed}"


def test_execute_rejects_corrupted_stripe():
    app = make_matmul_app(8, 2, tau=4, rng=stream(2, 3))
    g = app.graph
    # second node of an input chain: feed it a perturbed stripe
    v = next(
        v for v in range(g.n)
        if g.meta[v]["role"] == "input" and g.meta[v]["seq"] == 1
    )
    honest = app.source_payload(g.preds[v][0])
    bad = honest.copy()
    bad[0, 0] = (int(bad[0, 0]) + 1) % P
    from supsim.metrics import Metrics

    report, outs = app.execute(v, [bad], SupervisorState(), stream(0, 1), Metrics())
    assert isinstance(report, Reject)
    assert report.tasks == frozenset(g.preds[v])
    report2, _ = app.execute(v, [honest], SupervisorState(), stream(0, 1),
                             Metrics())
    assert not isinstance(report2, Reject)


def test_supervisor_checks_output_digest_shape():
    app = make_matmul_app(8, 2, tau=4, rng=stream(3, 3))
    g = app.graph
    sup = SupervisorState()
    v_out = next(v for v in range(g.n) if g.meta[v]["role"] == "output")
    v_in = next(v for v in range(g.n) if g.meta[v]["role"] == "input")
    assert app.supervisor_on_done(v_out, b"x" * 16, sup)
    assert sup.digests[v_out] == b"x" * 16
    assert not app.supervisor_on_done(v_out, b"short", sup)
    assert not app.supervisor_on_done(v_out, None, sup)
    assert app.supervisor_on_done(v_in, None, sup)
    assert not app.supervisor_on_done(v_in, b"x" * 16, sup)


def test_payload_units_count_field_elements():
    app = make_matmul_app(8, 2, tau=4, rng=stream(4, 3))
    stripe = app.source_payload(app.graph.initial_tasks[0])
    assert app.payload_size(stripe) == 4 * 8
    triple = (stripe, stripe.T.copy(), np.zeros((4, 4), dtype=np.uint64))
    assert app.payload_size(triple) == 32 + 32 + 16


def test_make_matmul_app_is_seed_deterministic():
    a1 = make_matmul_app(8, 2, tau=4, rng=stream(9, 3))
    a2 = make_matmul_app(8, 2, tau=4, rng=stream(9, 3))
    assert np.array_equal(a1.instance.a, a2.instance.a)
    assert np.array_equal(a1.instance.b, a2.instance.b)
    a3 = make_matmul_app(8, 2, tau=4, rng=stream(10, 3))
    assert not np.array_equal(a3.instance.a, a1.instance.a)
