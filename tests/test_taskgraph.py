import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supsim.harness import ExperimentConfig, run_experiment
from supsim.matmul import build_matmul_graph
from supsim.mergesort import build_mergesort_graph
from supsim.taskgraph import (
    GraphBuilder,
    NotADagError,
    TaskKind,
    assert_leveled,
    build_path,
    ceil_log2,
    list_length,
    random_leveled_dag,
)

from _oracles import longest_path_levels


def test_ceil_log2_small_values():
    assert [ceil_log2(v) for v in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_list_length_is_ceil_c_log2_n():
    assert [list_length(n, 1.0) for n in (2, 4, 16, 64)] == [1, 2, 4, 6]
    assert [list_length(n, c) for n, c in ((16, 0.5), (16, 1.1), (4, 2.0))] == [2, 5, 4]
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="c must be positive"):
            list_length(4, c)


def _diamond():
    b = GraphBuilder()
    a = b.add_task(TaskKind.GENERIC, level=0)
    x = b.add_task(TaskKind.GENERIC, level=1)
    y = b.add_task(TaskKind.GENERIC, level=1)
    d = b.add_task(TaskKind.GENERIC, level=2)
    for src, dst in ((a, x), (a, y), (x, d), (y, d)):
        b.add_edge(src, dst)
    return b.freeze()


def test_build_path_shape():
    g = build_path(5)
    assert g.n == 5
    assert g.path_order == (0, 1, 2, 3, 4)
    assert g.span == 4
    assert g.initial_tasks == (0,)
    assert g.final_tasks == (4,)
    assert g.preds[3] == (2,)
    assert g.succs[3] == (4,)
    assert all(k is TaskKind.PATH_COMPUTE for k in g.kinds)


def test_path_order_is_the_chain_or_none():
    assert build_path(1).path_order == (0,)
    assert build_path(6).path_order == tuple(range(6))
    # a width-1 leveled DAG is a path too, and runs in path mode
    one_wide = random_leveled_dag(1, 4, np.random.default_rng(0))
    assert one_wide.path_order == tuple(range(5))
    for g in (_diamond(), build_matmul_graph(2, 1.0),
              build_mergesort_graph(4, 32, 1.0)):
        assert g.path_order is None


def test_builders_share_one_graph_per_argument_tuple():
    assert build_path(7) is build_path(7)
    assert build_path(7) is not build_path(8)
    assert build_matmul_graph(2, 1.0) is build_matmul_graph(2, 1.0)
    assert build_matmul_graph(2, 1.0) is not build_matmul_graph(4, 1.0)
    assert build_matmul_graph(2, 1.0) is not build_matmul_graph(2, 2.0)
    ms = build_mergesort_graph(4, 32, 1.0)
    assert ms is build_mergesort_graph(4, 32, 1.0)
    for other in ((2, 32, 1.0), (4, 64, 1.0), (4, 32, 2.0)):
        assert ms is not build_mergesort_graph(*other)
    # drawn from the trial's rng, so never shared
    assert (random_leveled_dag(3, 4, np.random.default_rng(0))
            is not random_leveled_dag(3, 4, np.random.default_rng(0)))


def test_frozen_meta_rejects_writes():
    for g in (build_matmul_graph(2, 1.0), build_mergesort_graph(4, 32, 1.0)):
        for v in (0, g.n - 1):
            with pytest.raises(TypeError, match="mappingproxy"):
                g.meta[v]["role"] = "output"
            with pytest.raises(TypeError, match="mappingproxy"):
                del g.meta[v]["role"]
    # the builder's own dict is copied, so a caller that kept it cannot
    # reach the graph through it either
    b = GraphBuilder()
    kept = {"role": "x"}
    b.add_task(TaskKind.GENERIC, level=0, meta=kept)
    g = b.freeze()
    kept["role"] = "y"
    assert g.meta[0] == {"role": "x"}


@pytest.mark.parametrize("app, size", [
    ("path", dict(n=200)),
    ("dag", dict(n=6, m=4)),
    ("matmul", dict(n=4, m=16)),
    ("mergesort", dict(n=4, m=64)),
])
def test_cold_and_warm_graph_caches_give_identical_rows(app, size):
    cfg = ExperimentConfig(app=app, beta=0.1, strategy="random_mix",
                           seeds=(0, 1, 2), **size)
    builders = (build_path, build_matmul_graph, build_mergesort_graph)
    for build in builders:
        build.cache_clear()
    cold = run_experiment(cfg).trials
    hits = sum(build.cache_info().hits for build in builders)
    warm = run_experiment(cfg).trials
    assert warm == cold
    if app != "dag":
        assert sum(build.cache_info().hits for build in builders) > hits


def test_builder_rejects_cycles():
    b = GraphBuilder()
    x = b.add_task(TaskKind.GENERIC, level=0)
    y = b.add_task(TaskKind.GENERIC, level=1)
    b.add_edge(x, y)
    b.add_edge(y, x)
    with pytest.raises(NotADagError):
        b.freeze()


def test_builder_rejects_duplicate_edge():
    b = GraphBuilder()
    x = b.add_task(TaskKind.GENERIC, level=0)
    y = b.add_task(TaskKind.GENERIC, level=1)
    b.add_edge(x, y)
    with pytest.raises(ValueError):
        b.add_edge(x, y)


def test_builder_rejects_self_edge():
    b = GraphBuilder()
    x = b.add_task(TaskKind.GENERIC, level=0)
    with pytest.raises(ValueError):
        b.add_edge(x, x)


@pytest.mark.parametrize("gap", [0, 2, -1])
def test_freeze_rejects_edges_that_do_not_climb_one_level(gap):
    b = GraphBuilder()
    x = b.add_task(TaskKind.GENERIC, level=1)
    y = b.add_task(TaskKind.GENERIC, level=1 + gap)
    b.add_edge(x, y)
    with pytest.raises(NotADagError):
        b.freeze()


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_random_leveled_dag_properties(seed, width, depth):
    rng = np.random.default_rng(seed)
    g = random_leveled_dag(width, depth, rng)
    assert_leveled(g)
    assert g.span == depth
    assert g.n == width * (depth + 1)
    assert g.max_degree <= 2
    # every non-initial task has a predecessor on the previous level
    for v in range(g.n):
        if g.levels[v] > 0:
            assert g.preds[v]
            assert all(g.levels[p] == g.levels[v] - 1 for p in g.preds[v])


def test_levels_match_longest_path_oracle():
    """Every builder puts each task on its longest-path level, so the top
    level is the span D."""
    graphs = [
        build_path(7),
        _diamond(),
        build_matmul_graph(4, c=1.5),
        build_mergesort_graph(8, 64, c=1.0),
    ] + [
        random_leveled_dag(width, depth, np.random.default_rng(seed))
        for seed, (width, depth) in enumerate(((1, 5), (3, 9), (8, 20)))
    ]
    for g in graphs:
        oracle = longest_path_levels({v: g.preds[v] for v in range(g.n)})
        assert list(g.levels) == [oracle[v] for v in range(g.n)]


def test_json_dump_format():
    g = build_path(3)
    doc = json.loads(g.to_json())
    assert set(doc) == {"tasks", "edges"}
    assert doc["tasks"] == [
        [0, "PathCompute", 0],
        [1, "PathCompute", 1],
        [2, "PathCompute", 2],
    ]
    assert doc["edges"] == [[0, 1], [1, 2]]
