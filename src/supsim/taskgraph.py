"""Task DAGs, leveling, and the structural transforms applied before a run.

A task graph is immutable after construction.  Task ids are dense integers
0..n-1 so that engine state can live in flat arrays.  Levels follow the
longest-path-from-sources labeling: the smallest labeling in which every
edge goes up by at least one level, which is the only choice that keeps
critical-path nodes on adjacent levels after the path-replacement
transform.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from math import ceil, log2

import numpy as np


class NotADagError(ValueError):
    """The input graph contains a directed cycle."""


class TaskKind(str, Enum):
    SORT_PARTIAL = "SortPartial"
    FORWARD_INPUT = "ForwardInput"
    TREE_BROADCAST = "TreeBroadcast"
    MULTIPLY = "Multiply"
    FORWARD_OUTPUT = "ForwardOutput"
    MERGE_SPLIT = "MergeSplit"
    LAYER0_SPLIT = "Layer0Split"
    PATH_COMPUTE = "PathCompute"
    GENERIC = "Generic"


def ceil_log2(n: int) -> int:
    """⌈log₂ n⌉ with the convention ⌈log₂ 1⌉ = 0."""
    if n < 1:
        raise ValueError(f"positive size required, got {n}")
    return int(ceil(log2(n))) if n > 1 else 0


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class TaskGraph:
    kinds: tuple[TaskKind, ...]
    levels: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    meta: tuple[dict | None, ...]
    initial_tasks: tuple[int, ...]
    final_tasks: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.kinds)

    @property
    def span(self) -> int:
        """D: the longest directed path length (max level under leveling)."""
        return max(self.levels) if self.levels else 0

    @property
    def max_degree(self) -> int:
        ins = max((len(p) for p in self.preds), default=0)
        outs = max((len(s) for s in self.succs), default=0)
        return max(ins, outs)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, w) for v in range(self.n) for w in self.succs[v]]

    def is_path(self) -> bool:
        return all(len(p) <= 1 for p in self.preds) and all(
            len(s) <= 1 for s in self.succs
        ) and len(self.initial_tasks) == 1 and len(self.final_tasks) == 1

    def to_json_dict(self) -> dict:
        return {
            "tasks": [
                [v, self.kinds[v].value, self.levels[v]] for v in range(self.n)
            ],
            "edges": [[v, w] for v, w in self.edges()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


@dataclass
class GraphBuilder:
    """Mutable accumulator used by the graph constructors."""

    kinds: list[TaskKind] = field(default_factory=list)
    levels: list[int] = field(default_factory=list)
    preds: list[list[int]] = field(default_factory=list)
    succs: list[list[int]] = field(default_factory=list)
    meta: list[dict | None] = field(default_factory=list)

    def add_task(self, kind: TaskKind, level: int = -1, meta: dict | None = None) -> int:
        tid = len(self.kinds)
        self.kinds.append(kind)
        self.levels.append(level)
        self.preds.append([])
        self.succs.append([])
        self.meta.append(meta)
        return tid

    def add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            raise NotADagError(f"self-loop at task {src}")
        if dst in self.succs[src]:
            raise ValueError(f"duplicate edge ({src},{dst})")
        self.succs[src].append(dst)
        self.preds[dst].append(src)

    def freeze(self, *, require_leveled: bool = False) -> TaskGraph:
        initial = tuple(v for v in range(len(self.kinds)) if not self.preds[v])
        final = tuple(v for v in range(len(self.kinds)) if not self.succs[v])
        g = TaskGraph(
            kinds=tuple(self.kinds),
            levels=tuple(self.levels),
            preds=tuple(tuple(p) for p in self.preds),
            succs=tuple(tuple(s) for s in self.succs),
            meta=tuple(self.meta),
            initial_tasks=initial,
            final_tasks=final,
        )
        topological_order(g)  # raises NotADagError on cycles
        if require_leveled:
            assert_leveled(g)
        return g


def assert_leveled(g: TaskGraph) -> None:
    """Raise unless every edge connects adjacent levels."""
    for v, w in g.edges():
        if g.levels[w] != g.levels[v] + 1:
            raise NotADagError(
                f"edge ({v},{w}) spans levels {g.levels[v]}->{g.levels[w]}"
            )


def _validate_path(n: int) -> None:
    if n < 1:
        raise ValueError(f"path needs at least one task, got n={n}")


def build_path(n: int) -> TaskGraph:
    """Directed path v_0 -> ... -> v_{n-1} of PathCompute tasks."""
    _validate_path(n)
    b = GraphBuilder()
    for i in range(n):
        b.add_task(TaskKind.PATH_COMPUTE, level=i)
    for i in range(n - 1):
        b.add_edge(i, i + 1)
    return b.freeze(require_leveled=True)


def topological_order(g: TaskGraph) -> list[int]:
    """Kahn order (ascending id among ready tasks); raises on cycles."""
    indeg = [len(p) for p in g.preds]
    ready = sorted(v for v in range(g.n) if indeg[v] == 0)
    order: list[int] = []
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in g.succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != g.n:
        raise NotADagError("cycle detected: no topological order exists")
    return order


def assign_levels(g: TaskGraph) -> TaskGraph:
    """Longest-path-from-sources labeling.

    Every node gets the smallest label consistent with all edges going up
    by at least one level; sources sit at 0 and the maximum label equals
    the span D.
    """
    order = topological_order(g)
    levels = [0] * g.n
    for v in order:
        for w in g.succs[v]:
            if levels[v] + 1 > levels[w]:
                levels[w] = levels[v] + 1
    return TaskGraph(
        kinds=g.kinds,
        levels=tuple(levels),
        preds=g.preds,
        succs=g.succs,
        meta=g.meta,
        initial_tasks=g.initial_tasks,
        final_tasks=g.final_tasks,
    )


def to_leveled(g: TaskGraph) -> TaskGraph:
    """Replace every edge spanning more than one level with a relay path.

    An edge (v,w) with gap ℓ(w)-ℓ(v) = g > 1 becomes a path of g edges
    through g-1 inserted ForwardInput relays whose only job is to verify
    and forward.  Already-adjacent edges (and thus already-leveled graphs)
    are returned unchanged in node and edge counts.  Original task ids are
    preserved; relays get fresh ids at the end.

    Graphs with unassigned levels (the builder default of -1 anywhere)
    are relabeled by longest path first.
    """
    if any(lv < 0 for lv in g.levels):
        g = assign_levels(g)
    b = GraphBuilder(
        kinds=list(g.kinds),
        levels=list(g.levels),
        preds=[[] for _ in range(g.n)],
        succs=[[] for _ in range(g.n)],
        meta=list(g.meta),
    )
    for v, w in g.edges():
        gap = g.levels[w] - g.levels[v]
        if gap < 1:
            raise ValueError(f"edge ({v},{w}) does not increase level; relabel first")
        if gap == 1:
            b.add_edge(v, w)
            continue
        prev = v
        for t in range(1, gap):
            relay = b.add_task(
                TaskKind.FORWARD_INPUT,
                level=g.levels[v] + t,
                meta={"relay_for": (v, w), "seq": t},
            )
            b.add_edge(prev, relay)
            prev = relay
        b.add_edge(prev, w)
    return b.freeze(require_leveled=True)


def extend_with_io_lists(g: TaskGraph, c: int = 2) -> TaskGraph:
    """Build G′: prepend initial lists and append final lists of relays.

    Each original initial node gains a prefix chain of ⌈c·log₂ n⌉
    ForwardInput relays; each original final node gains a suffix chain of
    D + ⌈log₂ n⌉ ForwardOutput relays, where n and D are the size and span
    of the input graph.  Original task ids are preserved.
    """
    if c < 1:
        raise ValueError(f"list-length constant c must be >= 1, got c={c}")
    assert_leveled(g)
    n0, d0 = g.n, g.span
    init_len = ceil_log2(n0) * c
    final_len = d0 + ceil_log2(n0) if n0 > 1 else 0
    if init_len == 0 and final_len == 0:
        return g

    shift = init_len
    b = GraphBuilder(
        kinds=list(g.kinds),
        levels=[lv + shift for lv in g.levels],
        preds=[list(p) for p in g.preds],
        succs=[list(s) for s in g.succs],
        meta=list(g.meta),
    )
    for v in g.initial_tasks:
        prev = -1
        for t in range(init_len):
            relay = b.add_task(
                TaskKind.FORWARD_INPUT,
                level=g.levels[v] + t,
                meta={"io_list": ("initial", v), "seq": t},
            )
            if prev >= 0:
                b.add_edge(prev, relay)
            prev = relay
        if prev >= 0:
            b.add_edge(prev, v)
    for v in g.final_tasks:
        prev = v
        for t in range(final_len):
            relay = b.add_task(
                TaskKind.FORWARD_OUTPUT,
                level=g.levels[v] + shift + 1 + t,
                meta={"io_list": ("final", v), "seq": t},
            )
            b.add_edge(prev, relay)
            prev = relay
    return b.freeze(require_leveled=True)


def _validate_dag(width: int, depth: int) -> None:
    if width < 1 or depth < 0:
        raise ValueError(
            f"need width >= 1 and depth >= 0, got width={width}, depth={depth}")


def random_leveled_dag(
    width: int,
    depth: int,
    rng: np.random.Generator,
    extra_edge_prob: float = 0.5,
) -> TaskGraph:
    """Random leveled DAG with `width` Generic tasks on each of depth+1 levels.

    Adjacent levels are wired with a uniform random bijection, so every
    non-initial task has a predecessor and every non-final task a
    successor; extra parallel edges are then added while keeping all in-
    and out-degrees at most 2.  The result is leveled by construction with
    span exactly `depth`.
    """
    _validate_dag(width, depth)
    b = GraphBuilder()
    rows = [
        [b.add_task(TaskKind.GENERIC, level=lv) for _ in range(width)]
        for lv in range(depth + 1)
    ]
    for lv in range(depth):
        lo, hi = rows[lv], rows[lv + 1]
        perm = rng.permutation(width)
        for i in range(width):
            b.add_edge(lo[i], hi[perm[i]])
        # Sprinkle extra edges without breaching the degree-2 budget.
        for i in range(width):
            if rng.random() >= extra_edge_prob:
                continue
            if len(b.succs[lo[i]]) >= 2:
                continue
            j = int(rng.integers(width))
            if len(b.preds[hi[j]]) >= 2 or hi[j] in b.succs[lo[i]]:
                continue
            b.add_edge(lo[i], hi[j])
    return b.freeze(require_leveled=True)
