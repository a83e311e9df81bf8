"""Leveled task DAGs and the builders of the graphs supsim runs.

A task graph is immutable after construction: its fields are tuples and
`GraphBuilder.freeze` wraps every task's metadata in a read-only mapping,
so nothing that is handed a graph (an adversary strategy included) can
write into it.  Task ids are dense integers 0..n-1 so that engine state
can live in flat arrays.  Every builder places each task on a level as it
adds it, and `freeze` accepts a graph only if every edge climbs exactly
one level.  That one check also rules out cycles, since levels rise along
every path.

A graph depends only on its builder's arguments, never on a trial's seed,
so `build_path` (and the app graph builders) return one shared graph per
argument tuple, built once per process.  `random_leveled_dag` draws from
the trial's rng and builds a fresh graph on every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from math import ceil, log2
from types import MappingProxyType

import numpy as np


class NotADagError(ValueError):
    """The graph is not leveled: a self-loop, or an edge that does not
    climb exactly one level (which every cycle has)."""


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


def list_length(n: int, c: float) -> int:
    """⌈c·log₂ n⌉: the length of each relay list in a graph of n blocks."""
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    return ceil(c * log2(n))


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


# How many graphs each cached builder keeps.  A batch uses one argument
# tuple, so a few entries cover a process that runs several batches while
# bounding what a long test session holds.
_GRAPH_CACHE_SIZE = 8


@dataclass(frozen=True)
class TaskGraph:
    kinds: tuple[TaskKind, ...]
    levels: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    meta: tuple[MappingProxyType | None, ...]
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

    @cached_property
    def path_order(self) -> tuple[int, ...] | None:
        """The tasks from the initial one to the final one if the graph is
        a directed path, else None.  Computed once per graph."""
        if len(self.initial_tasks) != 1 or len(self.final_tasks) != 1:
            return None
        if any(len(p) > 1 for p in self.preds) or any(len(s) > 1 for s in self.succs):
            return None
        order = [self.initial_tasks[0]]
        while self.succs[order[-1]]:
            order.append(self.succs[order[-1]][0])
        return tuple(order)

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

    def add_task(self, kind: TaskKind, level: int, meta: dict | None = None) -> int:
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

    def freeze(self) -> TaskGraph:
        initial = tuple(v for v in range(len(self.kinds)) if not self.preds[v])
        final = tuple(v for v in range(len(self.kinds)) if not self.succs[v])
        g = TaskGraph(
            kinds=tuple(self.kinds),
            levels=tuple(self.levels),
            preds=tuple(tuple(p) for p in self.preds),
            succs=tuple(tuple(s) for s in self.succs),
            meta=tuple(None if m is None else MappingProxyType(dict(m))
                       for m in self.meta),
            initial_tasks=initial,
            final_tasks=final,
        )
        assert_leveled(g)
        return g


def assert_leveled(g: TaskGraph) -> None:
    """Raise unless every edge climbs exactly one level, which also rules
    out cycles."""
    for v, w in g.edges():
        if g.levels[w] != g.levels[v] + 1:
            raise NotADagError(
                f"edge ({v},{w}) spans levels {g.levels[v]}->{g.levels[w]}"
            )


def _validate_path(n: int) -> None:
    if n < 1:
        raise ValueError(f"path needs at least one task, got n={n}")


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def build_path(n: int) -> TaskGraph:
    """Directed path v_0 -> ... -> v_{n-1} of PathCompute tasks; one shared
    graph per n."""
    _validate_path(n)
    b = GraphBuilder()
    for i in range(n):
        b.add_task(TaskKind.PATH_COMPUTE, level=i)
    for i in range(n - 1):
        b.add_edge(i, i + 1)
    return b.freeze()


def _validate_dag(width: int, depth: int) -> None:
    if width < 1 or depth < 0:
        raise ValueError(
            f"need width >= 1 and depth >= 0, got width={width}, depth={depth}")


def random_leveled_dag(
    width: int,
    depth: int,
    rng: np.random.Generator,
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
        # Sprinkle extra edges, each tried with probability 1/2, without
        # breaching the degree-2 budget.
        for i in range(width):
            if rng.random() >= 0.5:
                continue
            if len(b.succs[lo[i]]) >= 2:
                continue
            j = int(rng.integers(width))
            if len(b.preds[hi[j]]) >= 2 or hi[j] in b.succs[lo[i]]:
                continue
            b.add_edge(lo[i], hi[j])
    return b.freeze()
