"""Spans around the calls into supsim's layers, recorded from outside.

The package is not edited.  Its modules import kernels by name (both
`harness` and `matmul` do `from .verify import f_matmul`), so a wrapper
replaces the name where its caller looks it up: the harness's oracle
product and the workers' block products are distinct targets and are
timed apart.  Methods are replaced on the class.

A span is (name, start, end, parent span, trial id, work).  Spans stay in
memory in flat arrays and are written out once, when the run ends.  A
span's self time is its duration minus the durations of its direct
children, computed after the run.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from supsim import adversary, harness, matmul, mergesort, protocol

# task role -> span name suffix for the `execute` spans of each app
_MATMUL_ROLES = {"input": "relay", "tree": "relay", "multiply": "multiply",
                 "output": "output"}
_MERGESORT_ROLES = {"sort": "sort", "split0": "split", "merge": "merge",
                    "final": "final"}
_APP_HOOKS = ("source_payload", "supervisor_on_done", "target_collect",
              "target_finalize", "result")


def _madds(args, out) -> float:
    a, b = args[0], args[1]
    return float(a.shape[0] * a.shape[1] * b.shape[1])


def _first_len(args, out) -> float:
    return float(len(args[0]))


def _role(table: dict, prefix: str):
    def resolve(args) -> str:
        app, task = args[0], args[1]
        return f"{prefix}.{table[app.graph.meta[task]['role']]}"
    return resolve


def targets() -> list[tuple]:
    """(owner, attribute, span name or resolver, work counter or None).

    The list names every wrapper a traced run installs; an untraced run
    installs none of them.
    """
    out = [
        (harness, "run_trial", "harness.run_trial", None),
        (harness, "f_matmul", "harness.oracle", None),
        (harness, "build_path", "taskgraph.build", None),
        (harness, "random_leveled_dag", "taskgraph.build", None),
        (harness, "make_matmul_app", "matmul.instance", None),
        (harness, "make_mergesort_app", "mergesort.instance", None),
        (matmul, "build_matmul_graph", "taskgraph.build", None),
        (mergesort, "build_mergesort_graph", "taskgraph.build", None),
        (protocol.Engine, "run", "protocol.run", None),
        (matmul, "f_matmul", "verify.f_matmul", _madds),
        (matmul, "freivalds", "verify.freivalds", None),
        (matmul, "serialize_matrix", "verify.digest", None),
        (matmul, "digest", "verify.digest", _first_len),
        (mergesort, "verify_items", "verify.verify_items", _first_len),
        (mergesort, "sign_items", "verify.sign_items", None),
        (matmul.MatmulApp, "execute", _role(_MATMUL_ROLES, "matmul.execute"), None),
        (matmul.MatmulApp, "target_verify", "matmul.target_verify", None),
        (mergesort.MergesortApp, "execute",
         _role(_MERGESORT_ROLES, "mergesort.execute"), None),
        (mergesort.MergesortApp, "target_verify", "mergesort.target", None),
        (protocol.FlagApp, "execute", "protocol.flagapp.execute", None),
        (protocol.FlagApp, "target_verify", "protocol.flagapp", None),
    ]
    for hook in _APP_HOOKS:
        out.append((protocol.FlagApp, hook, "protocol.flagapp", None))
        out.append((matmul.MatmulApp, hook, "matmul.hooks", None))
        target_side = hook in ("target_collect", "target_finalize", "result")
        out.append((mergesort.MergesortApp, hook,
                    "mergesort.target" if target_side else "mergesort.hooks", None))
    for cls in adversary.builtin_strategies().values():
        for hook in ("report", "emit"):
            if hook in vars(cls):
                out.append((cls, hook, "adversary", None))
    return out


def current(owner, attr):
    """The object a caller finds under `attr` right now."""
    return vars(owner)[attr]


class Tracer:
    """Installs the wrappers of `targets()` and records their spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.trial = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, label, count):
        names, parents, trials = self.name, self.parent, self.trial_of
        starts, ends, works, stack = self.start, self.end, self.work, self._stack
        perf = time.perf_counter
        fixed = None if callable(label) else self._id(label)
        resolve = label if callable(label) else None
        ident = self._id

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(fixed if resolve is None else ident(resolve(args)))
            parents.append(stack[-1] if stack else -1)
            trials.append(self.trial)
            works.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                stack.pop()
            if count is not None:
                works[sid] = count(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, label, count in targets():
            orig = current(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, label, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trial": np.frombuffer(self.trial_of, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)


class SpanTable:
    """Per-name sums over a tracer's spans, for the metric formulas."""

    def __init__(self, tracer: Tracer) -> None:
        cols = tracer.columns()
        self.names = tracer.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.trial = cols["trial"]
        self.dur = cols["end"] - cols["start"]
        self.work = cols["work"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.shape[0])
        self.self_time = self.dur - child
        parent_name = np.full(self.name.shape, -1, dtype=np.int32)
        parent_name[has_parent] = self.name[self.parent[has_parent]]
        self.parent_name = parent_name

    def mask(self, *names: str, outer: bool = False):
        """Spans with one of `names`; `outer` keeps only those whose parent
        has none of them."""
        ids = [self.names.index(n) for n in names if n in self.names]
        sel = np.isin(self.name, ids)
        if outer:
            sel &= ~np.isin(self.parent_name, ids)
        return sel

    def prefix_mask(self, prefix: str, **kw):
        return self.mask(*(n for n in self.names if n.startswith(prefix)), **kw)

    def total(self, sel) -> float:
        return float(self.dur[sel].sum())

    def self_total(self, sel) -> float:
        return float(self.self_time[sel].sum())
