"""Supervisor engine: synchronous rounds, finished-set bookkeeping,
report handling, rollbacks, and termination.

The supervisor is data-agnostic: everything it stores (`SupervisorState`)
is ids, counts, and digests.  Payloads move only between the simulated
workers, source, and target, which live on the application object.

Two scheduling policies share the engine.  Path mode drives a single
execution pointer down a directed path with the rollback rule (a REJECT
moves the pointer back one task; the worker two tasks back re-delivers,
and may re-corrupt, which is then handled as a fresh REJECT).  DAG mode
schedules the whole wavefront each round and prunes the finished set on
REJECT reports.  A path-shaped graph always runs in path mode.

Both modes hand a final task's output to the target through one path,
`Engine._deliver`: the emission, the target's verification, collection,
and the finished-set entry.  So a final task is finished exactly while
the target holds its output, and removing it from the finished set drops
that output too.  The modes differ in what follows a rejected delivery:
path mode re-runs the last task with a fresh worker, while DAG mode just
leaves the final task unfinished ("missing reply"), so it is re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .metrics import Metrics, NullMetrics
from .rngs import TrialRngs
from .taskgraph import TaskGraph, ceil_log2

TARGET = -1
SOURCE = -2

_NULL_METRICS = NullMetrics()


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True, slots=True)
class Done:
    """The worker claims its task is ready; aux carries the declaration the
    supervisor is entitled to see (outgoing counts, or an output digest)."""

    aux: Any = None


@dataclass(frozen=True, slots=True)
class Reject:
    """The worker rejects the outputs of the named predecessor tasks."""

    tasks: frozenset[int]

    def __init__(self, tasks) -> None:
        object.__setattr__(self, "tasks", frozenset(tasks))


class _Silent:
    __slots__ = ()

    def __repr__(self) -> str:
        return "Silent"


Silent = _Silent()
Report = Done | Reject | _Silent


def read_only(arr: np.ndarray) -> np.ndarray:
    """A copy of a payload backed by an immutable `bytes` buffer, made where
    the payload is made.  numpy refuses to make such an array, or any view
    of it, writeable again, so no worker that is handed it can write into
    the data its maker still reads."""
    return np.frombuffer(arr.tobytes(), arr.dtype).reshape(arr.shape)


@dataclass
class SupervisorState:
    """Everything the supervisor knows.  No payload data, ever."""

    f: set[int] = field(default_factory=set)
    expected_counts: dict[tuple[int, int], int] = field(default_factory=dict)
    digests: dict[int, bytes] = field(default_factory=dict)
    round: int = 0


@dataclass
class RunOutcome:
    terminated: bool
    metrics: Metrics
    target_output: Any


# ---------------------------------------------------------------------------
# Worker sampling (buffered Bernoulli honesty draws)


def check_beta(beta: float) -> None:
    """The adversarial fraction of the worker pool must lie in [0, 1)."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0,1), got {beta}")


class WorkerSampler:
    """Black-box worker pool.

    Each draw hands out a fresh worker, never one seen before, and says
    whether it is honest: it is adversarial with probability beta, decided
    at sampling time and fixed for that worker's lifetime.  Draws are
    buffered in blocks so the per-round cost is one array index.
    """

    def __init__(self, beta: float, rng: np.random.Generator) -> None:
        check_beta(beta)
        self.beta = beta
        self.rng = rng
        self._buf = np.empty(0)
        self._pos = 0

    def draw(self) -> bool:
        if self._pos >= self._buf.shape[0]:
            self._buf = self.rng.random(4096)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return bool(u >= self.beta)


class AdversaryView:
    """What the single adversarial entity can see: the full past and
    present (graph, assignments, finished set, payloads its workers have
    handled, round number) but no private keys and no future randomness."""

    def __init__(self, app, sup: SupervisorState) -> None:
        # holds what it shows, not the engine, so an engine is freed by
        # reference counting as soon as its trial drops it
        self._app = app
        self._sup = sup

    @property
    def graph(self) -> TaskGraph:
        return self._app.graph

    @property
    def app(self):
        return self._app

    @property
    def round(self) -> int:
        return self._sup.round

    @property
    def finished(self) -> frozenset[int]:
        return frozenset(self._sup.f)


# ---------------------------------------------------------------------------
# Engine


class Engine:
    """One trial: an application with its task graph, a strategy, and four
    rngs."""

    def __init__(
        self,
        app,
        strategy,
        beta: float,
        rngs: TrialRngs,
        round_cap: int | None = None,
        target_always_rejects: bool = False,
        trace_sink: Callable[[dict], None] | None = None,
    ) -> None:
        graph = app.graph
        if round_cap is None:
            round_cap = 64 * (graph.span + ceil_log2(graph.n) + 1)
        elif round_cap < 1:
            raise ValueError(f"round cap must be >= 1, got {round_cap}")
        self.graph = graph
        self.app = app
        self.strategy = strategy
        self.rngs = rngs
        self.round_cap = round_cap
        self.target_always_rejects = target_always_rejects
        self.trace_sink = trace_sink

        n = graph.n
        self.sup = SupervisorState()
        self.metrics = Metrics()
        self.sampler = WorkerSampler(beta, rngs.supervisor)
        strategy.bind(rngs.adversary)
        # per task, how many predecessors are not in sup.f
        self._missing = [len(p) for p in graph.preds]
        self.worker_honest: list[bool] = [True] * n
        self._outputs: list[Any] = [None] * n
        self.view = AdversaryView(app, self.sup)
        self.terminated = False

        self._order = graph.path_order
        if self._order is not None:
            self._ptr = 0
            self._delivering = False

    # -- sampling ----------------------------------------------------------

    def _sample_worker(self, task: int) -> bool:
        honest = self.sampler.draw()
        self.worker_honest[task] = honest
        return honest

    # -- payload movement (worker/source/target sides) ----------------------

    def _emission(self, src: int, dst: int):
        """What dst actually receives from the worker last assigned to src."""
        base = self._outputs[src]
        payload = base.get(dst) if isinstance(base, dict) else base
        if self.worker_honest[src]:
            return payload
        return self.strategy.emit(self.view, src, payload, dst)

    def _gather(self, v: int):
        preds = self.graph.preds[v]
        m = self.metrics
        if not preds:
            payload = self.app.source_payload(v)
            m.source_sends += 1
            m.charge_comm("source", self.app.payload_size(payload))
            return [payload]
        inputs = []
        for p in preds:
            payload = self._emission(p, v)
            if payload is not None:
                m.charge_comm("worker", self.app.payload_size(payload))
            inputs.append(payload)
        return inputs

    def _deliver(self, v: int) -> bool:
        """Hand final task v's output to the target.  True if the target
        accepted and collected it, which finishes v."""
        payload = self._emission(v, TARGET)
        if payload is None:
            return False
        m = self.metrics
        m.target_receives += 1
        m.charge_comm("target", self.app.payload_size(payload))
        if self.target_always_rejects or not self.app.target_verify(
            v, payload, self.sup, m
        ):
            return False
        self.app.target_collect(v, payload, m)
        self._f_add(v)
        return True

    # -- finished-set maintenance -------------------------------------------
    # The rules only ever add unfinished tasks and remove finished ones, so
    # `sup.f.remove` raises on a broken rule instead of passing silently.

    def _f_add(self, v: int) -> None:
        self.sup.f.add(v)
        for w in self.graph.succs[v]:
            self._missing[w] -= 1

    def _f_remove(self, v: int) -> None:
        self.sup.f.remove(v)
        self.sup.digests.pop(v, None)
        succs = self.graph.succs[v]
        for w in succs:
            self._missing[w] += 1
        if not succs:  # a finished final task is one the target collected
            self.app.target_drop(v)

    def _prune(self, seeds: set[int]) -> None:
        """Unfinish every finished seed together with every finished task
        reachable from one, which restores ancestor closure in one sweep."""
        f = self.sup.f
        doomed: set[int] = set()
        stack = [w for w in seeds if w in f]
        while stack:
            u = stack.pop()
            if u in doomed:
                continue
            doomed.add(u)
            stack.extend(
                x for x in self.graph.succs[u] if x in f and x not in doomed
            )
        for u in doomed:
            self._f_remove(u)

    # -- one task attempt -----------------------------------------------------

    def _attempt(self, v: int) -> Report:
        honest = self._sample_worker(v)
        inputs = self._gather(v)
        self.metrics.supervisor_msgs += 2 + self.app.hint_units(v)
        if honest:
            report, outs = self.app.execute(
                v, inputs, self.sup, self.rngs.honest, self.metrics
            )
            if isinstance(report, Done):
                self._outputs[v] = outs
            return report
        shadow_report, shadow_outs = self.app.execute(
            v, inputs, self.sup, self.rngs.adversary, _NULL_METRICS
        )
        self._outputs[v] = shadow_outs
        return self.strategy.report(self.view, v, shadow_report)

    def _accept_done(self, v: int, report: Done) -> bool:
        """Supervisor-side screening of a Done report (aux only)."""
        self.metrics.supervisor_msgs += _aux_units(report.aux)
        return bool(self.app.supervisor_on_done(v, report.aux, self.sup))

    # -- DAG mode -------------------------------------------------------------

    def _step_dag(self) -> dict:
        g = self.graph
        f = self.sup.f
        wf = [v for v, k in enumerate(self._missing) if k == 0 and v not in f]
        reports = [(v, self._attempt(v)) for v in wf]

        rejects: list[tuple[int, Reject]] = []
        for v, report in reports:
            if isinstance(report, Done):
                if not self._accept_done(v, report):
                    continue
                if g.succs[v]:
                    self._f_add(v)
                else:
                    # a rejected delivery is a missing reply: v stays unfinished
                    self._deliver(v)
            elif isinstance(report, Reject):
                rejects.append((v, report))

        seeds: set[int] = set()
        for v, report in rejects:
            # a Reject naming a non-predecessor is treated as Silent
            if report.tasks <= set(g.preds[v]):
                seeds |= report.tasks
        if seeds:
            self._prune(seeds)

        if len(self.sup.f) == g.n:
            demoted = self.app.target_finalize(self.sup)
            if demoted:
                for v in demoted:
                    self._f_remove(v)
            else:
                self.terminated = True

        if self.trace_sink is None:
            return None
        return {
            "round": self.sup.round,
            "scheduled": wf,
            "reports": [_report_kind(r) for _, r in reports],
            "f_size": len(self.sup.f),
        }

    # -- path mode --------------------------------------------------------------

    def _step_path(self) -> dict:
        order = self._order
        n = len(order)
        if self._delivering:
            # a rejected delivery re-runs the last task (the pointer is
            # still there) with a fresh worker
            if self._deliver(order[-1]):
                self.terminated = True
            else:
                self._delivering = False
            if self.trace_sink is None:
                return None
            return {
                "round": self.sup.round,
                "scheduled": [],
                "reports": ["Delivery"],
                "f_size": len(self.sup.f),
            }

        pos = self._ptr
        v = order[pos]
        report = self._attempt(v)
        if isinstance(report, Done) and self._accept_done(v, report):
            if pos == n - 1:
                self._delivering = True
            else:
                self._f_add(v)
                self._ptr = pos + 1
        elif isinstance(report, Reject):
            allowed = set(self.graph.preds[v])
            if report.tasks <= allowed:
                # re-run position pos-1 with a fresh worker, re-fed by the
                # worker at pos-2; at the first position the source re-sends
                if pos > 0:
                    self._f_remove(order[pos - 1])
                self._ptr = max(pos - 1, 0)
            # invalid Reject: treated as Silent, pointer stays
        if self.trace_sink is None:
            return None
        return {
            "round": self.sup.round,
            "scheduled": [v],
            "reports": [_report_kind(report)],
            "f_size": len(self.sup.f),
        }

    # -- driving ------------------------------------------------------------------

    def step_round(self) -> dict:
        if self.terminated:
            raise RuntimeError("computation already terminated")
        trace = self._step_dag() if self._order is None else self._step_path()
        self.sup.round += 1
        self.metrics.rounds = self.sup.round
        if self.trace_sink is not None:
            self.trace_sink(trace)
        return trace

    def run(self) -> RunOutcome:
        while not self.terminated and self.sup.round < self.round_cap:
            self.step_round()
        return RunOutcome(
            terminated=self.terminated,
            metrics=self.metrics,
            target_output=self.app.result() if self.terminated else None,
        )


def _report_kind(r: Report) -> str:
    if isinstance(r, Done):
        return "Done"
    if isinstance(r, Reject):
        return "Reject"
    return "Silent"


def _aux_units(aux: Any) -> int:
    if aux is None:
        return 0
    if isinstance(aux, (tuple, list)):
        return len(aux)
    return 1


_DONE_PLAIN = Done(None)


# ---------------------------------------------------------------------------
# Synthetic application: payloads are (origin, valid) flags.
#
# Verification is assumed perfect here (a corrupted payload is simply
# flagged invalid), which isolates the scheduling behavior from any real
# verification kernel.  Used for the path protocol and for generic DAGs.


class FlagApp:
    """Flag-payload application for path and generic-DAG protocol runs."""

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        self._accepted: dict[int, bool] = {}

    def source_payload(self, task: int):
        return (SOURCE, True)

    def payload_size(self, payload) -> int:
        return 1

    def hint_units(self, task: int) -> int:
        return 0

    def execute(self, task, inputs, sup, rng, metrics):
        preds = self.graph.preds[task]
        if preds:
            offenders = [
                p
                for p, payload in zip(preds, inputs)
                if payload is None or payload != (p, True)
            ]
            if offenders:
                return Reject(offenders), None
        metrics.charge_comp("worker", 1)
        return _DONE_PLAIN, (task, True)

    def supervisor_on_done(self, task, aux, sup: SupervisorState) -> bool:
        return True

    def target_verify(self, task, payload, sup: SupervisorState, metrics: Metrics) -> bool:
        return payload == (task, True)

    def target_collect(self, task, payload, metrics: Metrics) -> None:
        self._accepted[task] = True

    def target_drop(self, task) -> None:
        self._accepted.pop(task, None)

    def target_finalize(self, sup: SupervisorState) -> set[int]:
        return set()

    def result(self):
        return dict(self._accepted)

    # adversary-facing helpers (no key material behind these)

    def corrupt_payload(self, payload, rng):
        origin = payload[0] if payload is not None else TARGET
        return (origin, False)

    def forge_payload(self, task, rng):
        return (task, False)

    def forge_aux(self, task, rng):
        return None
