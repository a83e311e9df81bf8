"""Adversarial worker behaviors.

One entity controls every adversarial worker.  The engine gives it two
hooks per controlled worker: `report` (what to tell the supervisor) and
`emit` (what to actually hand each consumer, re-decided at consumption
time, so a re-delivery after a rollback can be re-corrupted).  Hooks are
never invoked for honest workers.

Strategies see an AdversaryView: full past and present, no private keys,
no future randomness.  They fabricate payloads only through the
application's corrupt/forge/truncate helpers, which never expose key
material.
"""

from __future__ import annotations

import numpy as np

from .protocol import (
    TARGET,
    AdversaryView,
    Done,
    Reject,
    Report,
    Silent,
    WorkerSampler,
    check_beta,
)
from .taskgraph import TaskKind

__all__ = [
    "AdversaryView",
    "WorkerSampler",
    "Strategy",
    "AlwaysReject",
    "SilentWorkers",
    "CorruptOutput",
    "HonestUntilEnd",
    "CountCheat",
    "WrongProduct",
    "RandomMix",
    "ForgeEverything",
    "builtin_strategies",
    "make_strategy",
    "expected_resamples",
]


def expected_resamples(beta: float) -> float:
    """Expected draws until an honest worker holds a task: 1 / (1 - beta)."""
    check_beta(beta)
    return 1.0 / (1.0 - beta)


class Strategy:
    """Base behavior: act exactly like an honest worker.

    `bind` is called once per trial with the adversary's rng; it also
    clears the cross-worker memory, so one instance can be reused across
    trials without leakage.
    """

    name = "honest"

    def __init__(self) -> None:
        self.rng: np.random.Generator | None = None
        self.memory: dict = {}

    def bind(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.memory = {}

    def report(self, view: AdversaryView, task: int, honest_report: Report) -> Report:
        return honest_report

    def emit(self, view: AdversaryView, task: int, true_output, destination: int):
        return true_output


class AlwaysReject(Strategy):
    """Reject every predecessor, every time; an initial task rejects
    nothing (there is nothing upstream to blame) but still refuses to
    finish, which forces the source to re-send."""

    name = "always_reject"

    def report(self, view, task, honest_report):
        return Reject(view.graph.preds[task])


class SilentWorkers(Strategy):
    """Never answer the supervisor, never pass anything on."""

    name = "silent"

    def report(self, view, task, honest_report):
        return Silent

    def emit(self, view, task, true_payload, destination):
        return None


class CorruptOutput(Strategy):
    """Report exactly what an honest worker would (including its aux
    declaration) but corrupt every payload on the way out.  Keeping the
    aux honest means the damage is carried purely by the data, where
    downstream verification has to catch it."""

    name = "corrupt_output"

    def emit(self, view, task, true_output, destination):
        if true_output is None:
            return None
        return view.app.corrupt_payload(true_output, self.rng)


class HonestUntilEnd(Strategy):
    """Behave perfectly until the hand-off to the target, then corrupt.

    The nastiest timing: every intermediate check passes, so the last
    line of defense (target-side verification) has to do the work.
    """

    name = "honest_until_end"

    def emit(self, view, task, true_output, destination):
        if destination == TARGET and true_output is not None:
            return view.app.corrupt_payload(true_output, self.rng)
        return true_output


def _count_pair(aux) -> bool:
    return (
        isinstance(aux, tuple)
        and len(aux) == 2
        and all(isinstance(x, (int, np.integer)) for x in aux)
    )


class CountCheat(Strategy):
    """Skew the declared per-successor counts by one and make the
    emissions match the skew on one side only.

    Declaring (a-1, b+1) while emitting a-1 items low and the true b
    items high leaves the short side locally self-consistent; the check
    that fires is the over-declared side's count comparison, and the
    resulting rejection prunes this task together with any finished
    consumer of the short side, which repairs the silent item loss.
    Applies only where the declaration is a pair of counts; elsewhere the
    worker stays honest.
    """

    name = "count_cheat"

    def report(self, view, task, honest_report):
        if not isinstance(honest_report, Done) or not _count_pair(honest_report.aux):
            return honest_report
        a, b = (int(x) for x in honest_report.aux)
        succs = view.graph.succs[task]
        if len(succs) != 2:
            return honest_report
        if a >= 1:
            self.memory[task] = succs[0]
            return Done((a - 1, b + 1))
        if b >= 1:
            self.memory[task] = succs[1]
            return Done((a + 1, b - 1))
        return honest_report

    def emit(self, view, task, true_output, destination):
        if self.memory.get(task) == destination and true_output is not None:
            return view.app.truncate_payload(true_output, 1)
        return true_output


class WrongProduct(Strategy):
    """Do everything right except the arithmetic: multiplication tasks
    hand downstream a product with one perturbed entry.  Catching this is
    the verification kernel's whole job."""

    name = "wrong_product"

    def emit(self, view, task, true_output, destination):
        if view.graph.kinds[task] is TaskKind.MULTIPLY and true_output is not None:
            return view.app.corrupt_payload(true_output, self.rng)
        return true_output


class RandomMix(Strategy):
    """Each controlled worker independently picks one of the behaviors
    above, uniformly, and sticks with it for its lifetime (so a later
    re-delivery stays in character)."""

    name = "random_mix"

    _choices = (
        Strategy,
        AlwaysReject,
        SilentWorkers,
        CorruptOutput,
        HonestUntilEnd,
        CountCheat,
        WrongProduct,
    )

    def bind(self, rng):
        super().bind(rng)
        self._subs = [cls() for cls in self._choices]
        for sub in self._subs:
            sub.bind(rng)

    def report(self, view, task, honest_report):
        # a fresh worker holds the task on every report, so re-draw here;
        # emit() later replays the current worker's choice
        idx = int(self.rng.integers(0, len(self._subs)))
        self.memory[("mix", task)] = idx
        return self._subs[idx].report(view, task, honest_report)

    def emit(self, view, task, true_output, destination):
        idx = self.memory.get(("mix", task), 0)
        return self._subs[idx].emit(view, task, true_output, destination)


class ForgeEverything(Strategy):
    """Stress behavior: claim Done with a fabricated declaration and emit
    payloads forged from whole cloth (bad tags, bad digests, bad counts).
    Exists to exercise every verification path at once."""

    name = "forge_everything"

    def report(self, view, task, honest_report):
        return Done(view.app.forge_aux(task, self.rng))

    def emit(self, view, task, true_output, destination):
        return view.app.forge_payload(task, self.rng)


_BUILTINS: tuple[type[Strategy], ...] = (
    Strategy,
    AlwaysReject,
    SilentWorkers,
    CorruptOutput,
    HonestUntilEnd,
    CountCheat,
    WrongProduct,
    RandomMix,
    ForgeEverything,
)


def builtin_strategies() -> dict[str, type[Strategy]]:
    return {cls.name: cls for cls in _BUILTINS}


def make_strategy(name: str) -> Strategy:
    table = builtin_strategies()
    if name not in table:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown strategy {name!r} (known: {known})")
    return table[name]()
