import numpy as np
import pytest

from supsim.adversary import (
    AlwaysReject,
    CorruptOutput,
    CountCheat,
    ForgeEverything,
    RandomMix,
    SilentWorkers,
    Strategy,
    builtin_strategies,
    expected_resamples,
    make_strategy,
)
from supsim.harness import ExperimentConfig, _build_trial
from supsim.protocol import TARGET, Done, Engine, FlagApp, Reject, Silent
from supsim.rngs import TrialRngs, stream
from supsim.taskgraph import build_path


class FakeView:
    """Minimal adversary view for exercising strategies in isolation."""

    def __init__(self, graph, app, finished=frozenset(), round_no=0):
        self._graph = graph
        self._app = app
        self._finished = set(finished)
        self._round = round_no

    @property
    def graph(self):
        return self._graph

    @property
    def app(self):
        return self._app

    @property
    def finished(self):
        return self._finished

    @property
    def round(self):
        return self._round


def _bound(cls, seed=0):
    s = cls()
    s.bind(stream(seed, 2))
    return s


def test_expected_resamples_values():
    assert expected_resamples(0.0) == 1.0
    assert expected_resamples(1 / 12) == pytest.approx(12 / 11)
    assert expected_resamples(0.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        expected_resamples(1.0)
    with pytest.raises(ValueError):
        expected_resamples(-0.2)


def test_make_strategy_catalog():
    names = builtin_strategies()
    assert "honest" in names and "count_cheat" in names
    for name, cls in names.items():
        strat = make_strategy(name)
        assert isinstance(strat, cls)
        assert strat.name == name
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("no_such_thing")


def test_honest_strategy_passes_reports_and_emissions_through():
    g = build_path(3)
    view = FakeView(g, FlagApp(g))
    s = _bound(Strategy)
    done = Done(None)
    assert s.report(view, 1, done) is done
    assert s.emit(view, 1, ("payload", True), 2) == ("payload", True)


def test_always_reject_names_all_predecessors():
    g = build_path(3)
    view = FakeView(g, FlagApp(g))
    s = _bound(AlwaysReject)
    rep = s.report(view, 2, Done(None))
    assert isinstance(rep, Reject)
    assert rep.tasks == frozenset({1})
    # an initial task has nothing to blame; the empty reject stalls the
    # pointer and forces a fresh source send
    rep0 = s.report(view, 0, Done(None))
    assert rep0.tasks == frozenset()


def test_silent_workers_never_report():
    g = build_path(2)
    view = FakeView(g, FlagApp(g))
    s = _bound(SilentWorkers)
    assert s.report(view, 0, Done(None)) is Silent
    assert s.emit(view, 0, ("x", True), 1) is None


def test_corrupt_output_keeps_report_but_poisons_payload():
    g = build_path(3)
    app = FlagApp(g)
    view = FakeView(g, app)
    s = _bound(CorruptOutput)
    done = Done(None)
    assert s.report(view, 1, done) is done
    emitted = s.emit(view, 1, (1, True), 2)
    assert emitted == (1, False)
    assert s.emit(view, 1, None, 2) is None


def test_forge_everything_fabricates_payloads():
    g = build_path(2)
    app = FlagApp(g)
    view = FakeView(g, app)
    s = _bound(ForgeEverything)
    rep = s.report(view, 0, Reject(frozenset()))
    assert isinstance(rep, Done)
    assert s.emit(view, 0, None, 1) == (0, False)


def test_count_cheat_shifts_counts_and_truncates_matching_stream():
    class TwoWayApp(FlagApp):
        """Flag app whose tasks declare per-successor counts and whose
        payloads are lists that can actually lose items."""

        def truncate_payload(self, payload, k):
            return payload[: max(0, len(payload) - k)]

    from supsim.taskgraph import GraphBuilder, TaskKind

    b = GraphBuilder()
    src = b.add_task(TaskKind.GENERIC, level=0)
    lo = b.add_task(TaskKind.GENERIC, level=1)
    hi = b.add_task(TaskKind.GENERIC, level=1)
    sink = b.add_task(TaskKind.GENERIC, level=2)
    b.add_edge(src, lo)
    b.add_edge(src, hi)
    b.add_edge(lo, sink)
    b.add_edge(hi, sink)
    g = b.freeze()
    app = TwoWayApp(g)
    view = FakeView(g, app)
    s = _bound(CountCheat)

    rep = s.report(view, src, Done((6, 4)))
    assert isinstance(rep, Done)
    assert rep.aux == (5, 5)  # conservation holds, so the supervisor accepts
    # the low side is short-changed to stay self-consistent with the lie
    low = s.emit(view, src, list(range(6)), lo)
    assert low == list(range(5))
    # the high side gets the true stream, contradicting the declared 5
    high = s.emit(view, src, list(range(4)), hi)
    assert high == list(range(4))


def test_count_cheat_leaves_other_reports_alone():
    g = build_path(2)
    view = FakeView(g, FlagApp(g))
    s = _bound(CountCheat)
    done = Done(None)
    assert s.report(view, 0, done) is done


def test_random_mix_redraws_per_report_and_replays_for_emissions():
    g = build_path(4)
    app = FlagApp(g)
    view = FakeView(g, app)
    s1 = _bound(RandomMix, seed=1)
    s2 = _bound(RandomMix, seed=1)
    reports1 = [type(s1.report(view, t, Done(None))).__name__ for t in range(4)]
    reports2 = [type(s2.report(view, t, Done(None))).__name__ for t in range(4)]
    assert reports1 == reports2  # same rng stream, same mixture
    # emissions replay the recorded choice for the task rather than redrawing
    e1 = s1.emit(view, 2, (2, True), 3)
    e1_again = s1.emit(view, 2, (2, True), 3)
    assert e1 == e1_again


def test_bind_clears_leftover_memory():
    s = make_strategy("count_cheat")
    s.bind(stream(0, 2))
    s.memory["stale"] = 1
    s.bind(stream(0, 2))
    assert s.memory == {}


def test_strategy_surface_has_no_signing_access():
    # adversarial code only ever touches the corruption helpers; nothing
    # on the strategy api can mint a valid tag or digest
    for cls in builtin_strategies().values():
        api = {a for a in dir(cls) if not a.startswith("_")}
        assert api <= {"name", "bind", "report", "emit", "memory", "rng"}


class InPlaceWriter(Strategy):
    """Test-only: sets every array it is handed writeable and writes into
    it, then passes the payload on as if nothing happened."""

    name = "in_place_writer"

    def bind(self, rng):
        super().bind(rng)
        self.tried = self.landed = 0

    def emit(self, view, task, true_output, destination):
        parts = true_output if isinstance(true_output, tuple) else (true_output,)
        for arr in parts:
            if isinstance(arr, np.ndarray) and arr.size:
                self.tried += 1
                try:
                    arr.setflags(write=True)
                    arr[(0,) * arr.ndim] += np.uint64(1)
                    self.landed += 1
                except ValueError:  # a payload nothing can write into
                    pass
        return true_output


@pytest.mark.parametrize("app, size", [("matmul", dict(n=4, m=16)),
                                       ("mergesort", dict(n=4, m=64))])
def test_in_place_writes_reach_no_payload(app, size):
    for seed in range(3):
        cfg = ExperimentConfig(app=app, beta=0.1, **size)
        rngs, app_obj, oracle = _build_trial(cfg, seed)
        # the source's stripes or items, which it re-sends after a rollback
        sources = [app_obj.source_payload(v) for v in app_obj.graph.initial_tasks]
        before = [p.copy() for p in sources]
        writer = InPlaceWriter()
        out = Engine(app_obj, writer, beta=cfg.beta, rngs=rngs).run()
        assert writer.tried > 0 and writer.landed == 0, f"seed {seed}"
        assert out.terminated, f"seed {seed} hit the round cap"
        assert oracle(out.target_output)
        assert all(np.array_equal(p, q) for p, q in zip(sources, before))
