import warnings

import numpy as np
import pytest

from supsim import matmul, mergesort
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
from supsim.harness import ExperimentConfig, _build_trial, run_trial
from supsim.mergesort import MergesortApp, make_mergesort_app
from supsim.metrics import Metrics
from supsim.protocol import TARGET, Done, Engine, FlagApp, Reject, Silent, read_only
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


class MetaWriter(Strategy):
    """Test-only: writes the final tasks' role into the metadata of each
    task it holds, through the graph its view shows."""

    name = "meta_writer"

    def report(self, view, task, honest_report):
        g = view.graph
        g.meta[task]["role"] = g.meta[g.final_tasks[0]]["role"]
        return honest_report


@pytest.mark.parametrize("app, size", [("matmul", dict(n=4, m=16)),
                                       ("mergesort", dict(n=4, m=64))])
def test_a_strategy_cannot_write_into_the_shared_graph(app, size):
    cfg = ExperimentConfig(app=app, beta=0.1, strategy="random_mix", **size)
    rngs, app_obj, _ = _build_trial(cfg, 0)
    with pytest.raises(TypeError, match="mappingproxy"):
        Engine(app_obj, MetaWriter(), beta=0.5, rngs=rngs).run()
    # the next trial shares the graph the writer was shown
    warm = run_trial(cfg, 1)
    matmul.build_matmul_graph.cache_clear()
    mergesort.build_mergesort_graph.cache_clear()
    assert run_trial(cfg, 1) == warm


class Rebound(np.ndarray):
    """An ndarray subclass over immutable bytes whose items, as readers
    index them, come from `source` once that is set."""

    source = None

    def __getitem__(self, key):
        src = self.view(np.ndarray) if self.source is None else self.source
        return src[key]


def _flip_tag(arr):
    arr[0, 2] ^= np.uint64(1)


def _writable(run):
    kept = run.copy()
    return kept, lambda: _flip_tag(kept)


def _over_bytearray(run):
    buf = bytearray(run.tobytes())
    kept = np.frombuffer(buf, np.uint64).reshape(run.shape)
    kept.setflags(write=False)  # read-only to numpy, yet its buffer is not
    return kept, lambda: _flip_tag(np.frombuffer(buf, np.uint64).reshape(run.shape))


def _subclass(run):
    kept = read_only(run).view(Rebound)
    tampered = run.copy()
    _flip_tag(tampered)

    def poke():
        kept.source = tampered
    return kept, poke


def _restrided(run):
    def poke():  # every row now reads as row 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            run.strides = (0, run.strides[1])
    return run, poke


class ReusedPayload(Strategy):
    """Test-only: keeps the first run it relays as one array object of
    `make`'s kind and emits it; on the next hop it changes that same object
    and emits it again."""

    name = "reused_payload"

    def __init__(self, make):
        super().__init__()
        self.make = make
        self.kept = self.poke = None

    def emit(self, view, task, true_output, destination):
        if self.kept is None:
            self.kept, self.poke = self.make(true_output)
        else:
            self.poke()
        return self.kept


@pytest.mark.parametrize("make", [_writable, _over_bytearray, _subclass, _restrided])
def test_a_payload_changed_between_hops_is_checked_again(make):
    app = make_mergesort_app(64, 4, rng=stream(0, 3))
    eng = Engine(app, Strategy(), beta=0.0, rngs=TrialRngs.from_seed(0))
    assert eng.run().terminated  # declares every count on eng.sup
    g = app.graph
    # merge task p feeds a forwarding list f0 -> f1 whose hops check with
    # the same segment, range and block
    f0 = next(v for v in range(g.n)
              if g.meta[v]["role"] == "final" and g.meta[v]["seq"] == 0)
    (p,), (f1,) = g.preds[f0], g.succs[f0]
    writer = ReusedPayload(make)
    writer.bind(stream(0, 2))
    view = FakeView(g, app)

    def hop(src, dst, payload):
        sent = writer.emit(view, src, payload, dst)
        return sent, app.execute(dst, [sent], eng.sup, stream(1, 1), Metrics())

    sent, (rep, relayed) = hop(p, f0, eng._outputs[p])
    assert isinstance(rep, Done) and relayed is sent
    resent, (rep, _) = hop(f0, f1, relayed)
    assert resent is sent and isinstance(rep, Reject)


def test_an_honest_trial_scans_each_payload_once(monkeypatch):
    scanned, checked = [], []
    verify_items = mergesort.verify_items
    check_run = MergesortApp._check_run

    def counting_verify(*args, **kwargs):
        scanned.append(1)
        return verify_items(*args, **kwargs)

    def recording_check(self, arr, *args, **kwargs):
        if isinstance(arr, np.ndarray) and arr.shape[0]:
            checked.append(arr)  # held, so no two payloads share an id
        return check_run(self, arr, *args, **kwargs)

    monkeypatch.setattr(mergesort, "verify_items", counting_verify)
    monkeypatch.setattr(MergesortApp, "_check_run", recording_check)
    app = make_mergesort_app(64, 4, rng=stream(0, 3))
    out = Engine(app, Strategy(), beta=0.0, rngs=TrialRngs.from_seed(0)).run()
    assert out.terminated
    distinct = len({id(arr) for arr in checked})
    assert len(checked) > distinct  # relays are handed the same payload
    assert len(scanned) == distinct
