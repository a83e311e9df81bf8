import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supsim.adversary import (
    AlwaysReject,
    CorruptOutput,
    HonestUntilEnd,
    SilentWorkers,
    Strategy,
    make_strategy,
)
from supsim.protocol import Engine, FlagApp, Reject, WorkerSampler
from supsim.rngs import TrialRngs
from supsim.taskgraph import (
    GraphBuilder,
    TaskKind,
    build_path,
    random_leveled_dag,
)

from _oracles import brute_prune, brute_wavefront, run_audited


class RejectOnce(Strategy):
    """The first adversarial worker rejects `named`, or else its task's
    predecessors; every later one acts honestly."""

    name = "reject_once"

    def __init__(self, named=None):
        super().__init__()
        self.named = named

    def report(self, view, task, honest_report):
        if self.memory.get("fired"):
            return honest_report
        self.memory["fired"] = True
        return Reject(view.graph.preds[task] if self.named is None else self.named)


class ScriptedSampler:
    """Stand-in worker pool with a fixed honesty script (then honest)."""

    def __init__(self, script):
        self.script = list(script)

    def draw(self):
        return self.script.pop(0) if self.script else True


def _engine(graph, strategy, script=None, beta=0.0, seed=0, **kw):
    app = FlagApp(graph)
    eng = Engine(app, strategy, beta=beta, rngs=TrialRngs.from_seed(seed), **kw)
    if script is not None:
        eng.sampler = ScriptedSampler(script)
    return eng


def _diamond():
    b = GraphBuilder()
    a = b.add_task(TaskKind.GENERIC, level=0)
    x = b.add_task(TaskKind.GENERIC, level=1)
    y = b.add_task(TaskKind.GENERIC, level=1)
    d = b.add_task(TaskKind.GENERIC, level=2)
    b.add_edge(a, x)
    b.add_edge(a, y)
    b.add_edge(x, d)
    b.add_edge(y, d)
    return b.freeze()


def _engine_wavefront(eng):
    """The wavefront the engine would schedule, read off its `_missing`."""
    return {
        v for v in range(eng.graph.n)
        if v not in eng.sup.f and eng._missing[v] == 0
    }


# -- the engine's own wavefront and prune ----------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(1, 18), st.integers(0, 30), st.data())
@settings(max_examples=80, deadline=None)
def test_prune_matches_reachability_oracle(seed, n_tasks, prefix, data):
    rng = np.random.default_rng(seed)
    g = random_leveled_dag(min(n_tasks, 6), max(1, n_tasks // 3), rng)
    preds = {u: g.preds[u] for u in range(g.n)}
    succs = {u: g.succs[u] for u in range(g.n)}
    eng = _engine(g, Strategy())
    # a prefix in (level, id) order is ancestor-closed
    f = set(sorted(range(g.n), key=lambda u: (g.levels[u], u))[:prefix])
    for u in f:
        eng._f_add(u)
    assert _engine_wavefront(eng) == brute_wavefront(preds, f)
    v = data.draw(st.sampled_from([u for u in range(g.n) if g.preds[u]]))
    named = data.draw(st.sets(st.sampled_from(list(g.preds[v]))))
    eng._prune(set(named))
    got = f - brute_prune(succs, f, set(named))
    assert eng.sup.f == got
    assert _engine_wavefront(eng) == brute_wavefront(preds, got)


@given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.floats(0.0, 0.4))
@settings(max_examples=40, deadline=None)
def test_wavefront_matches_definition_on_random_dags(seed, n_tasks, beta):
    rng = np.random.default_rng(seed)
    g = random_leveled_dag(min(4, n_tasks), max(1, n_tasks // 2), rng)
    eng = _engine(g, make_strategy("random_mix"), beta=beta, seed=seed % 1000)
    assert run_audited(eng).terminated


# -- worker pool ---------------------------------------------------------------


def test_sampler_honest_fraction_is_one_minus_beta():
    s = WorkerSampler(0.5, np.random.default_rng(0))
    frac_honest = sum(s.draw() for _ in range(5000)) / 5000
    assert 0.45 < frac_honest < 0.55


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_sampler_rejects_bad_beta(bad):
    with pytest.raises(ValueError):
        WorkerSampler(bad, np.random.default_rng(0))


# -- path mode, hand-traced ------------------------------------------------------


def test_path_no_adversaries_runs_in_n_plus_one_rounds():
    eng = _engine(build_path(3), Strategy())
    out = eng.run()
    assert out.terminated
    assert out.metrics.rounds == 4
    assert out.metrics.source_sends == 1
    assert out.metrics.target_receives == 1
    assert out.target_output == {2: True}


def test_path_reject_rolls_back_one_position():
    # honest v0; adversarial rejecting worker at v1; honest afterwards
    eng = _engine(build_path(3), AlwaysReject(), script=[True, False])
    out = eng.run()
    assert out.terminated
    #  r1 v0 Done, r2 v1 Reject -> v0 pruned, r3 v0, r4 v1, r5 v2, r6 delivery
    assert out.metrics.rounds == 6
    assert out.metrics.source_sends == 2
    assert out.metrics.target_receives == 1


def test_path_reject_at_first_position_makes_source_resend():
    eng = _engine(build_path(3), AlwaysReject(), script=[False])
    out = eng.run()
    assert out.terminated
    # r1 v0 Reject (stays), r2 v0, r3 v1, r4 v2, r5 delivery
    assert out.metrics.rounds == 5
    assert out.metrics.source_sends == 2


def test_path_corrupt_output_is_caught_by_next_worker():
    eng = _engine(build_path(3), CorruptOutput(), script=[False])
    out = eng.run()
    assert out.terminated
    # corrupt v0 Dones; honest v1 sees the bad payload and rejects it
    assert out.metrics.rounds == 6
    assert out.metrics.source_sends == 2
    assert out.target_output == {2: True}


def test_path_corrupt_delivery_forces_tail_rerun():
    eng = _engine(build_path(3), HonestUntilEnd(), script=[True, True, False])
    out = eng.run()
    assert out.terminated
    # r1 v0, r2 v1, r3 v2 (adversarial, honest until delivery), r4 delivery
    # rejected by target, r5 fresh v2, r6 delivery accepted
    assert out.metrics.rounds == 6
    assert out.metrics.target_receives == 2
    assert out.target_output == {2: True}


def test_path_silent_tail_is_resampled_without_rollback():
    eng = _engine(build_path(3), SilentWorkers(), script=[True, True, False])
    out = eng.run()
    assert out.terminated
    # the silent worker at v2 burns one round; no finished work is lost
    assert out.metrics.rounds == 5
    assert out.metrics.source_sends == 1


def test_path_adversarial_target_never_terminates():
    eng = _engine(build_path(3), Strategy(), target_always_rejects=True,
                  round_cap=50)
    out = eng.run()
    assert not out.terminated
    assert out.metrics.rounds == 50
    assert out.target_output is None


def test_round_cap_reports_unfinished_run():
    eng = _engine(build_path(10), Strategy(), round_cap=4)
    out = eng.run()
    assert not out.terminated
    assert out.metrics.rounds == 4


# -- dag mode ---------------------------------------------------------------------


def test_dag_runs_level_parallel():
    eng = _engine(_diamond(), Strategy())
    out = eng.run()
    assert out.terminated
    assert out.metrics.rounds == 3  # levels 0,1 then the final task delivers inline
    assert out.target_output == {3: True}


def test_dag_reject_prunes_ancestor_chain_and_recovers():
    # make exactly the worker at the final task adversarial once
    eng = _engine(_diamond(), RejectOnce(), script=[True, True, True, False])
    out = eng.run()
    assert out.terminated
    # r1 {0}, r2 {1,2}, r3 {3} rejects both preds, r4 {1,2}, r5 {3}
    assert out.metrics.rounds == 5
    assert out.target_output == {3: True}


def test_dag_reject_naming_a_non_predecessor_is_silent():
    rows = []
    eng = _engine(_diamond(), RejectOnce({0}), script=[True, True, True, False],
                  trace_sink=rows.append)
    out = eng.run()
    assert out.terminated
    # r1 {0}, r2 {1,2}, r3 {3} names 0 (not a pred of 3): nothing pruned,
    # r4 {3} with a fresh worker delivers
    assert rows[2]["reports"] == ["Reject"]
    assert rows[2]["f_size"] == 3
    assert out.metrics.rounds == 4
    assert out.metrics.source_sends == 1
    assert out.target_output == {3: True}


def test_path_reject_naming_a_non_predecessor_is_silent():
    rows = []
    eng = _engine(build_path(3), RejectOnce({0}), script=[True, True, False],
                  trace_sink=rows.append)
    out = eng.run()
    assert out.terminated
    # r1 v0, r2 v1, r3 v2 names v0 (not its pred): the pointer stays,
    # r4 v2 with a fresh worker, r5 delivery
    assert [r["scheduled"] for r in rows] == [[0], [1], [2], [2], []]
    assert rows[2]["f_size"] == 2
    assert out.metrics.rounds == 5
    assert out.metrics.source_sends == 1
    assert out.target_output == {2: True}


def test_path_schedules_the_wavefront():
    for seed in range(10):
        eng = _engine(build_path(30), make_strategy("random_mix"), beta=0.25, seed=seed)
        assert run_audited(eng).terminated, f"seed {seed} hit the round cap"


def test_dag_closure_holds_after_every_round():
    for seed in range(10):
        g = random_leveled_dag(4, 8, np.random.default_rng(seed))
        eng = _engine(g, make_strategy("random_mix"), beta=0.25, seed=seed)
        out = run_audited(eng)
        assert out.terminated, f"seed {seed} hit the round cap"
        assert out.target_output == {v: True for v in g.final_tasks}


def test_dag_trace_records_rounds():
    rows = []
    eng = _engine(_diamond(), Strategy(), trace_sink=rows.append)
    eng.run()
    assert [r["round"] for r in rows] == [0, 1, 2]
    assert rows[0]["scheduled"] == [0]
    assert sorted(rows[1]["scheduled"]) == [1, 2]
    assert rows[-1]["f_size"] == 4
    assert set(rows[0]) == {"round", "scheduled", "reports", "f_size"}


def test_engine_rejects_bad_beta_and_round_cap():
    for kw in (dict(beta=1.0), dict(beta=-0.1)):
        with pytest.raises(ValueError, match="beta"):
            _engine(build_path(2), Strategy(), **kw)
    # 0 does not ask for the default cap
    for cap in (0, -3):
        with pytest.raises(ValueError, match="round cap"):
            _engine(build_path(2), Strategy(), round_cap=cap)


# -- supervisor stays data-agnostic -----------------------------------------------


def test_supervisor_state_holds_only_metadata():
    g = random_leveled_dag(3, 6, np.random.default_rng(2))
    eng = _engine(g, make_strategy("random_mix"), beta=0.3, seed=7)
    eng.run()
    sup = eng.sup
    assert all(isinstance(v, int) for v in sup.f)
    assert all(isinstance(c, int) for c in sup.expected_counts.values())
    assert all(isinstance(d, bytes) for d in sup.digests.values())


# -- determinism -------------------------------------------------------------------


def test_same_seed_reproduces_run_exactly():
    def go():
        eng = _engine(build_path(40), make_strategy("random_mix"), beta=0.2, seed=11)
        out = eng.run()
        return out.metrics.rounds, out.metrics.as_row()

    assert go() == go()


def test_different_streams_are_decoupled():
    # the honest rng produces the same values whether or not the
    # adversary consumes randomness, so runs differ only through reports
    r1 = TrialRngs.from_seed(5)
    r2 = TrialRngs.from_seed(5)
    _ = r2.adversary.random(1000)
    assert r1.honest.random(8).tolist() == r2.honest.random(8).tolist()
    assert r1.supervisor.random(8).tolist() == r2.supervisor.random(8).tolist()


def test_flag_app_forgery_helpers_do_not_leak_validity():
    g = build_path(2)
    app = FlagApp(g)
    rng = np.random.default_rng(0)
    p = app.source_payload(0)
    assert app.corrupt_payload(p, rng)[1] is False
    assert app.forge_payload(0, rng)[1] is False
