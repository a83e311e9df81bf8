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
from supsim.protocol import (
    SOURCE,
    TARGET,
    Done,
    Engine,
    FlagApp,
    Reject,
    Silent,
    WorkerSampler,
    apply_report,
    is_ancestor_closed,
    wavefront,
)
from supsim.rngs import TrialRngs
from supsim.taskgraph import (
    GraphBuilder,
    TaskKind,
    build_path,
    random_leveled_dag,
    topological_order,
)

from _oracles import brute_prune, brute_wavefront


class ScriptedSampler:
    """Stand-in worker pool with a fixed honesty script (then honest)."""

    def __init__(self, script):
        self.script = list(script)
        self._next_id = 0

    def draw(self):
        honest = self.script.pop(0) if self.script else True
        wid = self._next_id
        self._next_id += 1
        return wid, honest


def _engine(graph, strategy, script=None, beta=0.0, seed=0, **kw):
    app = FlagApp(graph)
    eng = Engine(graph, app, strategy, beta=beta, rngs=TrialRngs.from_seed(seed), **kw)
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
    return b.freeze(require_leveled=True)


# -- pure transition functions ------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(1, 18), st.integers(0, 30), st.data())
@settings(max_examples=80, deadline=None)
def test_apply_report_reject_matches_reachability_oracle(seed, n_tasks, prefix, data):
    rng = np.random.default_rng(seed)
    g = random_leveled_dag(min(n_tasks, 6), max(1, n_tasks // 3), rng)
    order = topological_order(g)
    f = set(order[: min(prefix, g.n)])
    candidates = [v for v in range(g.n) if g.preds[v]]
    if not candidates:
        return
    v = data.draw(st.sampled_from(candidates))
    named = data.draw(st.sets(st.sampled_from(list(g.preds[v]))))
    got = apply_report(g, f, v, Reject(named))
    succs = {u: g.succs[u] for u in range(g.n)}
    assert got == f - brute_prune(succs, f, set(named))
    assert is_ancestor_closed(g, got)


def test_apply_report_done_and_silent():
    g = build_path(3)
    assert apply_report(g, {0}, 1, Done(None)) == {0, 1}
    assert apply_report(g, {0}, 1, Silent) == {0}


def test_apply_report_ignores_rejects_naming_non_predecessors():
    g = _diamond()
    f = {0, 1, 2}
    # task 3's preds are {1, 2}; naming 0 is garbage and must change nothing
    assert apply_report(g, f, 3, Reject({0})) == f
    assert apply_report(g, f, 3, Reject({1, 0})) == f
    assert apply_report(g, f, 3, Reject({1})) == {0, 2}


def test_wavefront_requires_closed_set():
    g = build_path(3)
    with pytest.raises(AssertionError):
        wavefront(g, {2})


@given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.integers(0, 24))
@settings(max_examples=80, deadline=None)
def test_wavefront_matches_definition_on_random_dags(seed, n_tasks, prefix):
    rng = np.random.default_rng(seed)
    g = random_leveled_dag(min(4, n_tasks), max(1, n_tasks // 2), rng)
    f = set(topological_order(g)[: min(prefix, g.n)])
    preds = {v: g.preds[v] for v in range(g.n)}
    assert wavefront(g, f) == brute_wavefront(preds, f)


# -- worker pool ---------------------------------------------------------------


def test_sampler_ids_are_fresh_and_monotone():
    s = WorkerSampler(0.5, np.random.default_rng(0))
    draws = [s.draw() for _ in range(5000)]
    ids = [wid for wid, _ in draws]
    assert ids == list(range(5000))
    frac_honest = sum(h for _, h in draws) / 5000
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
    assert out.rounds_used == 4
    assert out.metrics.source_sends == 1
    assert out.metrics.target_receives == 1
    assert out.target_output == {2: True}


def test_path_reject_rolls_back_one_position():
    # honest v0; adversarial rejecting worker at v1; honest afterwards
    eng = _engine(build_path(3), AlwaysReject(), script=[True, False])
    out = eng.run()
    assert out.terminated
    #  r1 v0 Done, r2 v1 Reject -> v0 pruned, r3 v0, r4 v1, r5 v2, r6 delivery
    assert out.rounds_used == 6
    assert out.metrics.source_sends == 2
    assert out.metrics.target_receives == 1


def test_path_reject_at_first_position_makes_source_resend():
    eng = _engine(build_path(3), AlwaysReject(), script=[False])
    out = eng.run()
    assert out.terminated
    # r1 v0 Reject (stays), r2 v0, r3 v1, r4 v2, r5 delivery
    assert out.rounds_used == 5
    assert out.metrics.source_sends == 2


def test_path_corrupt_output_is_caught_by_next_worker():
    eng = _engine(build_path(3), CorruptOutput(), script=[False])
    out = eng.run()
    assert out.terminated
    # corrupt v0 Dones; honest v1 sees the bad payload and rejects it
    assert out.rounds_used == 6
    assert out.metrics.source_sends == 2
    assert out.target_output == {2: True}


def test_path_corrupt_delivery_forces_tail_rerun():
    eng = _engine(build_path(3), HonestUntilEnd(), script=[True, True, False])
    out = eng.run()
    assert out.terminated
    # r1 v0, r2 v1, r3 v2 (adversarial, honest until delivery), r4 delivery
    # rejected by target, r5 fresh v2, r6 delivery accepted
    assert out.rounds_used == 6
    assert out.metrics.target_receives == 2
    assert out.target_output == {2: True}


def test_path_silent_tail_is_resampled_without_rollback():
    eng = _engine(build_path(3), SilentWorkers(), script=[True, True, False])
    out = eng.run()
    assert out.terminated
    # the silent worker at v2 burns one round; no finished work is lost
    assert out.rounds_used == 5
    assert out.metrics.source_sends == 1


def test_path_adversarial_target_never_terminates():
    eng = _engine(build_path(3), Strategy(), target_always_rejects=True,
                  round_cap=50)
    out = eng.run()
    assert not out.terminated
    assert out.rounds_used == 50
    assert out.target_output is None


def test_round_cap_reports_unfinished_run():
    eng = _engine(build_path(10), Strategy(), round_cap=4)
    out = eng.run()
    assert not out.terminated
    assert out.rounds_used == 4


# -- dag mode ---------------------------------------------------------------------


def test_dag_runs_level_parallel():
    eng = _engine(_diamond(), Strategy())
    out = eng.run()
    assert out.terminated
    assert out.rounds_used == 3  # levels 0,1 then the final task delivers inline
    assert out.target_output == {3: True}


def test_dag_reject_prunes_ancestor_chain_and_recovers():
    class RejectOnce(Strategy):
        name = "reject_once"

        def report(self, view, task, honest_report):
            if not self.memory.get("fired"):
                self.memory["fired"] = True
                return Reject(view.graph.preds[task])
            return honest_report

    # make exactly the worker at the final task adversarial once
    eng = _engine(_diamond(), RejectOnce(), script=[True, True, True, False])
    out = eng.run()
    assert out.terminated
    # r1 {0}, r2 {1,2}, r3 {3} rejects both preds, r4 {1,2}, r5 {3}
    assert out.rounds_used == 5
    assert out.target_output == {3: True}


def test_dag_closure_holds_after_every_round():
    for seed in range(10):
        g = random_leveled_dag(4, 8, np.random.default_rng(seed))
        eng = _engine(
            g,
            make_strategy("random_mix"),
            beta=0.25,
            seed=seed,
            check_closure=True,
        )
        out = eng.run()
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
    assert all(
        isinstance(k, int) and isinstance(w, int) for k, w in sup.last_worker.items()
    )
    assert all(isinstance(c, int) for c in sup.expected_counts.values())
    assert all(isinstance(d, bytes) for d in sup.digests.values())


def test_worker_ids_are_never_reused_across_reassignments():
    eng = _engine(build_path(4), AlwaysReject(), beta=0.4, seed=3)
    eng.run()
    ids = list(eng.sup.last_worker.values())
    assert len(ids) == len(set(ids))


# -- determinism -------------------------------------------------------------------


def test_same_seed_reproduces_run_exactly():
    def go():
        eng = _engine(build_path(40), make_strategy("random_mix"), beta=0.2, seed=11)
        out = eng.run()
        return out.rounds_used, out.metrics.as_row()

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
    assert app.truncate_payload(p, 1) == p
