import csv
import gc
import io
import json

import numpy as np
import pytest

from supsim import harness
from supsim.harness import (
    ROW_FIELDS,
    Batch,
    ExperimentConfig,
    emit,
    main,
    run_experiment,
    run_trial,
)
from supsim.matmul import random_instance, save_instance
from supsim.protocol import Engine


def _cfg(**kw):
    base = dict(app="path", n=20, beta=0.1, strategy="silent", seeds=(0, 1, 2))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation_messages():
    with pytest.raises(ValueError, match="app"):
        ExperimentConfig(app="ring").validate()
    with pytest.raises(ValueError, match="beta"):
        ExperimentConfig(beta=1.0).validate()
    with pytest.raises(ValueError, match="strategy"):
        ExperimentConfig(strategy="chaos").validate()
    with pytest.raises(ValueError, match="n=k"):
        ExperimentConfig(app="matmul", n=12).validate()
    with pytest.raises(ValueError, match="2\\^-tau"):
        ExperimentConfig(app="matmul", n=16, tau=2, beta=0.1).validate()
    with pytest.raises(ValueError, match="ceiling"):
        ExperimentConfig(ceilings={"median_rounds": 5}).validate()
    with pytest.raises(ValueError, match="seeds must be"):
        ExperimentConfig(seeds=range(3)).validate()
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"app": "path", "banana": 1})


def test_run_trial_row_has_fixed_fields():
    row = run_trial(_cfg(), 0)
    assert list(row) == list(ROW_FIELDS)
    assert row["terminated"] is True
    assert row["output_ok"] is True
    assert row["capped"] is False


def test_summary_only_when_no_seeds():
    batch = run_experiment(_cfg(seeds=()))
    assert batch.trials == []
    assert batch.summary["trials"] == 0
    assert batch.verdicts == []
    data = emit(batch, "csv").decode()
    assert len(data.strip().split("\n")) == 2  # header + summary row


def test_csv_has_one_line_per_trial_plus_summary():
    batch = run_experiment(_cfg())
    data = emit(batch, "csv").decode()
    rows = list(csv.reader(io.StringIO(data)))
    # a literal: the JSON goldens sort their keys, so only this pins the order
    assert data.split("\n")[0] == (
        "seed,app,strategy,terminated,capped,output_ok,rounds,source_sends,"
        "target_receives,supervisor_msgs,per_task_max_items,comp_worker,"
        "comp_source,comp_target,comp_supervisor,verify_worker,verify_source,"
        "verify_target,verify_supervisor,comm_worker,comm_source,comm_target,"
        "comm_supervisor,comp_total,comm_total"
    )
    assert len(rows) == 1 + 3 + 1
    assert rows[-1][0] == "summary"
    seeds = [r[0] for r in rows[1:-1]]
    assert seeds == ["0", "1", "2"]


def test_json_emission_is_byte_identical_across_runs():
    a = emit(run_experiment(_cfg()), "json")
    b = emit(run_experiment(_cfg()), "json")
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"config", "trials", "summary", "verdicts"}
    assert len(doc["trials"]) == 3


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit(Batch({}, [], {}, []), "xml")


def test_seed_permutation_only_reorders_rows():
    fwd = {t["seed"]: t for t in run_experiment(_cfg(seeds=(0, 1, 2))).trials}
    rev = {t["seed"]: t for t in run_experiment(_cfg(seeds=(2, 0, 1))).trials}
    assert fwd == rev


def test_round_capped_trials_are_reported_not_dropped():
    cfg = _cfg(
        app="path", n=16, beta=1 / 12, strategy="honest",
        seeds=(0, 1), round_cap=16, target_always_rejects=True,
    )
    batch = run_experiment(cfg)
    assert len(batch.trials) == 2
    assert all(t["capped"] for t in batch.trials)
    assert all(t["rounds"] == 16 for t in batch.trials)
    assert batch.summary["frac_terminated"] == 0.0
    # no termination verdict is configured for this scenario, so it passes
    assert batch.all_pass


def test_ceiling_verdicts_and_exit_semantics():
    cfg = _cfg(ceilings={"mean_rounds": 100000, "max_rounds": 1})
    batch = run_experiment(cfg)
    byname = {v["name"]: v for v in batch.verdicts}
    assert byname["mean_rounds"]["pass"] is True
    assert byname["max_rounds"]["pass"] is False
    assert byname["max_rounds"]["limit"] == 1.0
    assert byname["max_rounds"]["observed"] >= 21
    assert not batch.all_pass


def test_verdicts_record_their_ceilings():
    batch = run_experiment(_cfg(ceilings={"p99_rounds": 2000}))
    v = next(v for v in batch.verdicts if v["name"] == "p99_rounds")
    assert v["limit"] == 2000.0
    assert {"name", "limit", "observed", "pass"} == set(v)


def test_cli_runs_config_file_with_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"app": "path", "n": 10, "seeds": [0]}))
    out_file = tmp_path / "out.json"
    code = main([
        "--config", str(cfg_file), "--n", "12", "--strategy", "honest",
        "--out", str(out_file), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["config"]["n"] == 12
    assert doc["config"]["strategy"] == "honest"
    assert doc["summary"]["all_terminated"] is True


def test_cli_trials_flag_expands_to_seed_range(tmp_path):
    out_file = tmp_path / "out.json"
    code = main(["--app", "path", "--n", "8", "--trials", "4", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert [t["seed"] for t in doc["trials"]] == [0, 1, 2, 3]


def test_cli_bad_config_exits_2(capsys):
    assert main(["--app", "matmul", "--n", "10"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, config, text, names",
    [
        (["--app", "path", "--n", "0"], None, None, "n=0"),
        (["--app", "dag", "--m", "0"], None, None, "width=0"),
        (["--app", "matmul", "--m", "8", "--n", "16"], None, None, "m=8 too small"),
        (["--app", "mergesort", "--n", "3"], None, None, "got 3"),
        (["--app", "mergesort"], None, "-5\n", "input.txt:1"),
        (["--app", "matmul", "--n", "16"], None, "-5\n", "not a matrix-pair file"),
        (["--app", "matmul", "--n", "16", "--m", "16"], None, (16, 2), "n=k^2=4"),
        (["--app", "matmul", "--n", "4", "--m", "32"], None, (16, 2), "m=16, but"),
        (["--app", "mergesort", "--n", "4", "--m", "1024"], None, "7\n" * 16,
         "holds 16 values, but m=1024"),
        ([], {"seeds": "12"}, None, "seeds must be"),
        ([], {"seeds": [1.7]}, None, "seeds must be"),
        ([], {"seeds": 5}, None, "seeds must be"),
        ([], {"round_cap": 2.5}, None, "round_cap must be"),
        ([], {"beta": "0.1"}, None, "beta must be"),
        ([], {"n": 4.5}, None, "n must be"),
        ([], {"n": True}, None, "n must be"),
        ([], [1, 2], None, "must hold a JSON object"),
        ([], {"ceilings": {"mean_bogus": 3}}, None, "'mean_bogus'"),
        ([], {"ceilings": {"max_per_task_items": 3}}, None, "'max_per_task_items'"),
        ([], {"ceilings": {"mean_output_ok": 1}}, None, "'mean_output_ok'"),
        ([], {"ceilings": {"max_rounds": float("nan")}}, None, "ceilings must be"),
        (["--app", "mergesort", "--n", "4"], {"c": float("nan")}, None,
         "c must be"),
        (["--app", "matmul", "--n", "4", "--m", "16"], {"c": float("inf")}, None,
         "c must be"),
        (["--out", "missing/o.json"], None, None, "missing/o.json"),
        (["--trace", "missing/t.jsonl"], None, None, "missing/t.jsonl"),
        (["--dump-graph", "missing/g.json"], None, None, "missing/g.json"),
    ],
    ids=["path-n0", "dag-m0", "matmul-m8-n16", "mergesort-n3", "negative-input",
         "matmul-bad-input", "matmul-input-k", "matmul-input-m",
         "mergesort-input-m", "seeds-str", "seeds-float", "seeds-int",
         "round_cap-float", "beta-str", "n-float", "n-bool", "config-not-object",
         "ceiling-unknown", "ceiling-summary-key", "ceiling-not-counter",
         "ceiling-nan", "c-nan", "c-inf",
         "out-unwritable", "trace-unwritable", "dump-graph-unwritable"],
)
def test_cli_shape_and_input_errors_exit_2(tmp_path, monkeypatch, capsys, args,
                                           config, text, names):
    # relative paths resolve in tmp_path, which has no "missing" directory
    monkeypatch.chdir(tmp_path)
    if text is not None:
        _write_input(tmp_path / "input.txt", text)
        args = args + ["--input", "input.txt"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = args + ["--config", "cfg.json"]

    def no_trial(*a, **kw):
        raise AssertionError("a trial was built")

    monkeypatch.setattr(harness, "_build_trial", no_trial)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and names in err


def _write_input(path, text):
    """A values file from a string, or a matrix-pair file of shape (m, k)."""
    if isinstance(text, str):
        path.write_text(text)
    else:
        m, k = text
        save_instance(path, random_instance(m, k, np.random.default_rng(0)))


@pytest.mark.parametrize("args, text", [
    (["--app", "matmul", "--n", "4", "--m", "16"], (16, 2)),
    (["--app", "mergesort", "--n", "2", "--m", "16"], "9\n3\n" * 8),
], ids=["matmul", "mergesort"])
def test_cli_input_file_matching_the_flags_runs(tmp_path, args, text):
    path = tmp_path / "input.txt"
    _write_input(path, text)
    out_file = tmp_path / "out.json"
    code = main(args + ["--input", str(path), "--trials", "2", "--beta", "0.1",
                        "--strategy", "random_mix", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert all(t["output_ok"] for t in doc["trials"])


@pytest.mark.parametrize("app, reader, n, m, text", [
    ("matmul", "load_instance", 4, 16, (16, 2)),
    ("mergesort", "read_values", 2, 16, "9\n3\n" * 8),
], ids=["matmul", "mergesort"])
def test_input_file_is_read_once_per_batch(tmp_path, monkeypatch, app, reader,
                                           n, m, text):
    path = tmp_path / "input.txt"
    _write_input(path, text)
    calls = []
    real = getattr(harness, reader)

    def counted(p):
        calls.append(p)
        return real(p)

    # wrapped where the harness looks the reader up
    monkeypatch.setattr(harness, reader, counted)
    cfg = ExperimentConfig(app=app, n=n, m=m, beta=0.1, strategy="random_mix",
                           seeds=tuple(range(5)), input_path=str(path))
    batch = run_experiment(cfg)
    assert len(batch.trials) == 5 and batch.all_pass
    assert len(calls) == 1
    calls.clear()
    code = main(["--app", app, "--n", str(n), "--m", str(m), "--beta", "0.1",
                 "--input", str(path), "--trials", "5",
                 "--dump-graph", str(tmp_path / "g.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 0
    assert len(calls) == 1


def test_no_engine_outlives_its_trial():
    # an engine in a reference cycle keeps its trial's payloads alive
    # until the cyclic collector runs
    cfg = _cfg(app="mergesort", m=256, n=8, beta=0.08, strategy="random_mix")
    gc.collect()
    gc.disable()
    try:
        before = sum(isinstance(o, Engine) for o in gc.get_objects())
        run_trial(cfg, 3)
        after = sum(isinstance(o, Engine) for o in gc.get_objects())
    finally:
        gc.enable()
    assert after == before


def test_cli_failing_verdict_exits_1(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "app": "path", "n": 30, "seeds": [0],
        "ceilings": {"max_rounds": 3},
    }))
    out_file = tmp_path / "o.json"
    assert main(["--config", str(cfg_file), "--out", str(out_file)]) == 1


def test_cli_dump_graph_and_trace(tmp_path):
    gfile = tmp_path / "g.json"
    tfile = tmp_path / "t.jsonl"
    ofile = tmp_path / "o.json"
    code = main([
        "--app", "path", "--n", "5", "--seeds", "0",
        "--dump-graph", str(gfile), "--trace", str(tfile), "--out", str(ofile),
    ])
    assert code == 0
    g = json.loads(gfile.read_text())
    assert set(g) == {"tasks", "edges"}
    assert len(g["tasks"]) == 5
    assert all(len(t) == 3 for t in g["tasks"])
    lines = [json.loads(l) for l in tfile.read_text().splitlines()]
    assert len(lines) == 6  # 5 task rounds + delivery
    assert set(lines[0]) == {"seed", "round", "scheduled", "reports", "f_size"}
    assert [l["round"] for l in lines] == list(range(6))


def test_cli_stdout_default(capsys):
    code = main(["--app", "path", "--n", "4", "--seeds", "7", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("seed,app,strategy")
    assert len(out.strip().split("\n")) == 3


def test_matmul_trial_oracle_checks_product():
    cfg = ExperimentConfig(app="matmul", n=4, m=8, tau=8, beta=0.0,
                           strategy="honest", seeds=(0,))
    batch = run_experiment(cfg)
    assert batch.trials[0]["output_ok"] is True
    assert batch.all_pass


def test_mergesort_trial_oracle_checks_sort():
    cfg = ExperimentConfig(app="mergesort", n=4, m=32, beta=0.2,
                           strategy="random_mix", seeds=(0, 1))
    batch = run_experiment(cfg)
    assert all(t["output_ok"] for t in batch.trials)


def test_dag_app_uses_width_and_depth():
    cfg = ExperimentConfig(app="dag", n=6, m=3, beta=0.0,
                           strategy="honest", seeds=(0,))
    row = run_trial(cfg, 0)
    assert row["rounds"] == 7  # depth 6 plus inline delivery round
    assert row["output_ok"] is True
