import csv
import gc
import io
import json

import numpy as np
import pytest

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
    assert rows[0] == list(ROW_FIELDS)
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
    "args, text, names",
    [
        (["--app", "path", "--n", "0"], None, "n=0"),
        (["--app", "dag", "--m", "0"], None, "width=0"),
        (["--app", "matmul", "--m", "8", "--n", "16"], None, "m=8 too small"),
        (["--app", "mergesort", "--n", "3"], None, "got 3"),
        (["--app", "mergesort"], "-5\n", "input.txt:1"),
        (["--app", "matmul", "--n", "16"], "-5\n", "not a matrix-pair file"),
        (["--app", "matmul", "--n", "16", "--m", "16"], (16, 2), "n=k^2=4"),
        (["--app", "matmul", "--n", "4", "--m", "32"], (16, 2), "m=16, but"),
        (["--app", "mergesort", "--n", "4", "--m", "1024"], "7\n" * 16,
         "holds 16 values, but m=1024"),
    ],
    ids=["path-n0", "dag-m0", "matmul-m8-n16", "mergesort-n3", "negative-input",
         "matmul-bad-input", "matmul-input-k", "matmul-input-m",
         "mergesort-input-m"],
)
def test_cli_shape_and_input_errors_exit_2(tmp_path, capsys, args, text, names):
    if text is not None:
        path = tmp_path / "input.txt"
        _write_input(path, text)
        args = args + ["--input", str(path)]
    assert main(args + ["--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and names in err


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
