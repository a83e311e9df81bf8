"""The scripts under scripts/ run against the package at tiny sizes: each
exits 0 and prints its column header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, columns",
    [
        (["beta_sweep.py", "--n", "16", "--trials", "2", "--betas", "0,0.05"],
         ["beta", "strategy", "rounds", "sends", "recvs", "1/(1-b)"]),
        (["adversary_matrix.py", "mergesort", "--m", "64", "--n", "4", "--trials", "2"],
         ["strategy", "done", "ok", "max", "rounds", "mean", "comp", "mean", "comm"]),
        (["adversary_matrix.py", "matmul", "--m", "16", "--n", "4", "--trials", "2"],
         ["strategy", "done", "ok", "max", "rounds", "mean", "comp", "mean", "comm"]),
    ],
    ids=["beta_sweep", "adversary_matrix-mergesort", "adversary_matrix-matmul"],
)
def test_script_runs_and_prints_its_header(argv, columns):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) > 3  # title, header, rule, then at least one row
    assert lines[1].split() == columns
