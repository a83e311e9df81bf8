"""Golden bytes: every app under every built-in strategy, pinned.

Each batch runs three seeds at beta=0.1 and small sizes.  Its fingerprint
is one blake2b over the batch's JSON (`emit`) followed by its `--trace`
JSONL, so any change to a modelled counter, a round, a report or the
finished-set size shows up here.  A refactor must leave every digest as
it is; a deliberate change in behaviour regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from supsim.adversary import builtin_strategies
from supsim.harness import ExperimentConfig, emit, run_experiment

SIZES = {
    "path": dict(n=16),
    "dag": dict(n=6, m=4),
    "matmul": dict(n=4, m=16),
    "mergesort": dict(n=4, m=64),
}

GOLDEN = {
    ("path", "always_reject"): "c54cd5f81cd4caead584982511d6b9c5",
    ("path", "corrupt_output"): "368b87a67314c253b37cfce435efbcdc",
    ("path", "count_cheat"): "9aa5cb8c79f7ded1000181698ec79056",
    ("path", "forge_everything"): "a1b32e1cfd9b05fadf358d7e434e1721",
    ("path", "honest"): "98d7ad9385e574258491de17a60bc4ff",
    ("path", "honest_until_end"): "de677dd325ddacfc8e306243be04e90f",
    ("path", "random_mix"): "895c07ff94f24418edd56385a9d2d161",
    ("path", "silent"): "3cc5b2d10b2302f5afbe98c3e4584f0b",
    ("path", "wrong_product"): "7cccd1eaf74e632802eec15fe59d6db9",
    ("dag", "always_reject"): "c13dafda5830c6cafb942d9c0e59ddf1",
    ("dag", "corrupt_output"): "2d3e09e137a2cb14507c1b3d624c186c",
    ("dag", "count_cheat"): "f9f886033cb28ffcca4e58e087a69f81",
    ("dag", "forge_everything"): "9457b9ae711603119ce214bffb0f6f7b",
    ("dag", "honest"): "ffe78b37436f0e9f4f942a363ee90d3a",
    ("dag", "honest_until_end"): "fd48f4a59ba94806b366aa1c7caf99cc",
    ("dag", "random_mix"): "b6d842e3b661720e8e85cb67c751049b",
    ("dag", "silent"): "e6a670b2eb0fe7356356d1f986168193",
    ("dag", "wrong_product"): "03f63a861a1fdebd659ac02a39b8194f",
    ("matmul", "always_reject"): "1ad59edd5983ace48849fbc5411f66f1",
    ("matmul", "corrupt_output"): "6555271db22e24e25b2e65d7185f64ad",
    ("matmul", "count_cheat"): "2961591980c178e81c41c877dff3a8d7",
    ("matmul", "forge_everything"): "23c99cbba08373038afbc5b4abfd360b",
    ("matmul", "honest"): "c83765bed19ab0f71e3fe89688208a60",
    ("matmul", "honest_until_end"): "959ec12b97f2bceeed03940a5bfbe5ca",
    ("matmul", "random_mix"): "9daeaa0fef62dd458c0b80c693b2b6dd",
    ("matmul", "silent"): "b84ea25189def988b826b4872d2a0881",
    ("matmul", "wrong_product"): "9b69327f29e6d301e5f33ac400f8a9c1",
    ("mergesort", "always_reject"): "4dabe415250198703d62aeab247fa19c",
    ("mergesort", "corrupt_output"): "0ee2da869f0a7fdb225108664714926b",
    ("mergesort", "count_cheat"): "dbdda36292275f26208a7f50fd80140c",
    ("mergesort", "forge_everything"): "d91816a95075f04a36700ee9242ff069",
    ("mergesort", "honest"): "e958026d27b05a230da70b39d7857f56",
    ("mergesort", "honest_until_end"): "fe7adca6da1083468294c02ef5d2f693",
    ("mergesort", "random_mix"): "9da7149989def558a2c3d7a65f0a177f",
    ("mergesort", "silent"): "c384aad2bb31a282af57cdc1d9b63d7a",
    ("mergesort", "wrong_product"): "1836df4dd4a1872e11e079a26a2f2699",
}


def batch_digest(app: str, strategy: str, trace_dir: Path) -> str:
    cfg = ExperimentConfig(app=app, strategy=strategy, beta=0.1, seeds=(0, 1, 2),
                           **SIZES[app])
    trace = trace_dir / f"{app}-{strategy}.jsonl"
    batch = run_experiment(cfg, trace_path=str(trace))
    return hashlib.blake2b(emit(batch) + trace.read_bytes(),
                           digest_size=16).hexdigest()


CASES = [(app, s) for app in SIZES for s in sorted(builtin_strategies())]


@pytest.mark.parametrize("app,strategy", CASES, ids=[f"{a}-{s}" for a, s in CASES])
def test_golden_bytes(app, strategy, tmp_path):
    assert batch_digest(app, strategy, tmp_path) == GOLDEN[(app, strategy)]


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for app, strategy in CASES:
            digest = batch_digest(app, strategy, Path(tmp))
            print(f'    ("{app}", "{strategy}"): "{digest}",')
