"""Golden bytes: every app under every built-in strategy, pinned.

Each batch runs three seeds at beta=0.1 and small sizes.  Its fingerprint
is one blake2b over the batch's JSON (`emit`) followed by its `--trace`
JSONL, so any change to a modelled counter, a round, a report or the
finished-set size shows up here.  The same batch's CSV bytes, summary row
included, have a digest of their own, and one more batch per app pins the
verdicts of a `mean_`, a `max_` and a `p99_` ceiling.  A refactor must
leave every digest as it is; a deliberate change in behaviour regenerates
the tables with

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

GOLDEN_CSV = {
    ("path", "always_reject"): "b25c7e4a57b335858cde4cda7d3a3818",
    ("path", "corrupt_output"): "71db0fcaf7b044d1927f72aa7168bd3d",
    ("path", "count_cheat"): "5e1ccb95f5530784a69bf8c539bfffd4",
    ("path", "forge_everything"): "b71bd090923bc9804a8d48d0d341e8ba",
    ("path", "honest"): "22a48b4f2a46698ac2ee2ff6d80ebfea",
    ("path", "honest_until_end"): "54301a2e347afd70d3323b1ad630e227",
    ("path", "random_mix"): "b02f4060b0ab272afbfd9fd770b33fc7",
    ("path", "silent"): "246bf3e183347fa0c4797bb7761330f7",
    ("path", "wrong_product"): "73c0c06a546b19073727be17e87c139c",
    ("dag", "always_reject"): "56a8c4dec795dc58bb51c6f3eeaa40d7",
    ("dag", "corrupt_output"): "50e8cdfb983bcd1144257a0287451632",
    ("dag", "count_cheat"): "70a1ddb66f17c0acf41576b6224a9379",
    ("dag", "forge_everything"): "d2dbb8411e2d716e93def97a0de6a225",
    ("dag", "honest"): "b9435c1f5f0690fb227a954ca7676043",
    ("dag", "honest_until_end"): "679f5c6282ed4e4c9f8b4e6d89d86696",
    ("dag", "random_mix"): "8416b6046ae24b888b24a85868cf754b",
    ("dag", "silent"): "c2c1e16e3b2660b2f19d7856c0207bb9",
    ("dag", "wrong_product"): "1d40b5cbe8d40484ace88228992024ab",
    ("matmul", "always_reject"): "1c939ecbc5e09eadbd62bcf7c9dbf319",
    ("matmul", "corrupt_output"): "64c339d4c36c7fd8b560d39d6eefe805",
    ("matmul", "count_cheat"): "f2215319c96d1740a771d0a107d3755d",
    ("matmul", "forge_everything"): "684979ea0a1aa8fc41c4cf2cf1f9d31d",
    ("matmul", "honest"): "be30555a80b648bc8660677e2b4bc974",
    ("matmul", "honest_until_end"): "010f69c3a8caa1d4148b8f506e09338e",
    ("matmul", "random_mix"): "2f3d4bdc794ecac495e8277ccf8368ff",
    ("matmul", "silent"): "a98a4d189a576e592bfc14bbccee0d9d",
    ("matmul", "wrong_product"): "320d80b389ef98828c8b29682d8e1367",
    ("mergesort", "always_reject"): "00a69b277e1597e9a3361326893a06a7",
    ("mergesort", "corrupt_output"): "b6f816aa9264c54c4ed9a562c734ae4a",
    ("mergesort", "count_cheat"): "19728bcd742cab11ec68f7a8b47d031d",
    ("mergesort", "forge_everything"): "36f52be3607c4579312bcbdccedb8647",
    ("mergesort", "honest"): "c7c85562fef220320c04eb752951acc2",
    ("mergesort", "honest_until_end"): "a1bfd9a7771952842d4b6b3097058a43",
    ("mergesort", "random_mix"): "cc48cea57e4a4e25f9cb37faaf774740",
    ("mergesort", "silent"): "b023f8ab1c4b3745d53c8b6ae799751c",
    ("mergesort", "wrong_product"): "bd562eb47a0eeb98d915492a65eb82ec",
}

# one ceiling of each kind over counters outside the summary; no batch
# ends in one round, so max_rounds fails everywhere
CEILINGS = {"mean_verify_worker": 10**6, "max_rounds": 1,
            "p99_supervisor_msgs": 500}

GOLDEN_CEILINGS = {
    "path": "8598a9fe4c1cb2d7a80d6cc516e55030",
    "dag": "3033e033fac999a5d8e363dddc9cbb21",
    "matmul": "1754d99749ebe01b1fdc33a35c0dbc1f",
    "mergesort": "d6f0b82f25c80866f2def15cbbc49935",
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def batch_digests(app: str, strategy: str, trace_dir: Path) -> tuple[str, str]:
    """Digests of the batch's JSON followed by its trace, and of its CSV."""
    cfg = ExperimentConfig(app=app, strategy=strategy, beta=0.1, seeds=(0, 1, 2),
                           **SIZES[app])
    trace = trace_dir / f"{app}-{strategy}.jsonl"
    batch = run_experiment(cfg, trace_path=str(trace))
    return _digest(emit(batch) + trace.read_bytes()), _digest(emit(batch, "csv"))


def ceiling_digest(app: str) -> str:
    """Digest of a random_mix batch's JSON with CEILINGS."""
    cfg = ExperimentConfig(app=app, strategy="random_mix", beta=0.1,
                           seeds=(0, 1, 2), ceilings=dict(CEILINGS), **SIZES[app])
    batch = run_experiment(cfg)
    assert [v["pass"] for v in batch.verdicts[-3:]] == [False, True, True]
    return _digest(emit(batch))


CASES = [(app, s) for app in SIZES for s in sorted(builtin_strategies())]


@pytest.mark.parametrize("app,strategy", CASES, ids=[f"{a}-{s}" for a, s in CASES])
def test_golden_bytes(app, strategy, tmp_path):
    assert batch_digests(app, strategy, tmp_path) == (
        GOLDEN[(app, strategy)], GOLDEN_CSV[(app, strategy)])


@pytest.mark.parametrize("app", sorted(SIZES))
def test_golden_ceiling_verdicts(app):
    assert ceiling_digest(app) == GOLDEN_CEILINGS[app]


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(GOLDEN_CSV) == sorted(CASES)
    assert sorted(GOLDEN_CEILINGS) == sorted(SIZES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: batch_digests(*case, Path(tmp)) for case in CASES}
    for i, name in enumerate(("GOLDEN", "GOLDEN_CSV")):
        print(f"{name} = {{")
        for (app, strategy), pair in digests.items():
            print(f'    ("{app}", "{strategy}"): "{pair[i]}",')
        print("}\n")
    print("GOLDEN_CEILINGS = {")
    for app in SIZES:
        print(f'    "{app}": "{ceiling_digest(app)}",')
    print("}")
