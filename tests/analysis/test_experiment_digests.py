"""Byte-for-byte pins of every experiment's output.

Each registered experiment runs at 100 ops/core on one worker, with the
result cache and the trace spool off and the memo cleared.  The SHA-256
of its rendered text and of its data (``json.dumps`` with sorted keys)
must equal the digests below.  The stdout of one ``repro sweep`` and the
file one ``repro report`` writes are pinned the same way.  Refactors of
the sweep layer must leave every digest as it is; a change that alters a
figure on purpose updates the digest it names.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis import runner
from repro.cli import EXPERIMENTS, main

OPS = 100

#: Experiments that take no trace length.
NO_OPS = ("T1", "T2")

#: id -> (sha256 of out.text, sha256 of the sorted-key JSON of out.data).
EXPERIMENT_DIGESTS = {
    "T1": (
        "965859527453ebf608ef9e7397f0190b293bce1a6d83e1c768c746837672747a",
        "5ec2951f21b8eb448649eb85a89381c89632108f924caeb7f25c2872ed04769b",
    ),
    "T2": (
        "ae12834f6f8f41dccba8c98c835dbc11314a44b054716551d93c9f5703048188",
        "f2ebf8ff42aabcbd2cace8254cb65b9d1e7ff29d1d583c55f5a86fca50ed805a",
    ),
    "F1": (
        "5b3892eb262a299b95854c0abc0eb0455d26ef1a2d9f3e054cdfcd802aaaca8b",
        "0f8b01104de712f7318e8e499f4680ba1a2529358a9144bd9b199306dccefdb7",
    ),
    "F2": (
        "fae11a7469606c31a9ed9013b5295dabc79b7b43f95445789115c2af39c7ac8b",
        "a53bb92f5632f54cfb69974174dd6dc777e325cfc3c1105e1ea76c34c3debbb0",
    ),
    "F3": (
        "95ba70164080ae1d6e973268eca771afd6f3272d0f9d6d5c7831a311f5a4c561",
        "ed8e89f9486059cab334f49de795382e36a9a83d4f37ed6bc3cdb0ec2571e7be",
    ),
    "F4": (
        "9a44d78745a274437a09045c1402b2fe7aff9bbce38a4be1f8f0374c919b647c",
        "14da1c3526008b78a52c078991489dd733b23e401226d81177c9194327c67439",
    ),
    "F5": (
        "b37e6b581e901dc875d2c73db1e5760fabe0e5b79cea539649aa7e20fa495492",
        "35f04c2bccf4a78c1070b1ebb299b9bc3483093924f07bc898c9351d71fb5f06",
    ),
    "F6": (
        "c2a2011ad646cc552a9c4c22adee78891653621c5a3e8bb404e798e26a9ba989",
        "314ecb0c7b74c13f92a86e448bb772de47c2af98ba9def1b1652659c9d00fab5",
    ),
    "F7": (
        "423142787f388068c365a125040c460a655c94e9e0c07cd8dcb765e7f8b80017",
        "1d06d076b94dffca0894177e004681f20880a2a7b6317b24bef1a8fdf35a5ec3",
    ),
    "F8": (
        "2de6abab28a2224b6833ea27bb9e37ca5e1a3add3da4ef02878de746bd4ceb95",
        "2fbce706bd48636e3a9c6f8ea9976a138153fcc55fe92a7739f888f82af21549",
    ),
    "F9": (
        "9c4bb4f43cf02d326fab6dae59351d2bab20f54d00d40e90ca075e6a70031120",
        "ce5c5bda300cfc8577f186ccda2f9a4caae71016f919b2fead6a8bc925d3dec6",
    ),
    "F10": (
        "d80652d111ce979da7d917f6f17c4980cd2f89f2969f82370d686e0c0fcf04f6",
        "7ffbf14ab5252a77124b9e9ee08b762c40fe0a217c6734fb1276119fbcf0f1c0",
    ),
    "F11": (
        "9a7793ca5665c31a77d3bf8d44339678634ce8bb54452861b96637025cf9469f",
        "95ea5bc8abc2d8471c5d646f363bbcee249fc2786d5295e3df2a2368fccbeb5f",
    ),
    "S3": (
        "4fdbad7e579b5f077c21dd795aa560feaf7d1c482c3b4db253a6b994ba3b1bf7",
        "dc929b4a1ba70ca361ea5ddbbd1662e31cab670bc0c2c0611d01aac425c2d9b9",
    ),
    "A1": (
        "4ccaea0d003ee5fb1b524218434cae37ca22c5ccdb5c015ed7791fedd33c5f0a",
        "acc2fa8a8de45641016de8511bd9008f3cb054992e0a145af5433f8eccf37886",
    ),
    "A2": (
        "d39cf51bcb0c6409b86f6b504df8bd5447bfec6b5a730d22ba88d13daa778e74",
        "6112720626829ffbd8050107795a63cfb86dc71c329144f4a813893c6121c6f2",
    ),
    "A3": (
        "1e6f188638f99bf75c88123b1fa5454eb0bc0b5851773e2d684cada08523607e",
        "81e562ad8701172b8901d1cd41790c99ecfd24f8da43159dfd97d2f9cb73ba24",
    ),
    "headline": (
        "eaf87121a3a3c46e516ef5eb52cfe5ed48b385bcef1d7bf5f0d18ce7765b9862",
        "9649a215246459befb8b963e8e0cb125daf1574439ac48b70bcb2edc6936187c",
    ),
    "S1": (
        "d60e46c6db68795e22cfd1d6baf7fef5ae2adb1a415a5b256a073049452b0773",
        "8cae978a54100c5c46118edda92af99a15c3040dcc3e6c9ec89d4ae2274a32b7",
    ),
    "S2": (
        "c0b329c68be8e88be634a75c0c7869fce9bdef2073c03f3d67040c4ad45f9a3e",
        "314aa3a38f3bb71cc2d4b9611d0cc298609bfc5e49cc9e1ba0047061920169e2",
    ),
    "S4": (
        "9438438b5ce137b1641f0023eb7c5b549a49bcbb045c81701d0f11cfcdac2fcf",
        "7771003ee76d94ed5800825711974bd29e864177eaf0454c2dfb422480361888",
    ),
    "A4": (
        "9831b163a64fda3ce9a69641d054ad1f57a2fdd433c160fb2b83022794dfffe3",
        "3e5aaf7c31bebe9e80200504ba27009db72e2006b41737a4d43e9a6d5a577e32",
    ),
    "A5": (
        "97bc829b84253579b53e5e612c0d1ce740b166867f3b77e84104d93917e5f4d7",
        "836a5b47cfbcc649602fca7f4bca62b313afe0238e8c7cade7632187dbad1b4a",
    ),
}

SWEEP_ARGS = [
    "sweep", "--workload", "mix", "--ops", str(OPS),
    "--kinds", "sparse", "stash", "--ratios", "1.0", "0.125",
]
SWEEP_STDOUT_DIGEST = (
    "ed0d8922751d76fe873ad63e102910cc4da44bc395098e48e07978f45bf43d93"
)

PINNED_SECTIONS = ["T1", "F3", "headline"]
REPORT_FILE_DIGEST = (
    "ce67aa3b5c202f3cee31f2d9c7af82537d13ba13d860648e0e13ab87f3054b00"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def experiment_digests(exp_id: str):
    run = EXPERIMENTS[exp_id].run
    out = run() if exp_id in NO_OPS else run(ops_per_core=OPS)
    return sha256(out.text), sha256(json.dumps(out.data, sort_keys=True))


@pytest.fixture
def cold(tmp_path):
    """One worker, result cache and trace spool off, memo cleared."""
    previous = runner.configure()
    runner.configure(
        workers=1, cache_dir=tmp_path, cache_enabled=False,
        trace_cache_enabled=False,
    )
    runner.clear_memo()
    yield
    runner.configure(**previous)
    runner.clear_memo()


def test_every_experiment_is_pinned():
    assert sorted(EXPERIMENTS) == sorted(EXPERIMENT_DIGESTS)


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENT_DIGESTS))
def test_experiment_output_unchanged(cold, exp_id):
    assert experiment_digests(exp_id) == EXPERIMENT_DIGESTS[exp_id]


def test_sweep_stdout_unchanged(cold, capsys):
    assert main(["--no-cache", "--no-trace-cache", *SWEEP_ARGS]) == 0
    assert sha256(capsys.readouterr().out) == SWEEP_STDOUT_DIGEST


def test_report_file_unchanged(cold, tmp_path, capsys):
    path = tmp_path / "REPORT.md"
    assert main([
        "--no-cache", "--no-trace-cache", "report", str(path),
        "--ops", str(OPS), "--sections", *PINNED_SECTIONS,
    ]) == 0
    assert sha256(path.read_text()) == REPORT_FILE_DIGEST
