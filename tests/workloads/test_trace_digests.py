"""Pinned bytes of every generated workload.

Each digest is the SHA-256 of ``b"".join(trace.stream_bytes())`` for the
packed trace a workload generates.  A generator change that moves any
operation, address or write bit of any core fails here, before any
simulation result can drift.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.sim.trace import PackedTrace
from repro.workloads import store
from repro.workloads.suite import build_workload, workload_names

#: (num_cores, ops_per_core, seed) -> workload -> SHA-256 of its streams.
DIGESTS = {
    (4, 200, 5): {
        "blackscholes-like": "80be25ec2dc28d3a9cfb75190f6cbdadf69b5aa614e84d369a5d67c9e29998f6",
        "swaptions-like": "6b45d78e34651d0bc5614f17c60841a998d6ec66865463aa93c2c486474132c3",
        "bodytrack-like": "5b7292b7bd0e0e0ef5385bddeb6da2cfe817d03d2474801579dbf9ce4cdba002",
        "fluidanimate-like": "4625c3eb55002c6c8b77b04b3595652aba0aa761232e7d6075cb66415c2199e1",
        "canneal-like": "89c2287abbd73938be781591d101a243dc56734d2b45e5d02cedf46004218ad3",
        "barnes-like": "b0d811fbb0b8c0e41577b32a46c8f294addcebe8016c976fd50ff57ff4372905",
        "ocean-like": "c39f22886051b89058a157febebb4e9f07e7d0344dbf58337b6019adaa34d593",
        "radix-like": "55b344c8a2799cd93aa28cefcb5188af4443a10912b85f5cbe3b183d173a3288",
        "mix": "bc67588bc7eed7ffa00ff66cdc5e0181657091e4cae8fafdab5417582923598f",
        "falseshare-like": "abbdc294f70ce80800b0fa3314d23963c6712d20a20077e195472ae8aa878a5a",
        "locks-like": "2be7cf1d8454b11f382712933c8de0ddb2973f735cae2497cf658d77f37b97e3",
        "phased-like": "5a8c6935769338909b96d8f0c8f57d2d6a31067c5bbcdfabcecf53d2606fff3e",
        "weakscale-like": "1a34119eee824e81016c5edc3d20f70cf3bc053c8549aa2fe8c3cb674863a123",
        "louvain-like": "a30dc94e2441af13116b59efd121a8a15c15a7a0925d6deec85b351a3a8031a3",
        "matmul-like": "7ce6455334c3651457ba83a8aab2a74e738e3f8079d86f2d999a2ad076d1feeb",
        "sieve-like": "9848f9922a7beb8d7627174aca8f22ef3f36d3233e1743a7b93c4f6dd04218b8",
        "unionfind-like": "cdeeec7c30c78987c8239b2d10a525b586e0d56ff212995f599725582e5a9525",
    },
    (16, 300, 1): {
        "blackscholes-like": "88fc06448d86b8ff0da79ead22ba41203c6e4514229e13c4daabee2ce1e7b2d5",
        "swaptions-like": "e56e297e31586ca64e8a66d5157adfa83e894f115c45aba9ea54b92441bd0d06",
        "bodytrack-like": "b8fa0b006f24cdcfa1cc691177c72bc8708e266cbc398b36ffb3d7472adfa2ef",
        "fluidanimate-like": "f301fa2c17ed54ca023f1a3d28d170ac7782394c8e2b994146a6563cce730892",
        "canneal-like": "f97337a2b87ccd761ae88b2b911d55fc3893eace0847b283e4c4462b55dfad7a",
        "barnes-like": "15710259208679e922784f0a0f18dd0586350da7d131a587613fa3810d2cc2be",
        "ocean-like": "8274584b73ceb9536035587a26d233dee9daa498eafca404bc5e37294b169b00",
        "radix-like": "47348e85c82e75b77d6a162cb2803fe13f78a55be5a42b310b2738084cb72c1f",
        "mix": "f07cbc4f1963c96cd64d74a7a005b531f6f814478e539b24170c07fa8faf5e11",
        "falseshare-like": "337d3d7be70658a9b330d89c90ab529b428ccecda9fb999e89716dfaa8a8c508",
        "locks-like": "9c2e3f1febef8630dc01f1d4d26341f3e3f83a708054a798de7ae5e862ad93da",
        "phased-like": "70a44122bc9ae8d5b4c964680f47696d6aa9265c948c5dc1e49c7da2694a1c5f",
        "weakscale-like": "26e81d82bb51d7eade126acb701ede1b803d2601d598153bbd9ee70a8f86e99e",
        "louvain-like": "4656583f901109cb0809be6499e7ead9f39277054f0a05865e6c82ed04badf71",
        "matmul-like": "7f442f8d366fabdd93fa5f4b66cd3491674ce3fcf3ebb0f90555a1c570fe2af3",
        "sieve-like": "154d1227734da46bc1571b19e98041ccdecbb7958f5d3734957fc900a47e2ae2",
        "unionfind-like": "1fd8af1ed463f8940b15e515bee653c68a764063e2a8abc0e5c2a8c15f5a44bd",
    },
    (64, 500, 3): {
        "blackscholes-like": "66d26bb95abe2e0e591aa4c4ec4777eae506a87c8c8838976d28d6bd94a1189d",
        "swaptions-like": "9106739eda9d2ece84b58eb2f8af29bc1d7f3312f0efbc3e848421fef306d4d0",
        "bodytrack-like": "f05a53461297ec1202f41a30de16427c554b145784ebb9b84fa846eace172ab9",
        "fluidanimate-like": "9daaa875c5dec9785161b9e9db2ba6a08a212c68c7d3caea497c8fc3e17a61a4",
        "canneal-like": "54bf9d5ba194367621d0dfbb6f64f6e1de8615d9a81bae208260c9e66ea876f3",
        "barnes-like": "bbf41722b50f1c27c05e694ce2faff92f85601ab0533206ccd03f07a4b5daee8",
        "ocean-like": "4b2b5cdece4602fa2d574347de75f811ca716965026350cc4bea5a659028455d",
        "radix-like": "2be7e9998b5376d2620787d899c13f31bf7ad89a25a78a8ce93186978abd5875",
        "mix": "1d5fb806e60cb978993f6d27a614dc54ada9bb48f3595ac27773fb9f193f613e",
        "falseshare-like": "e16be704a8f032d4c4ee38d1e269a6203bc91f1c892d9a3c11c84cdb52a154ef",
        "locks-like": "9b8e9d48f26701b834944b35623dbffb34a279896f67c39a2d3b7228358132d1",
        "phased-like": "ba0adb5eba36d037c2ef851b15508a76f3e6f77d6559e9c880e36b70ee6fd4b7",
        "weakscale-like": "90f0215fc63734fd70d25e2d0119a2540a92307228702e59e12f33645aa28c07",
        "louvain-like": "fc22abb6a689ff91da70ea8055dfa11f34328652d899b73d97904fc328afe5ca",
        "matmul-like": "87d9bf9bd96fe99b07c89b3670e78745229baa32990acccf090405caefa9b4eb",
        "sieve-like": "2716716f4ee3ab71cd46b3fb00b27b77d90b5f415cf6660034b1e48b678eeb18",
        "unionfind-like": "3f7828b02a08d958f14889169d0f5b22f5b3b3f01d44c7e6d5166c9fdca43563",
    },
}

#: ``mix`` at 150 ops/core, seed 2: num_cores -> SHA-256.  1-3 cores give
#: ``quarter = 1`` with fewer than four groups; 5 and 6 cores fold the
#: remainder cores into the last (migratory) group.
MIX_DIGESTS = {
    1: "0ff29e39912dae334a8e21eeaf3e71120d5c8b9d4c369dd8024d133e7c080a2d",
    2: "b9d43f0c27c9684b6b83ac5cc835475ad76016fb0554cd51991d6288c667fbee",
    3: "967d9b8f1dbde25b008b8889610bbefe42abd3a842b9997c8b51e53f4fb18664",
    5: "1d46f0eda27226897113e0d65198f268368e989217a5c5ee10adab5a202dd553",
    6: "bedea847333470eb6e8a1c8a0fb2ce3d433fe5a67f5b4936f04af99fcca17000",
}

SIZED_CASES = [
    (size, name) for size, table in DIGESTS.items() for name in table
]


def digest(trace: PackedTrace) -> str:
    return hashlib.sha256(b"".join(trace.stream_bytes())).hexdigest()


@pytest.fixture(autouse=True)
def cold_trace_memo():
    """Generate every trace here rather than reuse another test's memo."""
    store.clear_memo()
    yield
    store.clear_memo()


@pytest.mark.parametrize("size", sorted(DIGESTS))
def test_every_registered_workload_is_pinned(size):
    assert sorted(DIGESTS[size]) == sorted(workload_names())


@pytest.mark.parametrize(
    "size,name", SIZED_CASES, ids=[f"{n}-{c}x{o}" for (c, o, _), n in SIZED_CASES]
)
def test_store_trace_bytes_are_pinned(size, name):
    num_cores, ops_per_core, seed = size
    trace = store.get_packed_trace(name, num_cores, ops_per_core, seed=seed)
    assert trace.num_cores == num_cores
    assert [len(s) for s in trace.streams] == [ops_per_core] * num_cores
    assert digest(trace) == DIGESTS[size][name]


@pytest.mark.parametrize("num_cores", sorted(MIX_DIGESTS))
def test_mix_group_edges_are_pinned(num_cores):
    trace = store.get_packed_trace("mix", num_cores, 150, seed=2)
    assert trace.num_cores == num_cores
    assert digest(trace) == MIX_DIGESTS[num_cores]


@pytest.mark.parametrize("name", workload_names())
def test_build_workload_matches_the_store(name):
    stored = store.get_packed_trace(name, 16, 300, seed=1)
    built = PackedTrace.from_trace(build_workload(name, 16, 300, seed=1))
    assert built == stored
