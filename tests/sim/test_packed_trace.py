"""PackedTrace: word encoding, address-range edges, serialization."""

from __future__ import annotations

import pytest

from repro.common.errors import TraceError
from repro.sim.trace import MAX_PACKED_ADDR, PackedTrace
from repro.workloads.characterize import profile_trace
from repro.workloads.suite import build_workload
from tests.conftest import core_ops

#: (core, addr, is_write) of :func:`sample_trace`, in append order.
SAMPLE_OPS = [
    (0, 0x1000, False),
    (0, 0x1040, True),
    (1, 0x0, True),
    (1, 0x2FC0, False),
]


def sample_trace() -> PackedTrace:
    trace = PackedTrace(3)
    for core, addr, is_write in SAMPLE_OPS:
        trace.append(core, addr, is_write)
    # core 2 deliberately left empty: round-trips must keep empty streams.
    return trace


class TestRoundTrip:
    def test_pack_unpack_is_lossless(self):
        trace = sample_trace()
        for core in range(3):
            assert core_ops(trace, core) == [
                (addr, is_write) for c, addr, is_write in SAMPLE_OPS if c == core
            ]

    def test_encoding_is_addr_shl_1_or_write(self):
        packed = sample_trace()
        assert list(packed.streams[0]) == [(0x1000 << 1), (0x1040 << 1) | 1]
        assert list(packed.streams[1]) == [1, (0x2FC0 << 1)]

    def test_workload_trace_round_trips(self, tmp_path):
        packed = build_workload("mix", 8, 200, seed=5)
        packed.to_file(tmp_path / "mix.csv")
        assert PackedTrace.from_file(tmp_path / "mix.csv", 8) == packed

    def test_counts_and_bytes(self):
        packed = sample_trace()
        assert packed.num_cores == 3
        assert [len(stream) for stream in packed.streams] == [2, 2, 0]
        assert packed.total_ops() == 4
        assert [len(blob) for blob in packed.stream_bytes()] == [16, 16, 0]

    def test_equality(self):
        a = sample_trace()
        b = sample_trace()
        assert a == b
        b.append(2, 0x40, True)
        assert a != b
        assert a.__eq__(object()) is NotImplemented

    def test_to_file_writes_the_unpacked_csv(self, tmp_path):
        sample_trace().to_file(tmp_path / "packed.csv")
        assert (tmp_path / "packed.csv").read_text() == (
            "# core,addr,rw\n"
            "0,0x1000,R\n"
            "0,0x1040,W\n"
            "1,0x0,W\n"
            "1,0x2fc0,R\n"
        )

    def test_inspection_matches_unpacked(self):
        for trace in (sample_trace(), build_workload("mix", 8, 200, seed=5)):
            ops = [op for core in range(trace.num_cores) for op in core_ops(trace, core)]
            for block_bytes in (1, 64, 4096):
                profile = profile_trace(trace, block_bytes)
                assert profile.write_fraction == (
                    sum(w for _, w in ops) / len(ops)
                )
                shift = block_bytes.bit_length() - 1
                assert profile.unique_blocks == len({a >> shift for a, _ in ops})
        assert profile_trace(PackedTrace(2), 64).write_fraction == 0.0
        assert profile_trace(PackedTrace(2), 64).unique_blocks == 0

    def test_from_file_matches_trace_from_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0x1000,R\n1,0x0,W\n0,4160,w\n1,0x2FC0,r\n")
        assert PackedTrace.from_file(path, num_cores=3) == sample_trace()


class TestAddressRange:
    def test_max_packed_addr_round_trips(self):
        packed = PackedTrace(1)
        packed.append(0, MAX_PACKED_ADDR, True)
        packed.append(0, MAX_PACKED_ADDR, False)
        assert core_ops(packed, 0) == [
            (MAX_PACKED_ADDR, True),
            (MAX_PACKED_ADDR, False),
        ]

    def test_append_beyond_max_raises(self):
        packed = PackedTrace(1)
        with pytest.raises(TraceError, match="packable range"):
            packed.append(0, MAX_PACKED_ADDR + 1, False)

    def test_negative_address_rejected(self):
        packed = PackedTrace(1)
        with pytest.raises(TraceError, match="packable range"):
            packed.append(0, -1, False)


class TestValidation:
    def test_needs_a_core(self):
        with pytest.raises(TraceError, match="at least one core"):
            PackedTrace(0)

    def test_core_bounds(self):
        packed = PackedTrace(2)
        with pytest.raises(TraceError, match="outside"):
            packed.append(2, 0x40, False)

    def test_stream_count_must_match_cores(self):
        from array import array

        with pytest.raises(TraceError, match="streams"):
            PackedTrace(3, [array("Q"), array("Q")])


class TestStreamBytes:
    def test_little_endian_layout(self):
        packed = PackedTrace(1)
        packed.append(0, 0x2, True)  # word 0x5
        assert packed.stream_bytes() == [b"\x05" + b"\x00" * 7]
