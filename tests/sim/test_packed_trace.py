"""PackedTrace: lossless conversion, address-range edges, serialization."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError, TraceError
from repro.sim.trace import MAX_PACKED_ADDR, PackedTrace, Trace
from repro.workloads.suite import build_workload


def sample_trace() -> Trace:
    trace = Trace(3)
    trace.append(0, 0x1000, False)
    trace.append(0, 0x1040, True)
    trace.append(1, 0x0, True)
    trace.append(1, 0x2FC0, False)
    # core 2 deliberately left empty: round-trips must keep empty streams.
    return trace


class TestRoundTrip:
    def test_pack_unpack_is_lossless(self):
        trace = sample_trace()
        packed = PackedTrace.from_trace(trace)
        assert packed.to_trace().ops == trace.ops

    def test_encoding_is_addr_shl_1_or_write(self):
        packed = PackedTrace.from_trace(sample_trace())
        assert list(packed.streams[0]) == [(0x1000 << 1), (0x1040 << 1) | 1]
        assert list(packed.streams[1]) == [1, (0x2FC0 << 1)]

    def test_workload_trace_round_trips(self):
        packed = build_workload("mix", 8, 200, seed=5)
        trace = packed.to_trace()
        assert trace.pack() == packed
        assert packed.total_ops() == trace.total_ops()

    def test_counts_and_bytes(self):
        packed = PackedTrace.from_trace(sample_trace())
        assert packed.num_cores == 3
        assert [packed.core_ops(c) for c in range(3)] == [2, 2, 0]
        assert packed.total_ops() == 4
        assert packed.nbytes() == 32

    def test_equality(self):
        a = PackedTrace.from_trace(sample_trace())
        b = PackedTrace.from_trace(sample_trace())
        assert a == b
        b.append(2, 0x40, True)
        assert a != b
        assert a.__eq__(object()) is NotImplemented

    def test_from_trace_returns_a_packed_trace_unchanged(self):
        packed = PackedTrace.from_trace(sample_trace())
        assert PackedTrace.from_trace(packed) is packed

    def test_to_file_writes_the_unpacked_csv(self, tmp_path):
        trace = build_workload("mix", 4, 50, seed=2).to_trace()
        trace.to_file(tmp_path / "tuples.csv")
        trace.pack().to_file(tmp_path / "packed.csv")
        assert (tmp_path / "packed.csv").read_bytes() == (
            tmp_path / "tuples.csv"
        ).read_bytes()

    def test_inspection_matches_unpacked(self):
        for trace in (sample_trace(), build_workload("mix", 8, 200, seed=5).to_trace()):
            packed = trace.pack()
            assert packed.write_fraction() == trace.write_fraction()
            for block_bytes in (1, 64, 4096):
                assert packed.unique_blocks(block_bytes) == trace.unique_blocks(
                    block_bytes
                )
        assert PackedTrace(2).write_fraction() == 0.0
        assert PackedTrace(2).unique_blocks(64) == 0

    def test_unique_blocks_rejects_non_power_of_two_block(self):
        packed = PackedTrace(1)
        for addr in (0, 40, 80):
            packed.append(0, addr, False)
        assert packed.unique_blocks(64) == 2
        with pytest.raises(ConfigError):
            packed.unique_blocks(48)

    def test_from_file_matches_trace_from_file(self, tmp_path):
        path = tmp_path / "t.csv"
        sample_trace().to_file(path)
        via_trace = Trace.from_file(path, num_cores=3).pack()
        direct = PackedTrace.from_file(path, num_cores=3)
        assert direct == via_trace
        assert direct.to_trace().ops == Trace.from_file(path, num_cores=3).ops


class TestAddressRange:
    def test_max_packed_addr_round_trips(self):
        packed = PackedTrace(1)
        packed.append(0, MAX_PACKED_ADDR, True)
        packed.append(0, MAX_PACKED_ADDR, False)
        assert packed.to_trace().ops[0] == [
            (MAX_PACKED_ADDR, True),
            (MAX_PACKED_ADDR, False),
        ]

    def test_append_beyond_max_raises(self):
        packed = PackedTrace(1)
        with pytest.raises(TraceError, match="packable range"):
            packed.append(0, MAX_PACKED_ADDR + 1, False)

    def test_from_trace_beyond_max_raises(self):
        trace = Trace(2)
        trace.append(1, MAX_PACKED_ADDR + 1, True)
        with pytest.raises(TraceError, match="packable range"):
            PackedTrace.from_trace(trace)

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
    def test_bytes_round_trip(self):
        packed = PackedTrace.from_trace(sample_trace())
        rebuilt = PackedTrace.from_stream_bytes(packed.stream_bytes())
        assert rebuilt == packed

    def test_little_endian_layout(self):
        packed = PackedTrace(1)
        packed.append(0, 0x2, True)  # word 0x5
        assert packed.stream_bytes() == [b"\x05" + b"\x00" * 7]

    def test_ragged_payload_rejected(self):
        with pytest.raises(TraceError, match="8-byte"):
            PackedTrace.from_stream_bytes([b"\x00" * 7])

    def test_empty_blob_list_rejected(self):
        with pytest.raises(TraceError, match="at least one core"):
            PackedTrace.from_stream_bytes([])
