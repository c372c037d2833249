"""Unit tests for traces and trace file I/O."""

import pytest

from repro.common.errors import ConfigError, TraceError
from repro.sim.trace import MAX_PACKED_ADDR, PackedTrace
from repro.workloads.characterize import profile_trace
from tests.conftest import core_ops


class TestConstruction:
    def test_append_and_counts(self):
        trace = PackedTrace(2)
        trace.append(0, 0x100, False)
        trace.append(1, 0x140, True)
        trace.append(0, 0x180, False)
        assert trace.total_ops() == 3
        assert len(trace.streams[0]) == 2
        assert len(trace.streams[1]) == 1

    def test_core_out_of_range(self):
        with pytest.raises(TraceError):
            PackedTrace(2).append(2, 0, False)

    def test_negative_address(self):
        with pytest.raises(TraceError):
            PackedTrace(1).append(0, -1, False)

    def test_zero_cores_rejected(self):
        with pytest.raises(TraceError):
            PackedTrace(0)


class TestMetrics:
    """A trace's write fraction and block count, as ``profile_trace`` reads them."""

    def test_write_fraction(self):
        trace = PackedTrace(1)
        trace.append(0, 0, True)
        trace.append(0, 64, False)
        assert profile_trace(trace, 64).write_fraction == 0.5

    def test_write_fraction_empty(self):
        assert profile_trace(PackedTrace(1), 64).write_fraction == 0.0

    def test_unique_blocks(self):
        trace = PackedTrace(1)
        trace.append(0, 0, False)
        trace.append(0, 63, False)   # same 64B block
        trace.append(0, 64, False)   # next block
        assert profile_trace(trace, 64).unique_blocks == 2

    def test_write_fraction_multi_core(self):
        trace = PackedTrace(3)
        for addr in range(0, 64 * 6, 64):
            trace.append(0, addr, True)    # 6 writes
        trace.append(1, 0, False)
        trace.append(2, 64, False)         # 2 reads
        assert profile_trace(trace, 64).write_fraction == 6 / 8

    def test_unique_blocks_across_cores(self):
        trace = PackedTrace(2)
        trace.append(0, 0, False)
        trace.append(1, 32, True)     # same 64B block as core 0's access
        trace.append(1, 4096, False)
        assert profile_trace(trace, 64).unique_blocks == 2
        # 0/32 and 4096 split at 4KB too
        assert profile_trace(trace, 4096).unique_blocks == 2

    def test_unique_blocks_rejects_non_power_of_two_block(self):
        # Regression: bit_length() - 1 made a 48 B block a 32 B one, so
        # {0, 40, 80} counted as 3 blocks (48 B blocks give 2).
        trace = PackedTrace(1)
        for addr in (0, 40, 80):
            trace.append(0, addr, False)
        assert profile_trace(trace, 64).unique_blocks == 2
        with pytest.raises(ConfigError):
            profile_trace(trace, 48)


class TestFileIO:
    def test_roundtrip(self, tmp_path):
        trace = PackedTrace(2)
        trace.append(0, 0x100, False)
        trace.append(1, 0x2000, True)
        path = tmp_path / "t.csv"
        trace.to_file(path)
        assert path.read_text() == "# core,addr,rw\n0,0x100,R\n1,0x2000,W\n"
        assert PackedTrace.from_file(path, 2) == trace

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# header\n\n0,0x40,R\n")
        trace = PackedTrace.from_file(path, 1)
        assert core_ops(trace, 0) == [(0x40, False)]

    def test_decimal_addresses_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,128,W\n")
        assert core_ops(PackedTrace.from_file(path, 1), 0) == [(128, True)]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0x40\n")
        with pytest.raises(TraceError):
            PackedTrace.from_file(path, 1)

    def test_bad_rw_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0x40,X\n")
        with pytest.raises(TraceError):
            PackedTrace.from_file(path, 1)

    def test_bad_int_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("zero,0x40,R\n")
        with pytest.raises(TraceError):
            PackedTrace.from_file(path, 1)

    def test_roundtrip_preserves_metrics(self, tmp_path):
        trace = PackedTrace(4)
        for core in range(4):
            for i in range(8):
                trace.append(core, (core * 8 + i) * 64, i % 2 == 0)
        path = tmp_path / "t.csv"
        trace.to_file(path)
        loaded = PackedTrace.from_file(path, 4)
        assert loaded == trace
        assert profile_trace(loaded, 64) == profile_trace(trace, 64)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0x40,R\n0,0x80\n")
        with pytest.raises(TraceError, match=":2:"):
            PackedTrace.from_file(path, 1)

    def test_too_many_fields_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0x40,R,extra\n")
        with pytest.raises(TraceError):
            PackedTrace.from_file(path, 1)

    def test_core_out_of_range_in_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("3,0x40,R\n")
        with pytest.raises(TraceError, match=":1: core 3 outside"):
            PackedTrace.from_file(path, 2)

    def test_negative_address_in_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,-64,R\n")
        with pytest.raises(TraceError, match=":1: address -0x40 outside"):
            PackedTrace.from_file(path, 1)

    def test_address_beyond_packed_range_in_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"0,{MAX_PACKED_ADDR:#x},R\n1,{MAX_PACKED_ADDR + 0x41:#x},W\n")
        with pytest.raises(
            TraceError, match=":2: address 0x8000000000000040 outside packable range"
        ):
            PackedTrace.from_file(path, 2)
