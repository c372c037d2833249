"""Unit tests for traces and trace file I/O."""

import pytest

from repro.common.errors import ConfigError, TraceError
from repro.sim.trace import Trace


class TestConstruction:
    def test_append_and_counts(self):
        trace = Trace(2)
        trace.append(0, 0x100, False)
        trace.append(1, 0x140, True)
        trace.append(0, 0x180, False)
        assert trace.total_ops() == 3
        assert trace.core_ops(0) == 2
        assert trace.core_ops(1) == 1

    def test_core_out_of_range(self):
        with pytest.raises(TraceError):
            Trace(2).append(2, 0, False)

    def test_negative_address(self):
        with pytest.raises(TraceError):
            Trace(1).append(0, -1, False)

    def test_zero_cores_rejected(self):
        with pytest.raises(TraceError):
            Trace(0)


class TestMetrics:
    def test_write_fraction(self):
        trace = Trace(1)
        trace.append(0, 0, True)
        trace.append(0, 64, False)
        assert trace.write_fraction() == 0.5

    def test_write_fraction_empty(self):
        assert Trace(1).write_fraction() == 0.0

    def test_unique_blocks(self):
        trace = Trace(1)
        trace.append(0, 0, False)
        trace.append(0, 63, False)   # same 64B block
        trace.append(0, 64, False)   # next block
        assert trace.unique_blocks(64) == 2

    def test_write_fraction_multi_core(self):
        trace = Trace(3)
        for addr in range(0, 64 * 6, 64):
            trace.append(0, addr, True)    # 6 writes
        trace.append(1, 0, False)
        trace.append(2, 64, False)         # 2 reads
        assert trace.write_fraction() == 6 / 8

    def test_unique_blocks_across_cores(self):
        trace = Trace(2)
        trace.append(0, 0, False)
        trace.append(1, 32, True)     # same 64B block as core 0's access
        trace.append(1, 4096, False)
        assert trace.unique_blocks(64) == 2
        assert trace.unique_blocks(4096) == 2  # 0/32 and 4096 split at 4KB too

    def test_unique_blocks_rejects_non_power_of_two_block(self):
        # Regression: bit_length() - 1 made a 48 B block a 32 B one, so
        # {0, 40, 80} counted as 3 blocks (48 B blocks give 2).
        trace = Trace(1)
        for addr in (0, 40, 80):
            trace.append(0, addr, False)
        assert trace.unique_blocks(64) == 2
        with pytest.raises(ConfigError):
            trace.unique_blocks(48)


class TestFileIO:
    def test_roundtrip(self, tmp_path):
        trace = Trace(2)
        trace.append(0, 0x100, False)
        trace.append(1, 0x2000, True)
        path = tmp_path / "t.csv"
        trace.to_file(path)
        loaded = Trace.from_file(path, 2)
        assert loaded.ops == trace.ops

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# header\n\n0,0x40,R\n")
        trace = Trace.from_file(path, 1)
        assert trace.ops[0] == [(0x40, False)]

    def test_decimal_addresses_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,128,W\n")
        assert Trace.from_file(path, 1).ops[0] == [(128, True)]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0x40\n")
        with pytest.raises(TraceError):
            Trace.from_file(path, 1)

    def test_bad_rw_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0x40,X\n")
        with pytest.raises(TraceError):
            Trace.from_file(path, 1)

    def test_bad_int_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("zero,0x40,R\n")
        with pytest.raises(TraceError):
            Trace.from_file(path, 1)

    def test_roundtrip_preserves_metrics(self, tmp_path):
        trace = Trace(4)
        for core in range(4):
            for i in range(8):
                trace.append(core, (core * 8 + i) * 64, i % 2 == 0)
        path = tmp_path / "t.csv"
        trace.to_file(path)
        loaded = Trace.from_file(path, 4)
        assert loaded.ops == trace.ops
        assert loaded.write_fraction() == trace.write_fraction()
        assert loaded.unique_blocks(64) == trace.unique_blocks(64)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0x40,R\n0,0x80\n")
        with pytest.raises(TraceError, match=":2:"):
            Trace.from_file(path, 1)

    def test_too_many_fields_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0x40,R,extra\n")
        with pytest.raises(TraceError):
            Trace.from_file(path, 1)

    def test_core_out_of_range_in_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("3,0x40,R\n")
        with pytest.raises(TraceError):
            Trace.from_file(path, 2)

    def test_negative_address_in_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,-64,R\n")
        with pytest.raises(TraceError):
            Trace.from_file(path, 1)


class TestFlatPrograms:
    """Single-stream global-order encoding used by the fuzz corpus."""

    def test_round_trip(self):
        from repro.sim.trace import pack_flat_program, unpack_flat_program

        program = [(0, 0x10, True), (3, 0x0, False), (1, 0xABC, True)]
        packed = pack_flat_program(program)
        assert packed.num_cores == 1
        assert packed.total_ops() == 3
        assert unpack_flat_program(packed) == program

    def test_preserves_global_order(self):
        from repro.sim.trace import pack_flat_program, unpack_flat_program

        program = [(core, 7, False) for core in (2, 0, 1, 0, 2)]
        assert [op[0] for op in unpack_flat_program(pack_flat_program(program))] \
            == [2, 0, 1, 0, 2]

    def test_limits_enforced(self):
        from repro.common.errors import ConfigError, TraceError
        from repro.sim.trace import (
            MAX_FLAT_ADDR,
            MAX_FLAT_CORE,
            pack_flat_program,
        )

        pack_flat_program([(MAX_FLAT_CORE, MAX_FLAT_ADDR, True)])
        with pytest.raises(TraceError):
            pack_flat_program([(MAX_FLAT_CORE + 1, 0, False)])
        with pytest.raises(TraceError):
            pack_flat_program([(0, MAX_FLAT_ADDR + 1, False)])
        with pytest.raises(TraceError):
            pack_flat_program([(-1, 0, False)])

    def test_multi_stream_rejected(self):
        from repro.common.errors import ConfigError, TraceError
        from repro.sim.trace import PackedTrace, unpack_flat_program

        with pytest.raises(TraceError):
            unpack_flat_program(PackedTrace(2))

    def test_survives_spool_round_trip(self, tmp_path):
        from repro.sim.trace import pack_flat_program, unpack_flat_program
        from repro.verify.corpus import read_trace_file, write_trace_file

        program = [(1, 0x40, True), (0, 0x40, False)]
        path = tmp_path / "program.trace"
        write_trace_file(path, "f" * 64, {"fuzz": {"kind": "stash"}},
                         pack_flat_program(program))
        header, packed = read_trace_file(path)
        assert header["fuzz"] == {"kind": "stash"}
        assert unpack_flat_program(packed) == program
