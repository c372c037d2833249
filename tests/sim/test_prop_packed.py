"""Property tests: PackedTrace packing boundaries and epoch slicing.

Two contracts the vector engine leans on:

1. Packing is lossless across the whole encodable range — bit 63 is the
   address MSB, bit 0 the read/write flag, and ``MAX_PACKED_ADDR`` is a
   hard wall (beyond it ``append`` must *raise*, never truncate).
2. Epoch batching is invisible — the engine may slice a stream at any
   boundary and the simulation result does not change by a single bit,
   effective-tracking samples included.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.common.config import (
    CacheConfig,
    DirectoryKind,
    NoCConfig,
    SystemConfig,
)
from repro.common.errors import TraceError
from repro.sim.simulator import Simulator, run_trace
from repro.sim.system import build_system
from repro.sim.trace import MAX_PACKED_ADDR, PackedTrace
from repro.sim.vector import VectorEngine
from tests.conftest import core_ops

#: Addresses that exercise every boundary of the 63-bit encoding.
BOUNDARY_ADDRS = (
    0,
    1,
    MAX_PACKED_ADDR,
    MAX_PACKED_ADDR - 1,
    1 << 62,
    (1 << 62) - 1,
)

addrs = st.one_of(
    st.sampled_from(BOUNDARY_ADDRS), st.integers(0, MAX_PACKED_ADDR)
)


@st.composite
def programs(draw, max_ops=60, addr_strategy=addrs, max_cores=4):
    """``(cores, [(core, addr, is_write), ...])`` in append order."""
    cores = draw(st.integers(1, max_cores))
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, cores - 1), addr_strategy, st.booleans()),
            max_size=max_ops,
        )
    )
    return cores, ops


def pack(program) -> PackedTrace:
    cores, ops = program
    trace = PackedTrace(cores)
    for core, addr, is_write in ops:
        trace.append(core, addr, is_write)
    return trace


def traces(**kwargs):
    return programs(**kwargs).map(pack)


class TestPackingBoundaries:
    @settings(max_examples=100, deadline=None)
    @given(program=programs())
    def test_pack_unpack_roundtrip(self, program):
        cores, ops = program
        packed = pack(program)
        assert packed.total_ops() == len(ops)
        for core in range(cores):
            assert core_ops(packed, core) == [
                (addr, is_write) for c, addr, is_write in ops if c == core
            ]

    @settings(max_examples=50, deadline=None)
    @given(
        addr=st.integers(MAX_PACKED_ADDR + 1, 1 << 70),
        is_write=st.booleans(),
    )
    def test_append_rejects_oversized_address(self, addr, is_write):
        packed = PackedTrace(1)
        with pytest.raises(TraceError):
            packed.append(0, addr, is_write)
        assert packed.total_ops() == 0

    @settings(max_examples=100, deadline=None)
    @given(addr=addrs, is_write=st.booleans())
    def test_word_encoding_is_addr_shifted_plus_flag(self, addr, is_write):
        packed = PackedTrace(1)
        packed.append(0, addr, is_write)
        (word,) = packed.streams[0]
        assert word >> 1 == addr
        assert bool(word & 1) == is_write


def _vector_config(num_cores: int = 4) -> SystemConfig:
    # The fuzz differ's tiny geometry: dense conflicts in very few ops.
    side = {4: 2, 16: 4}[num_cores]
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheConfig(sets=2, ways=2),
        llc=CacheConfig(sets=8, ways=2),
        noc=NoCConfig(mesh_width=side, mesh_height=side),
    ).with_directory(kind=DirectoryKind.STASH, entries_override=8, ways=2)


#: Small block-aligned working set so tiny programs still conflict.
sim_addrs = st.integers(0, 47).map(lambda block: block * 64)


#: The epoch-slicing tests also run in a subclass (another machine size),
#: which Hypothesis would otherwise flag as differing executors.
SUBCLASSED = [HealthCheck.differing_executors]


class TestEpochSlicing:
    #: Cores of the simulated machine, and the most a drawn trace uses.
    CORES = 4
    TRACE_CORES = 4

    def trace_strategy(self, max_ops):
        return traces(
            max_ops=max_ops, addr_strategy=sim_addrs, max_cores=self.TRACE_CORES
        )

    @settings(max_examples=40, deadline=None, suppress_health_check=SUBCLASSED)
    @given(data=st.data(), epoch_ops=st.integers(1, 130))
    def test_any_epoch_size_is_bit_identical(self, data, epoch_ops):
        trace = data.draw(self.trace_strategy(120))
        config = _vector_config(self.CORES)
        reference = VectorEngine(config).run(trace)
        sliced = VectorEngine(config, epoch_ops=epoch_ops).run(trace)
        assert sliced == reference

    @settings(max_examples=20, deadline=None, suppress_health_check=SUBCLASSED)
    @given(data=st.data())
    def test_epoch_one_matches_interpreter(self, data):
        trace = data.draw(self.trace_strategy(80))
        config = _vector_config(self.CORES)
        interp = run_trace(config, trace)
        vector = VectorEngine(config, epoch_ops=1).run(trace)
        assert vector == interp

    @settings(max_examples=30, deadline=None, suppress_health_check=SUBCLASSED)
    @given(
        data=st.data(),
        epoch_ops=st.integers(1, 130),
        sample_interval=st.integers(1, 7),
    )
    def test_samples_match_interpreter(self, data, epoch_ops, sample_interval):
        # The default interval (4096) outlasts these traces, so only a
        # short one makes either engine take a sample.
        trace = data.draw(self.trace_strategy(120))
        config = _vector_config(self.CORES)
        interp = Simulator(
            build_system(config), sample_interval=sample_interval
        ).run(trace)
        vector = VectorEngine(
            config, epoch_ops=epoch_ops, sample_interval=sample_interval
        ).run(trace)
        assert vector == interp
        assert len(vector.effective_tracking_samples) == (
            trace.total_ops() // sample_interval
        )


class TestEpochSlicing16Cores(TestEpochSlicing):
    """The same properties on 16 cores with traces of 1-12 cores.

    The vector engine's heap key is ``clock << shift | core`` with
    ``shift = ncores.bit_length()``; over 1-12 trace cores the shift takes
    every width from 1 to 4, and empty and one-op streams occur.
    """

    CORES = 16
    TRACE_CORES = 12
