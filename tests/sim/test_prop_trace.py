"""Property tests: trace file round-trips over random traces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import PackedTrace
from repro.workloads.characterize import profile_trace


@st.composite
def traces(draw):
    cores = draw(st.integers(1, 4))
    trace = PackedTrace(cores)
    for core, addr, is_write in draw(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 2**40), st.booleans()
            ),
            max_size=60,
        )
    ):
        trace.append(core % cores, addr, is_write)
    return trace


@settings(max_examples=50, deadline=None)
@given(trace=traces())
def test_trace_file_roundtrip_property(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "t.csv"
    trace.to_file(path)
    loaded = PackedTrace.from_file(path, trace.num_cores)
    assert loaded == trace
    assert loaded.total_ops() == trace.total_ops()
    assert profile_trace(loaded, 64) == profile_trace(trace, 64)
