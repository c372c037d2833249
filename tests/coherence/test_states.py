"""Unit tests for MESI state predicates."""

from repro.common.mesi import LlcState, MesiState, can_read, can_write


class TestPredicates:
    def test_can_read(self):
        assert can_read(MesiState.SHARED)
        assert can_read(MesiState.EXCLUSIVE)
        assert can_read(MesiState.MODIFIED)
        assert not can_read(MesiState.INVALID)

    def test_can_write(self):
        assert can_write(MesiState.EXCLUSIVE)
        assert can_write(MesiState.MODIFIED)
        assert not can_write(MesiState.SHARED)
        assert not can_write(MesiState.INVALID)

    def test_states_are_ints(self):
        # CacheBlock stores states in an int slot.
        assert int(MesiState.INVALID) == 0
        assert MesiState(3) is MesiState.MODIFIED

    def test_llc_state(self):
        assert LlcState.VALID != LlcState.INVALID
