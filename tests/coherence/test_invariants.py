"""Unit tests for the invariant checkers themselves.

Each test constructs a *broken* state by hand and asserts the matching
checker raises — the checkers are only useful if they actually catch bugs.
"""

import pytest

from repro.cache.l1 import L1Cache
from repro.cache.llc import SharedLLC
from repro.coherence.invariants import (
    check_data_values,
    check_directory_inclusion,
    check_entries_llc_resident,
    check_llc_inclusion,
    check_swmr,
)
from repro.common.config import CacheConfig, DirectoryConfig, DirectoryKind
from repro.common.errors import InvariantViolation
from repro.common.mesi import MesiState
from repro.common.stats import StatGroup
from repro.directory.ideal import IdealDirectory


def make_parts(num_cores=2):
    stats = StatGroup("root")
    l1s = [
        L1Cache(core, CacheConfig(sets=2, ways=2), stats.child(f"l1.{core}"))
        for core in range(num_cores)
    ]
    llc = SharedLLC(CacheConfig(sets=16, ways=4), num_cores, stats.child("llc"))
    directory = IdealDirectory(
        DirectoryConfig(kind=DirectoryKind.IDEAL), num_cores, stats.child("dir")
    )
    return l1s, llc, directory


class TestSwmr:
    def test_ok_single_modified(self):
        l1s, _, _ = make_parts()
        l1s[0].fill(5, MesiState.MODIFIED, 1)
        check_swmr(l1s)

    def test_ok_many_shared(self):
        l1s, _, _ = make_parts()
        l1s[0].fill(5, MesiState.SHARED, 0)
        l1s[1].fill(5, MesiState.SHARED, 0)
        check_swmr(l1s)

    def test_modified_plus_shared_raises(self):
        l1s, _, _ = make_parts()
        l1s[0].fill(5, MesiState.MODIFIED, 1)
        l1s[1].fill(5, MesiState.SHARED, 0)
        with pytest.raises(InvariantViolation):
            check_swmr(l1s)

    def test_two_exclusives_raise(self):
        l1s, _, _ = make_parts()
        l1s[0].fill(5, MesiState.EXCLUSIVE, 0)
        l1s[1].fill(5, MesiState.EXCLUSIVE, 0)
        with pytest.raises(InvariantViolation):
            check_swmr(l1s)


class TestLlcInclusion:
    def test_ok_when_resident(self):
        l1s, llc, _ = make_parts()
        llc.fill(5, 0)
        l1s[0].fill(5, MesiState.SHARED, 0)
        check_llc_inclusion(l1s, llc)

    def test_missing_llc_line_raises(self):
        l1s, llc, _ = make_parts()
        l1s[0].fill(5, MesiState.SHARED, 0)
        with pytest.raises(InvariantViolation):
            check_llc_inclusion(l1s, llc)


class TestDirectoryInclusion:
    def test_strict_raises_on_untracked(self):
        l1s, llc, directory = make_parts()
        llc.fill(5, 0)
        l1s[0].fill(5, MesiState.SHARED, 0)
        with pytest.raises(InvariantViolation):
            check_directory_inclusion(l1s, llc, directory, relaxed=False)

    def test_relaxed_allows_hidden(self):
        l1s, llc, directory = make_parts()
        llc.fill(5, 0)
        llc.set_stash_bit(5)
        l1s[0].fill(5, MesiState.SHARED, 0)
        check_directory_inclusion(l1s, llc, directory, relaxed=True)

    def test_relaxed_raises_without_stash_bit(self):
        l1s, llc, directory = make_parts()
        llc.fill(5, 0)
        l1s[0].fill(5, MesiState.SHARED, 0)
        with pytest.raises(InvariantViolation):
            check_directory_inclusion(l1s, llc, directory, relaxed=True)


class TestEntriesResident:
    def test_ok(self):
        _, llc, directory = make_parts()
        llc.fill(5, 0)
        directory.allocate(5)
        check_entries_llc_resident(directory, llc)

    def test_entry_for_evicted_line_raises(self):
        _, llc, directory = make_parts()
        directory.allocate(5)
        with pytest.raises(InvariantViolation):
            check_entries_llc_resident(directory, llc)


class TestDataValues:
    def test_ok_all_latest(self):
        l1s, llc, _ = make_parts()
        llc.fill(5, version=3)
        l1s[0].fill(5, MesiState.SHARED, version=3)
        check_data_values(l1s, llc, {5: 3}, {})

    def test_stale_l1_copy_raises(self):
        l1s, llc, _ = make_parts()
        llc.fill(5, version=3)
        l1s[0].fill(5, MesiState.SHARED, version=2)
        with pytest.raises(InvariantViolation):
            check_data_values(l1s, llc, {5: 3}, {})

    def test_stale_llc_allowed_with_dirty_owner(self):
        l1s, llc, _ = make_parts()
        llc.fill(5, version=1)
        l1s[0].fill(5, MesiState.MODIFIED, version=3)
        check_data_values(l1s, llc, {5: 3}, {})

    def test_stale_llc_without_dirty_owner_raises(self):
        l1s, llc, _ = make_parts()
        llc.fill(5, version=1)
        with pytest.raises(InvariantViolation):
            check_data_values(l1s, llc, {5: 3}, {})

    def test_offchip_block_checked_against_memory(self):
        l1s, llc, _ = make_parts()
        check_data_values(l1s, llc, {7: 2}, {7: 2})
        with pytest.raises(InvariantViolation):
            check_data_values(l1s, llc, {7: 2}, {7: 1})


class TestSwmrMoesi:
    """MOESI audit (see docs/VERIFICATION.md): one OWNED copy may coexist
    with SHARED readers — any OWNED+OWNED or OWNED+E/M pile-up must be
    reported as an OWNED-state violation, not a generic SWMR failure."""

    def test_owned_plus_shared_is_legal(self):
        l1s, _, _ = make_parts()
        l1s[0].fill(5, MesiState.OWNED, 1)
        l1s[1].fill(5, MesiState.SHARED, 1)
        check_swmr(l1s)

    def test_owned_plus_many_shared_is_legal(self):
        l1s, _, _ = make_parts(num_cores=4)
        l1s[0].fill(5, MesiState.OWNED, 1)
        for core in (1, 2, 3):
            l1s[core].fill(5, MesiState.SHARED, 1)
        check_swmr(l1s)

    def test_owned_plus_modified_raises_owned_rule(self):
        l1s, _, _ = make_parts()
        l1s[0].fill(5, MesiState.OWNED, 1)
        l1s[1].fill(5, MesiState.MODIFIED, 2)
        with pytest.raises(InvariantViolation, match="OWNED-state rule"):
            check_swmr(l1s)

    def test_owned_plus_exclusive_raises_owned_rule(self):
        l1s, _, _ = make_parts()
        l1s[0].fill(5, MesiState.OWNED, 1)
        l1s[1].fill(5, MesiState.EXCLUSIVE, 1)
        with pytest.raises(InvariantViolation, match="OWNED-state rule"):
            check_swmr(l1s)

    def test_two_owned_raise_owned_rule(self):
        l1s, _, _ = make_parts()
        l1s[0].fill(5, MesiState.OWNED, 1)
        l1s[1].fill(5, MesiState.OWNED, 1)
        with pytest.raises(InvariantViolation, match="OWNED-state rule"):
            check_swmr(l1s)

    def test_real_moesi_controllers_produce_legal_owned_sharing(self):
        """End-to-end: l1_controller + home produce O+S, and the checker
        agrees it is legal (the distinguishing trace from the audit, also
        planted in the fuzzer's seed corpus)."""
        from repro.common.mesi import CoherenceProtocol
        from repro.verify import RunOptions, make_fuzz_config
        from repro.common.config import DirectoryKind
        from repro.sim.system import build_system

        config = make_fuzz_config(
            DirectoryKind.STASH,
            RunOptions(protocol=CoherenceProtocol.MOESI, check_every=1),
        )
        system = build_system(config)
        program = [
            (0, 0x10, True),   # M at core 0
            (1, 0x10, False),  # downgrade to O, reader S
            (2, 0x10, False),  # O + S + S
        ]
        for core, block, is_write in program:
            system.access(core, block, is_write)
            system.check_invariants()
        states = {
            l1.core_id: MesiState(l1.probe(0x10, touch=False).state)
            for l1 in system.l1s
            if l1.probe(0x10, touch=False) is not None
        }
        assert states[0] is MesiState.OWNED
        assert states[1] is MesiState.SHARED
        assert states[2] is MesiState.SHARED
        # The owner's upgrade back to M must invalidate both S copies.
        system.access(0, 0x10, True)
        system.check_invariants()
        assert MesiState(system.l1s[0].probe(0x10, touch=False).state) is (
            MesiState.MODIFIED
        )
        assert system.l1s[1].probe(0x10, touch=False) is None
        assert system.l1s[2].probe(0x10, touch=False) is None
