"""Unit tests for the strict/relaxed inclusion predicates."""

from repro.cache.l1 import L1Cache
from repro.cache.llc import SharedLLC
from repro.common.config import CacheConfig, DirectoryConfig, DirectoryKind
from repro.common.mesi import MesiState
from repro.common.stats import StatGroup
from repro.core.relaxed_inclusion import (
    check_relaxed_inclusion,
    check_strict_inclusion,
)
from repro.directory.ideal import IdealDirectory


def make_parts(num_cores=2):
    stats = StatGroup("root")
    l1s = [
        L1Cache(core, CacheConfig(sets=2, ways=2), stats.child(f"l1.{core}"))
        for core in range(num_cores)
    ]
    llc = SharedLLC(
        CacheConfig(sets=16, ways=4), num_cores, stats.child("llc")
    )
    directory = IdealDirectory(DirectoryConfig(kind=DirectoryKind.IDEAL), num_cores, stats.child("dir"))
    return l1s, llc, directory


class TestStrictInclusion:
    def test_ok_when_tracked(self):
        l1s, llc, directory = make_parts()
        l1s[0].fill(5, MesiState.EXCLUSIVE, 0)
        directory.allocate(5).entry.grant_exclusive(0)
        report = check_strict_inclusion(l1s, directory)
        assert report.ok
        assert report.tracked == {5}

    def test_untracked_block_violates(self):
        l1s, llc, directory = make_parts()
        l1s[0].fill(5, MesiState.EXCLUSIVE, 0)
        report = check_strict_inclusion(l1s, directory)
        assert not report.ok
        assert "untracked" in report.violations[0]

    def test_missing_believed_holder_violates(self):
        l1s, llc, directory = make_parts()
        l1s[0].fill(5, MesiState.SHARED, 0)
        l1s[1].fill(5, MesiState.SHARED, 0)
        directory.allocate(5).entry.add_sharer(0)  # core 1 unrecorded
        report = check_strict_inclusion(l1s, directory)
        assert not report.ok

    def test_stale_believed_superset_is_fine(self):
        l1s, llc, directory = make_parts()
        l1s[0].fill(5, MesiState.SHARED, 0)
        entry = directory.allocate(5).entry
        entry.add_sharer(0)
        entry.add_sharer(1)  # stale belief about core 1: legal
        assert check_strict_inclusion(l1s, directory).ok


class TestRelaxedInclusion:
    def test_hidden_block_legal_with_stash_bit(self):
        l1s, llc, directory = make_parts()
        llc.fill(5, version=0)
        llc.set_stash_bit(5)
        l1s[0].fill(5, MesiState.EXCLUSIVE, 0)
        report = check_relaxed_inclusion(l1s, llc, directory)
        assert report.ok
        assert report.hidden == {5}

    def test_hidden_without_stash_bit_violates(self):
        l1s, llc, directory = make_parts()
        llc.fill(5, version=0)
        l1s[0].fill(5, MesiState.EXCLUSIVE, 0)
        report = check_relaxed_inclusion(l1s, llc, directory)
        assert not report.ok
        assert "stash bit" in report.violations[0]

    def test_hidden_without_llc_line_violates(self):
        l1s, llc, directory = make_parts()
        l1s[0].fill(5, MesiState.EXCLUSIVE, 0)
        report = check_relaxed_inclusion(l1s, llc, directory)
        assert not report.ok
        assert "LLC" in report.violations[0]

    def test_two_hiders_violate(self):
        l1s, llc, directory = make_parts()
        llc.fill(5, version=0)
        llc.set_stash_bit(5)
        l1s[0].fill(5, MesiState.SHARED, 0)
        l1s[1].fill(5, MesiState.SHARED, 0)
        report = check_relaxed_inclusion(l1s, llc, directory)
        assert not report.ok
        assert "multiple" in report.violations[0]

    def test_tracked_blocks_checked_as_strict(self):
        l1s, llc, directory = make_parts()
        llc.fill(5, version=0)
        l1s[0].fill(5, MesiState.EXCLUSIVE, 0)
        directory.allocate(5).entry.grant_exclusive(0)
        report = check_relaxed_inclusion(l1s, llc, directory)
        assert report.ok
        assert report.tracked == {5}
