"""Direct unit tests of home-controller internals.

The protocol tests exercise these paths through full access flows; these
tests pin the *unit* behaviours — version minting, home mapping, LLC
eviction bookkeeping, memory-version persistence — so a regression points
at the exact mechanism.
"""

from repro.common.config import DirectoryKind
from repro.common.mesi import MesiState
from repro.sim.system import build_system
from tests.conftest import tiny_config


def make_system(kind=DirectoryKind.STASH, **kwargs):
    return build_system(tiny_config(kind, **kwargs))


class TestVersioning:
    def test_mint_version_monotonic_and_recorded(self):
        system = make_system()
        home = system.home
        v1 = home.mint_version(0x10)
        v2 = home.mint_version(0x20)
        v3 = home.mint_version(0x10)
        assert v1 < v2 < v3
        assert home.latest_version[0x10] == v3
        assert home.latest_version[0x20] == v2

    def test_writes_advance_latest(self):
        system = make_system()
        system.access(0, 5, is_write=True)
        first = system.home.latest_version[5]
        system.access(1, 5, is_write=True)
        assert system.home.latest_version[5] > first


class TestHomeMapping:
    def test_home_tile_matches_llc_bank(self):
        system = make_system(num_cores=4)
        for addr in range(16):
            assert system.home.home_tile(addr) == system.llc.bank_of(addr)
            assert 0 <= system.home.home_tile(addr) < 4


class TestMemoryVersionPersistence:
    def test_dirty_llc_eviction_lands_in_memory_version(self):
        # Tiny LLC: 2 sets x 2 ways; force eviction of a written block.
        system = make_system(llc_sets=2, llc_ways=2, num_cores=1)
        system.access(0, 0, is_write=True)
        latest = system.home.latest_version[0]
        # Evict block 0 from its own L1 first so its data reaches the LLC.
        for addr in (4, 8, 12, 16):
            system.access(0, addr, is_write=False)
        # Thrash LLC set 0 (even blocks) until block 0 leaves the chip.
        filler = 20
        while system.llc.contains(0):
            system.access(0, filler, is_write=False)
            filler += 2
        assert system.home.memory_version[0] == latest
        system.check_invariants()

    def test_refetch_restores_latest_from_memory(self):
        system = make_system(llc_sets=2, llc_ways=2, num_cores=1)
        system.access(0, 0, is_write=True)
        latest = system.home.latest_version[0]
        filler = 4
        while system.llc.contains(0):
            system.access(0, filler, is_write=False)
            filler += 2
        system.access(0, 0, is_write=False)  # refetch from memory
        assert system.l1s[0].probe(0, touch=False).version == latest
        system.check_invariants()


class TestGrantShapes:
    """``serve_miss`` hands back a ``(latency, state, version)`` tuple."""

    def test_read_miss_grant_exclusive(self):
        system = make_system()
        # Drive serve_miss directly (the L1 controller normally does).
        latency, state, version = system.home.serve_miss(0, 7, is_write=False)
        assert state == MesiState.EXCLUSIVE
        assert type(state) is int
        assert latency > 0
        assert version == 0  # never written: memory's initial data

    def test_write_miss_grant_modified(self):
        system = make_system()
        latency, state, version = system.home.serve_miss(0, 7, is_write=True)
        assert state == MesiState.MODIFIED
        assert type(state) is int
        assert latency > 0
        assert version == 0  # the writer's L1 mints the new version


class TestDirectoryRecency:
    def test_lookup_touch_protects_entry_from_eviction(self):
        """Directory lookups must update entry recency: the LRU victim is
        the least-recently *requested* block."""
        system = build_system(
            tiny_config(DirectoryKind.SPARSE, entries_override=4, dir_ways=2)
        )
        system.access(0, 0, is_write=False)
        system.access(0, 2, is_write=False)
        system.access(1, 0, is_write=False)   # touches entry 0
        system.access(0, 4, is_write=False)   # conflict: evicts entry 2
        assert system.directory.lookup(0, touch=False) is not None
        assert system.directory.lookup(2, touch=False) is None


class TestCoverageAttribution:
    def test_coverage_miss_counted_once_per_invalidation(self):
        system = build_system(
            tiny_config(DirectoryKind.SPARSE, entries_override=4, dir_ways=2)
        )
        # Core 0 caches blocks 0, 2; conflict on 4 invalidates one of them.
        for addr in (0, 2, 4):
            system.access(0, addr, is_write=False)
        lost = next(
            a for a in (0, 2) if system.l1s[0].probe(a, touch=False) is None
        )
        stats = system.stats.child("protocol")
        assert stats.get("coverage_misses") == 0
        system.access(0, lost, is_write=False)   # the coverage miss
        assert stats.get("coverage_misses") == 1
        system.access(0, lost, is_write=False)   # plain hit now
        assert stats.get("coverage_misses") == 1
