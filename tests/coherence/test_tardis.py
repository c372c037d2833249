"""Protocol unit tests for the Tardis timestamp-coherence backend.

Each test drives a tiny system through one protocol scenario and asserts
the lease mechanics directly: grants, self-invalidation, the absence of
read invalidations, and the backend's own invariant suite.
"""

import pytest

from repro.common.config import (
    CacheConfig,
    DirectoryKind,
    NoCConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError, InvariantViolation
from repro.common.mesi import MesiState
from repro.sim.system import build_system

_S = int(MesiState.SHARED)
_E = int(MesiState.EXCLUSIVE)
_M = int(MesiState.MODIFIED)


def make_system(cores=2, lease=8):
    config = SystemConfig(
        num_cores=cores,
        l1=CacheConfig(sets=2, ways=2),
        llc=CacheConfig(sets=8, ways=2),
        noc=NoCConfig(mesh_width=2, mesh_height=2),
    ).with_directory(kind=DirectoryKind.TARDIS, tardis_lease=lease)
    return build_system(config)


def proto_stat(system, name):
    return system.flat_stats().get(f"system.protocol.{name}", 0)


class TestGrants:
    def test_sole_reader_gets_exclusive(self):
        system = make_system()
        system.access(0, 5, False)
        block = system.l1s[0].lookup_block(5)
        assert block is not None and block.state == _E
        assert system.directory.lookup(5, touch=False).owner == 0

    def test_second_reader_downgrades_owner_and_leases_both(self):
        system = make_system()
        system.access(0, 5, False)
        system.access(1, 5, False)
        assert system.l1s[0].lookup_block(5).state == _S
        assert system.l1s[1].lookup_block(5).state == _S
        assert 5 in system.home.leases[0]
        assert 5 in system.home.leases[1]
        assert system.directory.lookup(5, touch=False).owner is None
        system.check_invariants()

    def test_write_miss_grants_modified(self):
        system = make_system()
        system.access(0, 5, True)
        block = system.l1s[0].lookup_block(5)
        assert block.state == _M and block.dirty
        assert block.version == system.home.latest_version[5]


class TestLeases:
    def test_write_leaves_leased_readers_in_place(self):
        # The Tardis headline: a write sends no invalidations to readers.
        system = make_system(lease=16)
        system.access(0, 5, False)
        system.access(1, 5, False)
        system.access(0, 5, True)  # upgrade; core 1 keeps its lease
        reader = system.l1s[1].lookup_block(5)
        assert reader is not None and reader.state == _S
        system.check_invariants()  # legal SWMR violation for this backend
        # The leased read within the window observes the *old* version.
        system.access(1, 5, False)
        stale = system.l1s[1].lookup_block(5).version
        assert stale < system.home.latest_version[5]
        assert proto_stat(system, "ts_jumps") >= 1

    def test_lease_expiry_self_invalidates_and_renews(self):
        system = make_system(lease=4)
        system.access(0, 5, False)
        system.access(1, 5, False)
        system.access(0, 5, True)
        # Tick the global clock past core 1's lease with unrelated hits.
        for _ in range(6):
            system.access(0, 5, False)
        before = proto_stat(system, "lease_expirations")
        system.access(1, 5, False)  # expired: silent drop + renewal miss
        assert proto_stat(system, "lease_expirations") == before + 1
        assert system.l1s[1].lookup_block(5).version == (
            system.home.latest_version[5]
        )
        system.check_invariants()

    def test_leased_write_takes_upgrade_path(self):
        system = make_system(lease=16)
        system.access(0, 5, False)
        system.access(1, 5, False)
        system.access(1, 5, True)
        assert proto_stat(system, "upgrade_misses") == 1
        assert proto_stat(system, "upgrade_requests") == 1
        assert system.l1s[1].lookup_block(5).state == _M
        assert 5 not in system.home.leases[1]
        system.check_invariants()


class TestEviction:
    def test_llc_eviction_spares_leased_readers(self):
        # A conventional directory back-invalidates every sharer on LLC
        # eviction; Tardis recalls only the owner, so a leased S copy
        # survives the loss of its LLC line and its directory entry.
        system = make_system(lease=200)
        system.access(0, 5, False)
        system.access(1, 5, False)
        # Force 5 out of its LLC set (8 sets x 2 ways) from core 0.
        conflicts = [5 + 8 * k for k in range(1, 6)]
        for addr in conflicts:
            system.access(0, addr, False)
        assert system.llc.probe(5, touch=False) is None
        assert not system.directory.contains(5)
        survivor = system.l1s[1].lookup_block(5)
        assert survivor is not None and survivor.state == _S
        system.check_invariants()
        # And the surviving lease still serves reads.
        system.access(1, 5, False)
        assert proto_stat(system, "l1_hits") >= 1


class TestStatIdentities:
    def test_hit_upgrade_miss_partition_accesses(self):
        system = make_system(cores=2, lease=6)
        import random

        decide = random.Random(9)
        for _ in range(600):
            system.access(
                decide.randrange(2),
                decide.randrange(24),
                decide.random() < 0.3,
            )
        system.check_invariants()
        flat = system.flat_stats()
        proto = {
            k.rsplit(".", 1)[1]: v
            for k, v in flat.items()
            if k.startswith("system.protocol.")
        }
        assert proto["accesses"] == 600
        assert proto["reads"] + proto["writes"] == 600
        assert (
            proto["l1_hits"]
            + proto.get("upgrade_misses", 0)
            + proto["l1_misses"]
            == 600
        )


class TestGuards:
    def test_private_l2_rejected(self):
        config = SystemConfig(
            num_cores=2,
            l1=CacheConfig(sets=2, ways=2),
            l2=CacheConfig(sets=4, ways=2),
            llc=CacheConfig(sets=8, ways=2),
            noc=NoCConfig(mesh_width=2, mesh_height=2),
        ).with_directory(kind=DirectoryKind.TARDIS)
        with pytest.raises(ConfigError):
            build_system(config)

    def test_config_validates_lease_and_ts_bits(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=2).with_directory(
                kind=DirectoryKind.TARDIS, tardis_lease=0
            )
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=2).with_directory(
                kind=DirectoryKind.TARDIS, tardis_ts_bits=0
            )


class TestInvariants:
    def test_checker_catches_double_exclusive(self):
        system = make_system()
        system.access(0, 5, True)
        version = system.l1s[0].lookup_block(5).version
        system.l1s[1].fill(5, _M, version)  # corrupt: second M copy
        with pytest.raises(InvariantViolation):
            system.check_invariants()

    def test_checker_requires_lease_for_shared_copies(self):
        system = make_system()
        system.access(0, 5, False)
        system.access(1, 5, False)
        del system.home.leases[1][5]  # corrupt: S copy without a lease
        with pytest.raises(InvariantViolation):
            system.check_invariants()

    def test_checker_ties_entries_to_llc_residency(self):
        system = make_system()
        system.access(0, 5, False)
        system.directory.allocate(99)  # corrupt: entry with no LLC line
        with pytest.raises(InvariantViolation):
            system.check_invariants()


class TestStorageModel:
    def test_no_sharer_vector_in_the_estimate(self):
        from repro.energy.area import storage_of

        config = SystemConfig(num_cores=16).with_directory(
            kind=DirectoryKind.TARDIS
        )
        estimate = storage_of(config)
        dcfg = config.directory
        owner_ptr = max(1, (16 - 1).bit_length())
        assert estimate.bits_per_entry == 2 * dcfg.tardis_ts_bits + owner_ptr + 1
        assert estimate.entries == config.llc.blocks
        assert estimate.stash_bit_overhead == 0

    def test_entry_bits_scale_logarithmically_with_cores(self):
        from repro.energy.area import storage_of

        at_16 = storage_of(
            SystemConfig(num_cores=16).with_directory(kind=DirectoryKind.TARDIS)
        ).bits_per_entry
        at_1024 = storage_of(
            SystemConfig(
                num_cores=1024,
                noc=NoCConfig(mesh_width=32, mesh_height=32),
            ).with_directory(kind=DirectoryKind.TARDIS)
        ).bits_per_entry
        # 64x the cores costs only the owner pointer's extra 6 bits.
        assert at_1024 - at_16 == 6
