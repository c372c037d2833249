"""Unit tests for the system builder wiring."""

from repro.common.config import DirectoryKind
from repro.core.adaptive import AdaptiveStashDirectory
from repro.core.stash_directory import StashDirectory
from repro.directory.cuckoo import CuckooDirectory
from repro.directory.hierarchical import ScdDirectory
from repro.directory.ideal import IdealDirectory
from repro.directory.sparse import SparseDirectory
from repro.sim.system import build_system
from tests.conftest import tiny_config


class TestBuildSystem:
    def test_l1_per_core(self):
        system = build_system(tiny_config(num_cores=4))
        assert len(system.l1s) == 4
        assert [l1.core_id for l1 in system.l1s] == [0, 1, 2, 3]

    def test_llc_banked_per_core(self):
        system = build_system(tiny_config(num_cores=4))
        assert system.llc.num_banks == 4

    def test_directory_kind_dispatch(self):
        kinds = {
            DirectoryKind.SPARSE: SparseDirectory,
            DirectoryKind.CUCKOO: CuckooDirectory,
            DirectoryKind.SCD: ScdDirectory,
            DirectoryKind.IDEAL: IdealDirectory,
            DirectoryKind.STASH: StashDirectory,
            DirectoryKind.ADAPTIVE_STASH: AdaptiveStashDirectory,
        }
        for kind, cls in kinds.items():
            system = build_system(tiny_config(kind))
            assert type(system.directory) is cls

    def test_directory_sized_by_ratio(self):
        # 4 cores x 8 L1 blocks = 32; ratio 0.5 -> 16 entries.
        system = build_system(tiny_config(ratio=0.5))
        assert system.directory.capacity == 16

    def test_stats_tree_rooted(self):
        system = build_system(tiny_config())
        system.access(0, 0x100, is_write=False)
        flat = system.flat_stats()
        assert any(key.startswith("system.protocol") for key in flat)
        assert any(key.startswith("system.noc") for key in flat)

    def test_stash_flag(self):
        assert build_system(tiny_config(DirectoryKind.STASH)).is_stash
        assert not build_system(tiny_config(DirectoryKind.SPARSE)).is_stash

    def test_effective_tracking_counts_entries_and_stash_bits(self):
        system = build_system(tiny_config(DirectoryKind.STASH))
        system.access(0, 0x100, is_write=False)
        assert system.effective_tracking() == 1
