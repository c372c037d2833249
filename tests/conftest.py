"""Shared fixtures and factories for the test suite.

The helpers build deliberately tiny systems (few sets, few ways) so tests
exercise eviction and conflict paths without large traces.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.common.config import (
    CacheConfig,
    DirectoryConfig,
    DirectoryKind,
    NoCConfig,
    SystemConfig,
)
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup
from repro.sim.system import build_system


def tiny_config(
    kind: DirectoryKind = DirectoryKind.STASH,
    ratio: float = 1.0,
    num_cores: int = 4,
    dir_ways: int = 2,
    l1_sets: int = 4,
    l1_ways: int = 2,
    llc_sets: int = 64,
    llc_ways: int = 4,
    check_invariants: bool = True,
    **dir_kwargs,
) -> SystemConfig:
    """A 4-core system small enough to force evictions with short traces."""
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheConfig(sets=l1_sets, ways=l1_ways),
        llc=CacheConfig(sets=llc_sets, ways=llc_ways),
        directory=DirectoryConfig(
            kind=kind, coverage_ratio=ratio, ways=dir_ways, **dir_kwargs
        ),
        noc=NoCConfig(mesh_width=2, mesh_height=2),
        check_invariants=check_invariants,
        seed=7,
    )


class LruModel:
    """Exact LRU reference for a set-associative structure of block addresses.

    Per set it keeps a way list and an OrderedDict in LRU order (least
    recently used first).  A fill takes the lowest free way; a full set
    evicts its LRU line, or with ``prefer`` the LRU line it accepts, when
    there is one.
    """

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = sets
        self.ways = [[None] * ways for _ in range(sets)]
        self.order = [OrderedDict() for _ in range(sets)]

    def victim(self, addr, prefer=None):
        """The address a fill of ``addr`` evicts, or None if a way is free."""
        order = self.order[addr % self.sets]
        if len(order) < len(self.ways[0]):
            return None
        if prefer is not None:
            for line in order:
                if prefer(line):
                    return line
        return next(iter(order))

    def fill(self, addr, victim) -> None:
        """Evict ``victim`` (if any) and install ``addr``."""
        if victim is not None:
            self.remove(victim)
        ways = self.ways[addr % self.sets]
        ways[ways.index(None)] = addr
        self.order[addr % self.sets][addr] = None

    def touch(self, addr) -> None:
        self.order[addr % self.sets].move_to_end(addr)

    def remove(self, addr) -> None:
        ways = self.ways[addr % self.sets]
        del self.order[addr % self.sets][addr]
        ways[ways.index(addr)] = None

    def __contains__(self, addr) -> bool:
        return addr in self.order[addr % self.sets]

    def set_major(self):
        """Every line, set by set and way by way."""
        return [addr for ways in self.ways for addr in ways if addr is not None]


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_cache(tmp_path_factory):
    """Route the sweep runner's persistent cache into a session temp dir.

    Keeps the test run hermetic: nothing is read from or written to a
    developer's ``.repro_cache``, and parallel fan-out stays off unless a
    test opts in explicitly.
    """
    from repro.analysis import runner

    runner.configure(
        workers=1,
        cache_dir=str(tmp_path_factory.mktemp("repro_cache")),
        cache_enabled=True,
    )


@pytest.fixture
def rng() -> DeterministicRng:
    """A seeded RNG."""
    return DeterministicRng(42)


@pytest.fixture
def stats() -> StatGroup:
    """A fresh stats root."""
    return StatGroup("test")


@pytest.fixture
def tiny_stash_system():
    """A built 4-core stash-directory system (invariants on)."""
    return build_system(tiny_config(DirectoryKind.STASH, ratio=0.5))


@pytest.fixture
def tiny_sparse_system():
    """A built 4-core conventional sparse system (invariants on)."""
    return build_system(tiny_config(DirectoryKind.SPARSE, ratio=0.5))
