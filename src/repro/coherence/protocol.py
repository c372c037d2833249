"""The coherent memory system: one facade over caches, directory and NoC.

:class:`CoherentSystem` is the object the trace-driven simulator (and the
examples, and many tests) talks to.  ``access(core, block_addr, is_write)``
performs one fully-resolved coherence transaction and returns its latency;
everything else is inspection: statistics, invariant checking, and the
effective-tracking metric the F7 experiment reports.

Construction wiring lives in :func:`repro.sim.system.build_system`.
"""

from __future__ import annotations

from typing import Dict, List

from ..cache.l1 import L1Cache
from ..cache.llc import SharedLLC
from ..common.config import DirectoryKind, SystemConfig
from ..common.stats import StatGroup
from ..core.discovery import DiscoveryEngine
from ..directory.base import Directory
from ..mem import Memory
from ..noc.network import Network
from .invariants import (
    check_data_values,
    check_directory_inclusion,
    check_entries_llc_resident,
    check_llc_inclusion,
    check_swmr,
)
from .l1_controller import L1Controller
from .llc_controller import HomeController


class CoherentSystem:
    """A complete CMP memory system processing one access at a time."""

    def __init__(
        self,
        config: SystemConfig,
        l1s: List[L1Cache],
        llc: SharedLLC,
        directory: Directory,
        network: Network,
        memory: Memory,
        stats: StatGroup,
    ) -> None:
        self.config = config
        self.l1s = l1s
        self.llc = llc
        self.directory = directory
        self.network = network
        self.memory = memory
        self.stats = stats
        self.discovery = DiscoveryEngine(network, l1s, stats.child("discovery"))
        self._protocol_stats = stats.child("protocol")
        if config.directory.kind is DirectoryKind.TARDIS:
            from .tardis import TardisHome, TardisL1Controller

            self.home = TardisHome(
                config, directory, llc, l1s, network, memory,
                self._protocol_stats,
            )
            self.l1_controllers = [
                TardisL1Controller(
                    core, l1s[core], self.home, network, config.timing,
                    self._protocol_stats,
                )
                for core in range(config.num_cores)
            ]
            self._l1_access = [c.access for c in self.l1_controllers]
            self._c_latency_total = None
            return
        self.home = HomeController(
            config,
            directory,
            llc,
            l1s,
            network,
            memory,
            self.discovery,
            stats.child("protocol"),
        )
        slots = config.directory.discovery_filter_slots
        if slots:
            from ..core.filter import PresenceFilter

            self.home.filter = PresenceFilter(
                config.num_cores, slots, stats.child("filter")
            )
        self.l1_controllers = [
            L1Controller(
                core, l1s[core], self.home, network, config.timing,
                self._protocol_stats,
            )
            for core in range(config.num_cores)
        ]
        # Hot-path hoists for access(): per-core bound methods and the
        # total-latency counter cell (bound on first access).
        self._l1_access = [controller.access for controller in self.l1_controllers]
        self._c_latency_total = None

    # -- the one operation ------------------------------------------------------

    def access(self, core: int, block_addr: int, is_write: bool, now: int = 0) -> int:
        """One memory operation by ``core``; returns its latency in cycles.

        ``now`` is the issuing core's clock; only the DRAM memory model
        consumes it (bank busy windows), so callers that do not track time
        may omit it.
        """
        self.home.now = now
        latency = self._l1_access[core](block_addr, is_write)
        cell = self._c_latency_total
        if cell is None:
            cell = self.latency_cell()
        cell.value += latency
        return latency

    def latency_cell(self):
        """Bound cell for the ``latency_total`` counter (created on demand).

        The trace-driven simulator inlines the per-op accounting of
        :meth:`access` into its run loop; this accessor hands it the same
        cell so the statistics stay identical.
        """
        cell = self._c_latency_total
        if cell is None:
            cell = self._c_latency_total = self._protocol_stats.counter("latency_total")
        return cell

    # -- invariants ----------------------------------------------------------------

    @property
    def is_stash(self) -> bool:
        """Is the configured directory a stash design (relaxed inclusion)?"""
        return self.config.directory.kind in (
            DirectoryKind.STASH,
            DirectoryKind.ADAPTIVE_STASH,
        )

    def check_invariants(self) -> None:
        """Run the full invariant suite; raises on the first violation."""
        if self.config.directory.kind is DirectoryKind.TARDIS:
            # Tardis legally violates SWMR (leased readers coexist with a
            # writer) and LLC inclusion (leased copies survive eviction);
            # it has its own invariant suite.
            from .tardis import check_tardis_invariants

            check_tardis_invariants(self)
            return
        check_swmr(self.l1s)
        check_llc_inclusion(self.l1s, self.llc)
        check_directory_inclusion(self.l1s, self.llc, self.directory, self.is_stash)
        check_entries_llc_resident(self.directory, self.llc)
        check_data_values(
            self.l1s, self.llc, self.home.latest_version, self.home.memory_version
        )

    # -- metrics ----------------------------------------------------------------------

    def effective_tracking(self) -> int:
        """Blocks currently covered: tracked entries + live stash bits.

        The paper's "effective directory capacity" — the stash bits extend
        coverage beyond the physical entry count.
        """
        return self.directory.occupancy() + self.llc.stash_bit_count()

    def hidden_blocks(self) -> int:
        """Privately cached blocks with no directory entry (stash only)."""
        tracked = {entry.addr for entry in self.directory.iter_entries()}
        hidden = set()
        for l1 in self.l1s:
            for block in l1.iter_blocks():
                if block.addr not in tracked:
                    hidden.add(block.addr)
        return len(hidden)

    def flat_stats(self) -> Dict[str, float]:
        """The whole statistics tree, flattened (reporting entry point)."""
        return self.stats.to_dict()
