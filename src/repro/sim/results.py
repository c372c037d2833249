"""Simulation results: one container, plus the derived metrics the
experiments report.

A :class:`SimulationResult` snapshots the flattened statistics tree and the
per-core cycle counts at the end of a run.  The properties on it are the
vocabulary of EXPERIMENTS.md — execution time, average memory latency,
directory-induced invalidations per kilo-access, discovery rates, traffic —
so benches and examples never poke at raw counter names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..common.config import SystemConfig
from ..common.stats import per_kilo, ratio


@dataclass
class SimulationResult:
    """Everything a finished run exposes to analysis code."""

    config: SystemConfig
    cycles_per_core: List[int]
    stats: Dict[str, float] = field(default_factory=dict)
    effective_tracking_samples: List[int] = field(default_factory=list)
    #: Which engine produced the result ("interp" or "vector").
    #: Excluded from equality: the engines' bit-identical-output contract
    #: is stated as ``interp_result == vector_result``.
    engine: str = field(default="interp", compare=False)

    # -- core performance metrics -------------------------------------------------

    @property
    def execution_time(self) -> int:
        """Cycles until the slowest core finished — the headline metric."""
        return max(self.cycles_per_core) if self.cycles_per_core else 0

    @property
    def total_accesses(self) -> float:
        """Memory operations processed."""
        return self.stats.get("system.protocol.accesses", 0.0)

    @property
    def avg_access_latency(self) -> float:
        """Mean cycles per memory operation."""
        return ratio(self.stats.get("system.protocol.latency_total", 0.0), self.total_accesses)

    # -- L1 / LLC ---------------------------------------------------------------------

    @property
    def l1_miss_rate(self) -> float:
        """L1 misses / accesses."""
        return ratio(self.stats.get("system.protocol.l1_misses", 0.0), self.total_accesses)

    @property
    def llc_misses(self) -> float:
        """LLC misses (memory fetches on the demand path)."""
        return self.stats.get("system.protocol.llc_misses", 0.0)

    # -- directory metrics ----------------------------------------------------------------

    @property
    def stash_evictions(self) -> float:
        """Displacements resolved by stashing (no invalidation)."""
        return self.stats.get("system.directory.evictions_stash", 0.0)

    @property
    def dir_induced_invalidations(self) -> float:
        """Cached copies actually destroyed by directory evictions."""
        return self.stats.get("system.protocol.dir_induced_invalidations", 0.0)

    @property
    def dir_induced_invals_per_kilo(self) -> float:
        """The paper's motivation metric: invalidations per 1k accesses."""
        return per_kilo(self.dir_induced_invalidations, self.total_accesses)

    @property
    def coverage_misses(self) -> float:
        """L1 misses attributable to a directory-eviction invalidation."""
        return self.stats.get("system.protocol.coverage_misses", 0.0)

    @property
    def coverage_misses_per_kilo(self) -> float:
        """Coverage misses per 1k accesses."""
        return per_kilo(self.coverage_misses, self.total_accesses)

    # -- discovery metrics -------------------------------------------------------------------

    @property
    def discovery_broadcasts(self) -> float:
        """Discovery broadcasts issued."""
        return self.stats.get("system.discovery.broadcasts", 0.0)

    @property
    def false_discoveries(self) -> float:
        """Broadcasts that found no hidden copy (stale stash bit)."""
        return self.stats.get("system.discovery.false_discoveries", 0.0)

    @property
    def discovery_per_kilo(self) -> float:
        """Discovery broadcasts per 1k accesses."""
        return per_kilo(self.discovery_broadcasts, self.total_accesses)

    @property
    def false_discovery_rate(self) -> float:
        """False broadcasts / all broadcasts."""
        return ratio(self.false_discoveries, self.discovery_broadcasts)

    # -- traffic / memory ------------------------------------------------------------------------

    @property
    def total_flit_hops(self) -> float:
        """Hop-weighted flits over the whole run (the traffic metric)."""
        return self.stats.get("system.noc.flit_hops.total", 0.0)

    @property
    def total_messages(self) -> float:
        """Raw message count."""
        return self.stats.get("system.noc.msgs.total", 0.0)

    def traffic_of(self, msg_class: str) -> float:
        """Hop-weighted flits of one message class (by class name)."""
        return self.stats.get(f"system.noc.flit_hops.{msg_class}", 0.0)

    @property
    def memory_reads(self) -> float:
        """Blocks fetched from main memory."""
        return self.stats.get("system.memory.reads", 0.0)

    # -- comparisons -------------------------------------------------------------------------------

    def normalized_time(self, baseline: "SimulationResult") -> float:
        """Execution time normalized to a baseline run (paper's y-axis)."""
        return ratio(float(self.execution_time), float(baseline.execution_time), default=1.0)

    def normalized_traffic(self, baseline: "SimulationResult") -> float:
        """Traffic normalized to a baseline run."""
        return ratio(self.total_flit_hops, baseline.total_flit_hops, default=1.0)

    def summary(self) -> Dict[str, float]:
        """Compact metric dictionary for printing."""
        return {
            "execution_time": float(self.execution_time),
            "avg_access_latency": self.avg_access_latency,
            "l1_miss_rate": self.l1_miss_rate,
            "dir_invals_per_kilo": self.dir_induced_invals_per_kilo,
            "coverage_misses_per_kilo": self.coverage_misses_per_kilo,
            "stash_evictions": self.stash_evictions,
            "discoveries_per_kilo": self.discovery_per_kilo,
            "false_discovery_rate": self.false_discovery_rate,
            "flit_hops": self.total_flit_hops,
            "memory_reads": self.memory_reads,
        }
