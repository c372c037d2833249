"""Validated configuration dataclasses for the whole system.

A :class:`SystemConfig` fully determines a simulation: the core count, the
private-cache and LLC geometries, the directory organization and its
provisioning ratio, the NoC, the latency model and the energy model.  Every
config validates itself eagerly (``__post_init__``) so that a bad parameter
fails at construction time with a :class:`~repro.common.errors.ConfigError`,
never mid-simulation.

Directory provisioning follows the paper's convention: the **coverage ratio**
``R`` is the number of directory entries divided by the aggregate number of
private-cache blocks.  ``R = 1`` means one entry per L1 block system-wide
(the "100% provisioned" conventional design); the paper's headline operates
stash at ``R = 1/8``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Optional

from .addr import is_power_of_two
from .errors import ConfigError
from .mesi import CoherenceProtocol


class DirectoryKind(str, Enum):
    """Which directory organization the system instantiates."""

    IDEAL = "ideal"        # infinite duplicate-tag directory (no conflicts)
    SPARSE = "sparse"      # conventional set-associative sparse directory
    CUCKOO = "cuckoo"      # Cuckoo directory baseline (Ferdman et al., HPCA'11)
    STASH = "stash"        # the paper's contribution
    ADAPTIVE_STASH = "adaptive_stash"  # extension: stash with feedback throttling
    SCD = "scd"            # SCD-lite baseline (Sanchez & Kozyrakis, HPCA'12):
                           # fully associative line pool, multi-line sharer sets
    IN_LLC = "in_llc"      # sharer vector embedded in every LLC line (no
                           # conflicts; the storage-hungry design sparse
                           # directories exist to avoid)
    TARDIS = "tardis"      # timestamp coherence (Yu & Devadas, PACT'15):
                           # per-block read/write timestamps + lease-based
                           # self-invalidation; no sharer tracking at all


class MemoryModel(str, Enum):
    """Which main-memory model the system instantiates."""

    FLAT = "flat"    # fixed-latency device (default; enough for trends)
    DRAM = "dram"    # open-page banks with row buffers (see repro.mem.dram)


class SharerFormat(str, Enum):
    """How a directory entry encodes its sharer set (storage model + protocol)."""

    FULL_BIT_VECTOR = "full"       # one bit per core
    COARSE_VECTOR = "coarse"       # one bit per group of cores
    LIMITED_POINTER = "limited"    # a few explicit core pointers + overflow
    HIERARCHICAL = "hier"          # SCD-style two-level: per-cluster pointers
                                   # + sticky whole-cluster overflow (O(sqrt N))


class StashEligibility(str, Enum):
    """Which entries a stash directory may stash instead of invalidating."""

    ANY_PRIVATE = "any_private"    # exactly one sharer, any of M/E/S (paper default)
    EXCLUSIVE_ONLY = "exclusive_only"  # only E/M entries (ablation A1)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache (an L1 or one LLC bank's share).

    Attributes:
        sets: number of sets (power of two).
        ways: associativity.
        block_bytes: line size in bytes (power of two, same system-wide).

    Every cache replaces its least recently used line.
    """

    sets: int
    ways: int
    block_bytes: int = 64

    def __post_init__(self) -> None:
        if not is_power_of_two(self.sets):
            raise ConfigError(f"cache sets must be a power of two, got {self.sets}")
        if self.ways < 1:
            raise ConfigError(f"cache ways must be >= 1, got {self.ways}")
        if not is_power_of_two(self.block_bytes):
            raise ConfigError(f"block_bytes must be a power of two, got {self.block_bytes}")

    @property
    def blocks(self) -> int:
        """Total number of lines this cache can hold."""
        return self.sets * self.ways

    @property
    def capacity_bytes(self) -> int:
        """Data capacity in bytes."""
        return self.blocks * self.block_bytes


@dataclass(frozen=True)
class DirectoryConfig:
    """Directory organization, provisioning and entry format.

    The number of entries is derived from ``coverage_ratio`` at system-build
    time (entries = ratio * cores * l1_blocks) unless ``entries_override``
    pins it explicitly.  ``ways`` is the associativity of the
    set-associative organizations and the hash-way count of the cuckoo
    baseline.

    ``sharer_format`` picks the entry's sharer encoding.  Only the coarse
    vector (``coarse_group``) and limited pointers (``limited_pointers``)
    take a parameter here; the hierarchical format always uses a
    ``ceil(sqrt(num_cores))`` cluster and
    :data:`~repro.directory.sharers.HIER_POINTERS` pointers per cluster.
    The directories and the area model build and size the encoding from
    this config through :mod:`repro.directory.sharers`.
    """

    kind: DirectoryKind = DirectoryKind.STASH
    coverage_ratio: float = 1.0
    ways: int = 8
    entries_override: Optional[int] = None
    sharer_format: SharerFormat = SharerFormat.FULL_BIT_VECTOR
    coarse_group: int = 4            # cores per bit for COARSE_VECTOR
    limited_pointers: int = 4        # pointers for LIMITED_POINTER
    # Stash-specific knobs (ignored by other kinds).
    stash_eligibility: StashEligibility = StashEligibility.ANY_PRIVATE
    clean_eviction_notification: bool = False  # ablation A2
    # Discovery presence filter (0 = broadcast to everyone, the default).
    # When > 0 (power of two), the home keeps per-core counting filters of
    # that many slots and discovery probes only matching cores (A5).
    discovery_filter_slots: int = 0
    # Tardis-specific knobs (ignored by other kinds).  A read grant leases
    # the block for ``tardis_lease`` op-clock ticks; the expired copy
    # self-invalidates with no message.  ``tardis_ts_bits`` sizes the two
    # per-block timestamps in the storage model.
    tardis_lease: int = 16
    tardis_ts_bits: int = 20

    def __post_init__(self) -> None:
        if self.coverage_ratio <= 0:
            raise ConfigError(f"coverage_ratio must be positive, got {self.coverage_ratio}")
        if self.ways < 1:
            raise ConfigError(f"directory ways must be >= 1, got {self.ways}")
        if self.entries_override is not None and self.entries_override < 1:
            raise ConfigError("entries_override must be >= 1 when given")
        if self.coarse_group < 1:
            raise ConfigError("coarse_group must be >= 1")
        if self.limited_pointers < 1:
            raise ConfigError("limited_pointers must be >= 1")
        if self.discovery_filter_slots < 0 or (
            self.discovery_filter_slots and not is_power_of_two(self.discovery_filter_slots)
        ):
            raise ConfigError(
                "discovery_filter_slots must be 0 or a power of two, got "
                f"{self.discovery_filter_slots}"
            )
        if self.tardis_lease < 1:
            raise ConfigError(f"tardis_lease must be >= 1, got {self.tardis_lease}")
        if self.tardis_ts_bits < 1:
            raise ConfigError(f"tardis_ts_bits must be >= 1, got {self.tardis_ts_bits}")

    def entries_for(self, num_cores: int, l1_blocks: int) -> int:
        """Resolve the entry count for a concrete system.

        Rounded down to a multiple of ``ways`` (at least one full set) so the
        set-associative organizations get an integral number of sets; the set
        count is then rounded down to a power of two for index extraction.
        """
        if self.entries_override is not None:
            raw = self.entries_override
        else:
            raw = int(self.coverage_ratio * num_cores * l1_blocks)
        raw = max(raw, self.ways)
        sets = max(1, raw // self.ways)
        # Round sets down to a power of two (keeps modulo indexing exact).
        sets = 1 << (sets.bit_length() - 1)
        return sets * self.ways


def _check_cycles(config, names) -> None:
    """Each field in ``names`` must be a non-negative ``int`` cycle count.

    A fraction made the engines disagree (the interpreter truncates its
    per-core cycles), and the vector engine's heap keys are ints.
    """
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an int cycle count, got {value!r}")
        if value < 0:
            raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class NoCConfig:
    """2-D mesh network model.

    One router per core tile; LLC banks and directory banks are co-located
    with tiles.  Latency per message = ``hops * hop_cycles + router_cycles``.
    """

    mesh_width: int = 4
    mesh_height: int = 4
    hop_cycles: int = 2
    router_cycles: int = 1
    track_links: bool = False  # per-link flit attribution (O(hops)/message)

    def __post_init__(self) -> None:
        if self.mesh_width < 1 or self.mesh_height < 1:
            raise ConfigError("mesh dimensions must be >= 1")
        _check_cycles(self, ("hop_cycles", "router_cycles"))

    @property
    def nodes(self) -> int:
        """Number of mesh tiles."""
        return self.mesh_width * self.mesh_height


@dataclass(frozen=True)
class TimingConfig:
    """First-order latency model (cycles)."""

    l1_hit: int = 2
    l2_hit: int = 8        # private L2 access (only with a private L2)
    llc_access: int = 10
    directory_access: int = 2
    memory_latency: int = 120
    core_fixed_cpi: int = 1   # cycles charged per non-memory "work" unit
    # Optional home-bank serialization: each request occupies its home
    # bank's controller for ``home_occupancy`` cycles; concurrent requests
    # to the same bank queue.  Off by default (zero = no contention model).
    home_occupancy: int = 0

    def __post_init__(self) -> None:
        _check_cycles(self, (
            "l1_hit", "l2_hit", "llc_access", "directory_access",
            "memory_latency", "core_fixed_cpi", "home_occupancy",
        ))


@dataclass(frozen=True)
class DramConfig:
    """Open-page DRAM timing (cycles) and geometry.

    Defaults sum to roughly the flat model's 120-cycle latency for a
    row-miss access, so switching models preserves the overall scale.
    """

    banks: int = 8
    row_blocks: int = 32          # consecutive blocks per row (2 KiB rows)
    precharge_cycles: int = 38
    activate_cycles: int = 38
    cas_cycles: int = 38
    transfer_cycles: int = 6

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise ConfigError("DRAM needs at least one bank")
        if self.row_blocks < 1:
            raise ConfigError("DRAM rows must hold at least one block")
        for name in ("precharge_cycles", "activate_cycles", "cas_cycles", "transfer_cycles"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class EnergyConfig:
    """Per-event dynamic energies (pJ) and per-entry leakage (pW-cycles).

    Absolute values are representative, not calibrated: the reproduced
    energy claims are *ratios* between organizations (see DESIGN.md).
    """

    l1_access_pj: float = 10.0
    llc_access_pj: float = 50.0
    directory_access_pj: float = 5.0
    memory_access_pj: float = 500.0
    noc_hop_pj: float = 3.0
    directory_leakage_pw_per_entry: float = 0.5

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated CMP.

    The default mirrors the paper's 16-core model with sizes scaled down for
    trace-driven simulation speed (ratios preserved — see DESIGN.md).
    """

    num_cores: int = 16
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(sets=64, ways=4))
    # Optional private L2 per core (inclusive of the L1).  When set, the
    # directory tracks the L2 level — the private domain is L1+L2.
    l2: Optional[CacheConfig] = None
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(sets=1024, ways=16))
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    noc: NoCConfig = field(default_factory=NoCConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    memory_model: MemoryModel = MemoryModel.FLAT
    dram: DramConfig = field(default_factory=DramConfig)
    protocol: CoherenceProtocol = CoherenceProtocol.MESI
    check_invariants: bool = False
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        if self.noc.nodes < self.num_cores:
            raise ConfigError(
                f"mesh has {self.noc.nodes} tiles but system has {self.num_cores} cores"
            )
        if self.l1.block_bytes != self.llc.block_bytes:
            raise ConfigError("L1 and LLC must share one block size")
        if self.l2 is not None:
            if self.l2.block_bytes != self.l1.block_bytes:
                raise ConfigError("private L2 must share the L1 block size")
            if self.l2.blocks < self.l1.blocks:
                raise ConfigError(
                    "inclusive private L2 must be at least as large as the L1"
                )
        # Note: the LLC may be configured smaller than the aggregate L1s;
        # inclusion is enforced dynamically by back-invalidation, so such a
        # system is functional (useful in tests) though unrealistic.

    @property
    def block_bytes(self) -> int:
        """System-wide cache-line size."""
        return self.l1.block_bytes

    @property
    def private_blocks_per_core(self) -> int:
        """Lines one core's private domain can hold (L2 when present)."""
        return self.l2.blocks if self.l2 is not None else self.l1.blocks

    @property
    def directory_entries(self) -> int:
        """Resolved number of directory entries for this system.

        Coverage ratio R is defined against the level the directory tracks:
        the private L2s when present, else the L1s.
        """
        return self.directory.entries_for(self.num_cores, self.private_blocks_per_core)

    def with_directory(self, **changes) -> "SystemConfig":
        """A copy with directory fields replaced (sweep helper)."""
        return replace(self, directory=replace(self.directory, **changes))

    def describe(self) -> Dict[str, str]:
        """Human-readable key/value summary (used by the T1 config table)."""
        return {
            "cores": str(self.num_cores),
            "block size": f"{self.block_bytes} B",
            "L1 (per core)": (
                f"{self.l1.capacity_bytes // 1024} KiB, {self.l1.ways}-way, "
                f"{self.l1.sets} sets, lru"
            ),
            "L2 (per core)": (
                "none"
                if self.l2 is None
                else f"{self.l2.capacity_bytes // 1024} KiB, {self.l2.ways}-way, "
                f"{self.l2.sets} sets, lru"
            ),
            "LLC (shared)": (
                f"{self.llc.capacity_bytes // 1024} KiB, {self.llc.ways}-way, "
                f"{self.llc.sets} sets, lru"
            ),
            "directory": (
                f"{self.directory.kind.value}, R={self.directory.coverage_ratio:g}, "
                f"{self.directory.ways}-way, {self.directory_entries} entries, "
                f"format={self.directory.sharer_format.value}"
            ),
            "NoC": (
                f"{self.noc.mesh_width}x{self.noc.mesh_height} mesh, "
                f"{self.noc.hop_cycles} cyc/hop"
            ),
            "memory": f"{self.timing.memory_latency} cycles",
        }
