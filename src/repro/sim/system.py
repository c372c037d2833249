"""System builder: wire a :class:`~repro.coherence.protocol.CoherentSystem`.

The single place that knows how the pieces fit together: per-core L1s, one
shared LLC banked across the core tiles, the directory organization the
config requests (sized by its coverage ratio), the mesh network and the
memory model — all hanging off one statistics tree rooted at ``system``.
"""

from __future__ import annotations

from ..cache.hierarchy import PrivateHierarchy
from ..cache.l1 import L1Cache
from ..cache.llc import SharedLLC
from ..coherence.protocol import CoherentSystem
from ..common.config import SystemConfig
from ..common.rng import DeterministicRng
from ..common.stats import StatGroup
from ..directory import DIRECTORY_RNG_STREAM, make_directory
from ..mem import make_memory
from ..noc.network import Network


def build_system(config: SystemConfig) -> CoherentSystem:
    """Construct a ready-to-run coherent memory system from its config."""
    stats = StatGroup("system")
    rng = DeterministicRng(config.seed)

    if config.l2 is not None:
        l1s = [
            PrivateHierarchy(
                core, config.l1, config.l2, rng.spawn(1000 + core),
                stats.child(f"private.{core}"),
            )
            for core in range(config.num_cores)
        ]
    else:
        l1s = [
            L1Cache(core, config.l1, rng.spawn(1000 + core), stats.child(f"l1.{core}"))
            for core in range(config.num_cores)
        ]
    llc = SharedLLC(
        config.llc,
        num_banks=config.num_cores,
        rng=rng.spawn(2000),
        stats=stats.child("llc"),
    )
    directory = make_directory(
        config.directory,
        config.num_cores,
        config.directory_entries,
        rng.spawn(DIRECTORY_RNG_STREAM),
        stats.child("directory"),
    )
    network = Network(config.noc, stats.child("noc"))
    memory = make_memory(config, stats.child("memory"))

    return CoherentSystem(config, l1s, llc, directory, network, memory, stats)
