"""The named workload suite — stand-ins for the paper's benchmarks.

The paper evaluates on PARSEC and SPLASH-2 binaries, which cannot ship
here; per DESIGN.md's substitution table each stand-in reproduces the
*directory-relevant* behaviour of one benchmark class: its private-block
fraction, sharing pattern, write intensity and working-set pressure.  The
names carry a ``-like`` suffix to keep the substitution honest.

Suffix guide (what each stand-in stresses):

==================  =============================================================
name                directory behaviour modelled
==================  =============================================================
blackscholes-like   embarrassingly parallel, almost all private, modest WS
swaptions-like      private-heavy, tiny working set (low directory pressure)
bodytrack-like      read-mostly shared model data + private scratch
fluidanimate-like   neighbour (producer/consumer) communication
canneal-like        huge working set, low locality — heavy capacity pressure
barnes-like         migratory bodies + read-shared tree
ocean-like          streaming private grids + boundary exchange
radix-like          streaming with high write fraction (permutation phase)
mix                 four groups of cores running different patterns
==================  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Union

from ..common.errors import ConfigError
from ..common.rng import DeterministicRng
from ..sim.trace import PackedTrace, Trace
from . import algorithms, patterns


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: a pattern builder plus its parameters."""

    name: str
    description: str
    builder: Callable[..., Union[PackedTrace, Trace]]
    params: Dict[str, object] = field(default_factory=dict)

    def build(
        self,
        num_cores: int,
        ops_per_core: int,
        seed: int,
        block_bytes: int = 64,
    ) -> PackedTrace:
        """Generate the packed trace for a concrete system size.

        A builder that returns a :class:`~repro.sim.trace.Trace` (a
        hand-written, registered one, say) is packed here, once.
        """
        rng = DeterministicRng(seed)
        return PackedTrace.from_trace(self.builder(
            num_cores,
            ops_per_core,
            rng,
            block_bytes=block_bytes,
            **self.params,
        ))


#: mix's four groups, in core order: pattern ``g`` draws from
#: ``rng.spawn(g + 1)``.
_MIX_GROUPS = (
    patterns.private_working_set,
    patterns.shared_read_only,
    patterns.producer_consumer,
    patterns.migratory,
)


def _mix(num_cores, ops_per_core, rng, *, block_bytes=64) -> PackedTrace:
    """Four core groups each running a different pattern, merged.

    Core ``c`` belongs to group ``min(c // quarter, 3)``.  Each pattern
    builds only its own group's cores, with the full ``num_cores``, so a
    core's stream is the one the full pattern trace would give it.
    """
    quarter = max(1, num_cores // 4)
    builders = [
        pattern.core_builder(
            num_cores, ops_per_core, rng.spawn(group + 1), block_bytes=block_bytes
        )
        for group, pattern in enumerate(_MIX_GROUPS)
    ]
    return PackedTrace(num_cores, [
        builders[min(core // quarter, 3)](core) for core in range(num_cores)
    ])


SUITE: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        WorkloadSpec(
            "blackscholes-like",
            "embarrassingly parallel option pricing: ~97% private accesses",
            patterns.private_working_set,
            {"ws_blocks": 320, "write_frac": 0.2, "zipf_alpha": 0.5},
        ),
        WorkloadSpec(
            "swaptions-like",
            "private-heavy with a small hot working set",
            patterns.private_working_set,
            {"ws_blocks": 96, "write_frac": 0.3, "zipf_alpha": 0.8},
        ),
        WorkloadSpec(
            "bodytrack-like",
            "read-mostly shared model data plus private scratch space",
            patterns.shared_read_only,
            {"shared_blocks": 384, "private_blocks": 192, "shared_frac": 0.35},
        ),
        WorkloadSpec(
            "fluidanimate-like",
            "neighbour communication between adjacent cores",
            patterns.producer_consumer,
            {"buffer_blocks": 48, "private_blocks": 224, "comm_frac": 0.25},
        ),
        WorkloadSpec(
            "canneal-like",
            "huge low-locality working set: maximum capacity pressure",
            patterns.private_working_set,
            {"ws_blocks": 1024, "write_frac": 0.3, "zipf_alpha": 0.3},
        ),
        WorkloadSpec(
            "barnes-like",
            "migratory bodies with read-shared tree structure",
            patterns.migratory,
            {"migratory_blocks": 96, "private_blocks": 192, "migratory_frac": 0.25},
        ),
        WorkloadSpec(
            "ocean-like",
            "streaming private grids with boundary exchange",
            patterns.streaming,
            {"stream_blocks": 1536, "write_frac": 0.35},
        ),
        WorkloadSpec(
            "radix-like",
            "streaming sort with a write-heavy permutation phase",
            patterns.streaming,
            {"stream_blocks": 768, "write_frac": 0.55},
        ),
        WorkloadSpec(
            "mix",
            "heterogeneous: private / read-shared / producer-consumer / migratory",
            _mix,
            {},
        ),
        # Extra stress workloads beyond the paper's suite (not part of the
        # default evaluation order; see EXTRA_WORKLOADS).
        WorkloadSpec(
            "falseshare-like",
            "false sharing: cores write different words of the same lines",
            patterns.false_sharing,
            {"hot_blocks": 16, "fs_frac": 0.3},
        ),
        WorkloadSpec(
            "phased-like",
            "bulk-synchronous: private compute phases + shared exchange bursts",
            patterns.phased,
            {"compute_blocks": 192, "exchange_blocks": 64},
        ),
        WorkloadSpec(
            "locks-like",
            "lock contention: spin-read, acquire, critical section, release",
            patterns.lock_contention,
            {"num_locks": 4, "lock_frac": 0.2},
        ),
        # Algorithm-derived workloads (repro.workloads.algorithms): traces
        # modelling concrete parallel algorithms rather than pure sharing
        # shapes.  See ALGORITHM_WORKLOADS.
        WorkloadSpec(
            "louvain-like",
            "graph clustering: read-mostly frontier + migratory community labels",
            algorithms.graph_clustering,
            {},
        ),
        WorkloadSpec(
            "matmul-like",
            "tiled dense matmul: systolic tile handoff with phase barriers",
            algorithms.tiled_matmul,
            {},
        ),
        WorkloadSpec(
            "sieve-like",
            "segmented prime sieve: strided writes over a shared bitmap",
            algorithms.prime_sieve,
            {},
        ),
        WorkloadSpec(
            "unionfind-like",
            "union-find segmentation: pointer chasing + migratory roots",
            algorithms.union_find,
            {},
        ),
        WorkloadSpec(
            "weakscale-like",
            "weak-scaling unit: compact private set, long post-warmup hit runs",
            patterns.private_working_set,
            # Uniform draws over an L1-resident set: every block is touched
            # early (coupon-collector warmup), then the steady state is
            # event-free.
            {"ws_blocks": 64, "write_frac": 0.25, "zipf_alpha": 0.0},
        ),
    ]
}

#: The default evaluation order (private-heavy -> heavily-shared -> mix).
SUITE_ORDER: List[str] = [
    "blackscholes-like",
    "swaptions-like",
    "bodytrack-like",
    "fluidanimate-like",
    "canneal-like",
    "barnes-like",
    "ocean-like",
    "radix-like",
    "mix",
]


#: Stress workloads available beyond the paper-style evaluation order.
EXTRA_WORKLOADS: List[str] = [
    "falseshare-like",
    "locks-like",
    "phased-like",
    "weakscale-like",
]


#: Algorithm-derived workloads (:mod:`repro.workloads.algorithms`).
ALGORITHM_WORKLOADS: List[str] = [
    "louvain-like",
    "matmul-like",
    "sieve-like",
    "unionfind-like",
]


def workload_names() -> List[str]:
    """Names accepted by :func:`build_workload`: the evaluation order plus
    the extra stress and algorithm-derived workloads."""
    return list(SUITE_ORDER) + list(EXTRA_WORKLOADS) + list(ALGORITHM_WORKLOADS)


def build_workload(
    name: str,
    num_cores: int,
    ops_per_core: int,
    seed: int = 1,
    block_bytes: int = 64,
) -> PackedTrace:
    """Generate a named suite workload as a packed trace."""
    try:
        spec = SUITE[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; known: {workload_names()}"
        ) from None
    return spec.build(num_cores, ops_per_core, seed, block_bytes)
