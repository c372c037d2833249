"""Synthetic workload generation: primitives, patterns, the named suite,
and the trace memo that materializes each workload exactly once per
process (:mod:`repro.workloads.store`)."""

from .algorithms import (
    graph_clustering,
    prime_sieve,
    tiled_matmul,
    union_find,
)
from .characterize import TraceProfile, histogram_buckets, profile_trace
from .store import get_packed_trace
from .patterns import (
    false_sharing,
    lock_contention,
    migratory,
    phased,
    private_working_set,
    producer_consumer,
    shared_read_only,
    streaming,
)
from .suite import (
    ALGORITHM_WORKLOADS,
    EXTRA_WORKLOADS,
    SUITE,
    SUITE_ORDER,
    WorkloadSpec,
    build_workload,
    workload_names,
)

__all__ = [
    "ALGORITHM_WORKLOADS",
    "SUITE",
    "SUITE_ORDER",
    "TraceProfile",
    "WorkloadSpec",
    "EXTRA_WORKLOADS",
    "build_workload",
    "false_sharing",
    "get_packed_trace",
    "graph_clustering",
    "lock_contention",
    "histogram_buckets",
    "migratory",
    "phased",
    "prime_sieve",
    "private_working_set",
    "producer_consumer",
    "profile_trace",
    "shared_read_only",
    "streaming",
    "tiled_matmul",
    "union_find",
    "workload_names",
]
