"""Trace memo: materialize each workload exactly once per process.

Every sweep point over the same ``(workload, num_cores, ops_per_core,
seed, block_bytes)`` replays the *identical* trace — a kinds x ratios
sweep varies only the directory configuration.  This module memoizes
generated traces in packed form (:class:`repro.sim.trace.PackedTrace`)
in a dict keyed by the full generation parameterization: one generation
per key per process, and with a forking process pool, workers inherit
the parent's memo for free.

:data:`counters` tracks memo hits and generations; the sweep runner
folds them into ``--cache-stats``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.trace import PackedTrace
from .suite import build_workload


def memo_key(
    workload: str,
    num_cores: int,
    ops_per_core: int,
    seed: int,
    block_bytes: int,
) -> tuple:
    """Hashable in-process memo key: the full generation parameterization."""
    return (workload, num_cores, ops_per_core, seed, block_bytes)


@dataclass
class TraceStoreCounters:
    """Hit/generation counters for the trace memo (process-global)."""

    memo_hits: int = 0
    generated: int = 0
    gen_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        """Total trace requests."""
        return self.memo_hits + self.generated

    def reset(self) -> None:
        """Zero every counter (tests and benchmarks)."""
        self.__init__()


#: Process-global counters (reset with ``counters.reset()``).
counters = TraceStoreCounters()

#: In-process generation memo: memo_key -> PackedTrace.
_TRACE_MEMO: Dict[tuple, PackedTrace] = {}


def clear_memo() -> None:
    """Drop every memoized trace."""
    _TRACE_MEMO.clear()


def get_packed_trace(
    workload: str,
    num_cores: int,
    ops_per_core: int,
    seed: int = 1,
    block_bytes: int = 64,
    disk_enabled: Optional[bool] = None,
) -> PackedTrace:
    """One workload trace from the memo, generated on a miss.

    The returned :class:`PackedTrace` is shared (also kept in the memo):
    treat it as immutable.  ``disk_enabled`` is accepted and ignored:
    there is no on-disk trace layer, and the keyword stays only until the
    benchmark harness stops passing it (ROADMAP item 1).
    """
    key = memo_key(workload, num_cores, ops_per_core, seed, block_bytes)
    hit = _TRACE_MEMO.get(key)
    if hit is not None:
        counters.memo_hits += 1
        return hit
    start = time.perf_counter()
    packed = build_workload(
        workload, num_cores, ops_per_core, seed=seed, block_bytes=block_bytes
    )
    counters.gen_seconds += time.perf_counter() - start
    counters.generated += 1
    _TRACE_MEMO[key] = packed
    return packed
