"""Trace memo: materialize each workload exactly once per process.

Every sweep point over the same ``(workload, num_cores, ops_per_core,
seed, block_bytes)`` replays the *identical* trace — a kinds x ratios
sweep varies only the directory configuration.  This module memoizes
generated traces in packed form (:class:`repro.sim.trace.PackedTrace`)
in a dict keyed by the full generation parameterization: one generation
per key per process, and with a forking process pool, workers inherit
the parent's memo for free.

:data:`counters` tracks memo hits and generations; the sweep runner
folds them into ``--cache-stats``.  A pool worker's lookups land in the
worker's own copy of the counters, so each point reports the lookups it
made (:class:`TraceLookups`, the difference of two :func:`mark` s) and the
parent adds a report from another process with :func:`fold`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

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


class TraceLookups(NamedTuple):
    """Trace-memo counts of the process ``pid`` (a mark, or a difference)."""

    pid: int
    memo_hits: int
    generated: int
    gen_seconds: float


def mark() -> TraceLookups:
    """This process's counters as they stand."""
    return TraceLookups(
        os.getpid(), counters.memo_hits, counters.generated, counters.gen_seconds
    )


def lookups_since(start: TraceLookups) -> TraceLookups:
    """The lookups this process made since the :func:`mark` ``start``."""
    now = mark()
    return TraceLookups(
        now.pid,
        now.memo_hits - start.memo_hits,
        now.generated - start.generated,
        now.gen_seconds - start.gen_seconds,
    )


def fold(lookups: TraceLookups) -> None:
    """Count lookups another process (a pool worker) made.

    A report from this process is ignored: its lookups are counted already.
    """
    if lookups.pid == os.getpid():
        return
    counters.memo_hits += lookups.memo_hits
    counters.generated += lookups.generated
    counters.gen_seconds += lookups.gen_seconds

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
