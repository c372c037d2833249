"""Trace-driven multicore simulator.

Cores execute their operation streams concurrently under a
**timestamp-ordered interleave**: at every step the core with the smallest
local clock issues its next operation, the coherence transaction resolves
atomically, and the core's clock advances by the observed latency plus the
fixed per-op cost.  This is the standard discipline for trace-driven
coherence studies: cross-core orderings emerge from the relative progress of
the cores, and every protocol-visible event (misses, evictions, discoveries,
invalidations) is modeled exactly.

Debug support: with ``config.check_invariants`` the full invariant suite
(:mod:`repro.coherence.invariants`) runs every ``invariant_interval``
operations and once at the end — slow, but it turns any protocol bug into a
pinpointed failure.  ``sample_interval`` controls periodic sampling of the
effective-tracking metric (experiment F7).

Observability (:mod:`repro.obs`): pass an attached
:class:`~repro.obs.Observer` and the run loop additionally fires the epoch
sampler every ``observer.epoch_interval`` operations (plus a final partial
epoch) and honors ``observer.invariant_interval`` as the invariant cadence
even when the config flag is off.  With no observer every probe stays a
``-1`` threshold that never fires — the null-probe contract.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Union

from ..coherence.protocol import CoherentSystem
from ..common.addr import log2_exact
from ..common.errors import TraceError
from .results import SimulationResult
from .system import build_system
from .trace import PackedTrace, Trace


class Simulator:
    """Runs one trace on one coherent system."""

    def __init__(
        self,
        system: CoherentSystem,
        invariant_interval: int = 1024,
        sample_interval: int = 4096,
        warmup_ops: int = 0,
        observer=None,
    ) -> None:
        self.system = system
        if invariant_interval < 1:
            raise TraceError("invariant_interval must be >= 1")
        if sample_interval < 1:
            raise TraceError("sample_interval must be >= 1")
        self.invariant_interval = invariant_interval
        self.sample_interval = sample_interval
        if warmup_ops < 0:
            raise TraceError("warmup_ops must be non-negative")
        self.warmup_ops = warmup_ops
        self.observer = observer

    def run(self, trace: Union[Trace, PackedTrace]) -> SimulationResult:
        """Execute the whole trace; returns the result snapshot.

        The loop reads one ``(addr << 1) | is_write`` word per operation
        and decodes it inline: ``block = word >> (block_shift + 1)``,
        ``is_write = word & 1``.  A :class:`PackedTrace` is read as is; a
        :class:`Trace` is converted once into per-core lists of the same
        words.  Those are plain Python ints, so addresses beyond
        :data:`~repro.sim.trace.MAX_PACKED_ADDR` still run, and results
        are bit-identical across the two forms.

        The interleave is identical to a pure pop/push min-heap loop (ties
        broken by core index), but the hot path avoids heap churn: after a
        core issues an op it keeps running inline while its ``(clock,
        core)`` pair is still the global minimum, so a heap transaction
        only happens when the lead actually changes hands.

        Raises :class:`TraceError` when the trace has more cores than the
        system, or fewer operations than ``warmup_ops``.
        """
        config = self.system.config
        if trace.num_cores > config.num_cores:
            raise TraceError(
                f"trace has {trace.num_cores} cores, system only {config.num_cores}"
            )
        total_ops = trace.total_ops()
        if self.warmup_ops > total_ops:
            raise TraceError(
                f"warmup of {self.warmup_ops} ops exceeds the trace's "
                f"{total_ops} ops"
            )
        if isinstance(trace, PackedTrace):
            streams = trace.streams
        else:
            streams = [
                [(addr << 1) | 1 if is_write else addr << 1 for addr, is_write in ops]
                for ops in trace.ops
            ]
        packshift = log2_exact(config.block_bytes) + 1  # block bits + write bit
        fixed = config.timing.core_fixed_cpi
        check = config.check_invariants

        clocks = [0.0] * trace.num_cores
        cursors = [0] * trace.num_cores

        samples: List[int] = []
        processed = 0
        warmup_ops = self.warmup_ops
        invariant_interval = self.invariant_interval
        sample_interval = self.sample_interval
        observer = self.observer
        epoch_interval = 0
        sample_epoch = None
        if observer is not None:
            epoch_interval = observer.epoch_interval
            sample_epoch = observer.sample_epoch
            if observer.invariant_interval > 0:
                # The observer's cadence wins: it enables checking even when
                # the config flag is off, matching CLI --check-invariants N.
                check = True
                invariant_interval = observer.invariant_interval
        # Next-threshold counters replace per-op modulo checks; identical
        # firing pattern for any interval >= 1 (enforced at construction).
        next_invariant = invariant_interval if check else -1
        next_sample = sample_interval
        next_epoch = epoch_interval if epoch_interval else -1
        warmup_clocks = [0.0] * trace.num_cores
        system = self.system
        check_invariants = system.check_invariants
        effective_tracking = system.effective_tracking
        # CoherentSystem.access, inlined: the home clock, the per-core
        # controller entry points and the latency_total cell are hoisted
        # out of the loop.  The cell is bound after the first access, as
        # access() binds it, so the statistics keep their key order.
        home = system.home
        l1_access = system._l1_access
        lat_cell = None

        # Min-heap of (clock, core) for the timestamp-ordered interleave.
        heap = [(0.0, core) for core in range(trace.num_cores) if streams[core]]
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        while heap:
            clock, core = heappop(heap)
            ops = streams[core]
            cursor = cursors[core]
            remaining = len(ops)
            core_access = l1_access[core]
            while True:
                word = ops[cursor]
                cursor += 1
                home.now = clock
                latency = core_access(word >> packshift, word & 1)
                if lat_cell is None:
                    lat_cell = system.latency_cell()
                lat_cell.value += latency
                clock += latency + fixed
                processed += 1
                if processed == warmup_ops:
                    # End of warmup: discard statistics, keep all cache
                    # and directory state, and measure time from here
                    # (the standard region-of-interest discipline).
                    system.stats.reset()
                    clocks[core] = clock
                    cursors[core] = cursor
                    warmup_clocks = list(clocks)
                if processed == next_invariant:
                    next_invariant += invariant_interval
                    check_invariants()
                if processed == next_sample:
                    next_sample += sample_interval
                    samples.append(effective_tracking())
                if processed == next_epoch:
                    next_epoch += epoch_interval
                    sample_epoch(processed, clock)
                if cursor == remaining:
                    break
                if heap:
                    head = heap[0]
                    if clock > head[0] or (clock == head[0] and core > head[1]):
                        heappush(heap, (clock, core))
                        break
            clocks[core] = clock
            cursors[core] = cursor

        if check:
            check_invariants()
        if epoch_interval and processed != next_epoch - epoch_interval:
            # Final partial epoch so the series always covers the whole run.
            sample_epoch(processed, max(clocks))
        return SimulationResult(
            config=config,
            cycles_per_core=[
                int(c - w) for c, w in zip(clocks, warmup_clocks)
            ],
            stats=system.flat_stats(),
            effective_tracking_samples=samples,
        )


def run_trace(
    config,
    trace: Union[Trace, PackedTrace],
    system: Optional[CoherentSystem] = None,
    observer=None,
    engine: str = "interp",
) -> SimulationResult:
    """Convenience one-shot: build the system (unless given) and run.

    This is the function the examples, experiments and most tests call;
    ``trace`` may be packed or unpacked (results are identical).
    ``observer`` is a pre-attached :class:`repro.obs.Observer` (it must wrap
    the same ``system`` when one is passed).

    ``engine`` selects the execution engine: ``"interp"`` (the controller
    interpreter above) or ``"vector"`` (the flat table-driven engine of
    :mod:`repro.sim.vector`).  Both produce bit-identical results;
    ``"vector"`` falls back to the interpreter transparently when the
    configuration is outside the flat model (see
    :func:`repro.sim.vector.vector_supports`), when a pre-built ``system``
    or ``observer`` needs the live objects, or when the trace cannot be
    packed.  ``result.engine`` records which engine actually ran.
    """
    if engine not in ("interp", "vector"):
        raise TraceError(
            f"unknown engine {engine!r} (expected 'interp' or 'vector')"
        )
    if engine == "vector" and system is None and observer is None:
        from .vector import VectorEngine, vector_supports

        if vector_supports(config) is None:
            packed: Optional[PackedTrace]
            try:
                packed = PackedTrace.from_trace(trace)
            except TraceError:
                packed = None  # e.g. addresses beyond the packed range
            if packed is not None:
                return VectorEngine(config).run(packed)
    if system is None:
        system = build_system(config)
    return Simulator(system, observer=observer).run(trace)
