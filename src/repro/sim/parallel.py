"""Bank-parallel scaling engine: run-length batched execution to 1024 cores.

The third execution engine for the same simulated machine, built for the
regime the paper actually argues about — hundreds to a thousand cores —
where the serial engines' per-operation Python dispatch is the wall.  It
layers two mechanisms over the flat state of :mod:`repro.sim.vector`:

1. **Numpy-native streams and snapshots.**  Each core's packed stream is
   also held as numpy block/write arrays (decoded once by
   :meth:`~repro.sim.trace.PackedTrace.numpy_streams`) for the vectorized
   passes, and each core's L1 residency is snapshotted into sorted
   block/state arrays so a whole window of future operations is
   classified in one vectorized pass, inline in the commit loop.  Scalar
   steps read the packed words directly.

2. **Run-length classification with bulk commits.**  Between two protocol
   events a core's stream is a *hit run*: no operation moves a line into
   or out of the private cache, and states change only E→M under the
   core's own writes.  An operation ends the run iff its block is not
   resident or it writes a SHARED/OWNED line — a predicate over a state
   snapshot, evaluated with ``searchsorted`` over thousands of ops at
   once.  The interleave loop then *commits whole runs in bulk* ("warps"):
   clocks, LRU stamps, data versions and effective-tracking samples are
   computed arithmetically — exactly — instead of op by op, and only the
   rare run-enders and short runs take the scalar inline path of
   :class:`~repro.sim.vector._FlatMachine`.  A warp commits only hits
   ordered before every other core's next-event lower bound, so hits
   never cross a slow event in either direction.

Snapshots go stale: another core's miss can invalidate or demote lines
under a scanned window.  Every such slow-path event feeds the machine's
``touched`` hook, and the commit loop revalidates a window against the
touched blocks before trusting it — a conflicting operation is demoted to
an authoritative scalar step (stale classification can only turn predicted
hits into run-enders, never the reverse, so the fallback is exact, not
approximate).  Directory and LLC home-bank state stays partitioned by the
address-interleaved bank id (``block & (num_cores - 1)``) exactly as in
the flat machine; all home-bank mutations happen in the deterministic
commit loop.

The contract is the golden one: results — per-core cycles, the flattened
stats tree, effective-tracking samples — are bit-identical to the serial
interpreter and vector engines for every supported configuration
(:func:`parallel_supports` delegates to
:func:`repro.sim.vector.vector_supports`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Union

import numpy as np

from ..coherence.tables import L1Tables
from ..common.addr import log2_exact
from ..common.config import SystemConfig
from ..common.errors import ProtocolError, TraceError
from .results import SimulationResult
from .trace import PackedTrace
from .vector import (
    DEFAULT_EPOCH_OPS,
    flat_machine,
    _ST_MODIFIED,
    _ST_OWNED,
    _ST_SHARED,
    vector_supports,
)

#: Smallest hit run worth a vectorised bulk commit — numpy's per-call
#: overhead beats its throughput below a few dozen elements, so shorter
#: runs execute through the serial inline path instead.
_WARP_MIN = 24

#: Serial ops between warp re-checks.  While a core runs inline it only
#: re-evaluates the horizon every this many hits (every event forces an
#: immediate re-check), keeping the check cost off the per-op path.
_WARP_CHECK = 16

#: Serial hits since a core's last own slow event before a clamping
#: run-ender prediction is double-checked against the live residency.
#: While events are frequent (cold-start, heavy sharing) the serial path
#: is already optimal and rescans would be wasted; a long hit streak says
#: the scan is stale and is throttling everyone's warps.
_RESCAN_HITS = 48

#: A practically-infinite op budget (no run is longer than a stream).
_NO_YIELD = 1 << 62

#: The counters perfbench/run.py reads from :attr:`ParallelEngine.spec_stats`.
_SPEC_STAT_KEYS = ("chunks", "ops", "squashes", "squashed_ops", "flushes")


class _TouchList(list):
    """A touched-blocks list that also flags its core in a shared set.

    The flat machine's slow paths append every block they invalidate or
    demote; the commit loop needs to know *which cores* a just-executed
    event interfered with so it can drop their next-event bounds before
    any other core commits hits past the interference.
    """

    __slots__ = ("core", "dirty")

    def __init__(self, core: int, dirty: set) -> None:
        super().__init__()
        self.core = core
        self.dirty = dirty

    def append(self, blk: int) -> None:
        list.append(self, blk)
        self.dirty.add(self.core)


def parallel_supports(config: SystemConfig) -> Optional[str]:
    """``None`` when the bank-parallel engine models ``config`` exactly.

    The engine executes slow paths through the flat machine, so its
    envelope is exactly the vector engine's.
    """
    return vector_supports(config)


def _classify(
    blks: np.ndarray,
    wr: np.ndarray,
    res_sorted: np.ndarray,
    st_sorted: np.ndarray,
) -> np.ndarray:
    """Positions (relative to the window) of the run-ending operations.

    An op ends a hit run iff its block is not in the residency snapshot or
    it writes a line the snapshot holds SHARED/OWNED.  Pure function of
    the window and the snapshot.
    """
    if res_sorted.size == 0:
        return np.arange(blks.size, dtype=np.int64)
    pos = np.searchsorted(res_sorted, blks)
    posc = np.minimum(pos, res_sorted.size - 1)
    resident = res_sorted[posc] == blks
    st = st_sorted[posc]
    ender = ~resident | (
        (wr != 0) & ((st == _ST_SHARED) | (st == _ST_OWNED))
    )
    return np.flatnonzero(ender).astype(np.int64)


class ParallelEngine:
    """Runs one PackedTrace with run-length batching.

    ``epoch_ops`` is the scan-window size (results are identical for any
    value — pinned by tests).  After :meth:`run` the engine exposes
    ``heap_stats`` (horizon-heap growth/compaction counters).

    ``workers`` and ``speculate`` are accepted, and ``spec_stats`` is kept
    as a dict of zero counts, only because perfbench/worker.py builds
    ``ParallelEngine(config, workers="auto", speculate=True)`` and
    perfbench/run.py reads those counters.  Scans always run inline and
    there is no speculative mode: ``speculate`` is ignored.  All three go
    when perfbench calls the engine through ``run_trace`` (ROADMAP item 1).
    """

    def __init__(
        self,
        config: SystemConfig,
        tables: Optional[L1Tables] = None,
        epoch_ops: int = DEFAULT_EPOCH_OPS,
        sample_interval: int = 4096,
        workers: Union[int, str] = 0,
        speculate: bool = False,
    ) -> None:
        if workers not in (0, "auto"):
            raise TraceError(
                f"the parallel engine scans inline; got workers={workers!r}"
            )
        reason = parallel_supports(config)
        if reason is not None:
            raise TraceError(f"parallel engine cannot run this config: {reason}")
        if epoch_ops < 1:
            raise TraceError("epoch_ops must be >= 1")
        if sample_interval < 1:
            raise TraceError("sample_interval must be >= 1")
        self.config = config
        self.tables = tables
        self.epoch_ops = epoch_ops
        self.sample_interval = sample_interval
        self.heap_stats: Dict[str, int] = {}
        self.spec_stats: Dict[str, int] = dict.fromkeys(_SPEC_STAT_KEYS, 0)

    def run(self, trace) -> SimulationResult:
        """Execute the whole trace; bit-identical to the serial engines."""
        config = self.config
        trace = PackedTrace.from_trace(trace)
        if trace.num_cores > config.num_cores:
            raise TraceError(
                f"trace has {trace.num_cores} cores, system only {config.num_cores}"
            )
        m = flat_machine(config, self.tables)
        ncores = trace.num_cores
        dirty: set = set()
        touched: List[List[int]] = [_TouchList(c, dirty) for c in range(ncores)]
        m.touched = touched
        packshift = log2_exact(config.block_bytes) + 1

        # Streams as numpy block/write arrays, end to end.
        blk_arrs, wr_arrs, writes_total = trace.numpy_streams(packshift)
        totals = [
            0 if blk_arrs[core] is None else int(blk_arrs[core].size)
            for core in range(ncores)
        ]
        clocks = [0] * ncores
        cursors = [0] * ncores
        samples: List[int] = []
        sample_interval = self.sample_interval
        next_sample = sample_interval
        processed = 0
        epoch = self.epoch_ops

        # Per-core scan state: a window [base, limit) classified against a
        # snapshot, its ender positions (a sorted Python list consumed
        # front-to-back through ``scan_eptr`` — cursors only move forward,
        # so a pointer beats a binary search in the hot loop), and the
        # touched-list length at snapshot time.
        scan_limit = [0] * ncores
        scan_enders: List[list] = [[] for _ in range(ncores)]
        scan_eptr = [0] * ncores
        scan_tpos = [0] * ncores

        act = m.act
        fixed = m.fixed
        hit_step = m.t_l1 + fixed
        latest_version = m.latest_version
        miss = m._miss
        upgrade = m._upgrade

        def scan(core: int, cur: int) -> None:
            """Classify the window ahead of ``cur`` against the live residency.

            Called when the cursor reaches the window edge, and when a
            predicted run-ender turns out to be a plain hit — the
            tell-tale that the snapshot predates this core's recent fills
            and the stale scan would otherwise clamp every warp.
            """
            stop = min(cur + epoch, totals[core])
            scan_tpos[core] = len(touched[core])
            lmap = m.l1maps[core]
            n_res = len(lmap)
            res = np.fromiter(lmap.keys(), dtype=np.int64, count=n_res)
            sts = np.fromiter(
                (rec[0] for rec in lmap.values()), dtype=np.int8, count=n_res
            )
            order = np.argsort(res)
            rel = _classify(
                blk_arrs[core][cur:stop],
                wr_arrs[core][cur:stop],
                res[order],
                sts[order],
            )
            scan_enders[core] = (rel + cur).tolist()
            scan_eptr[core] = 0
            scan_limit[core] = stop

        def revalidate(core: int, cur: int) -> None:
            """Fold slow-path interference since the snapshot into the scan.

            Interference only removes or demotes lines, so a conflicting
            op is forced onto the authoritative scalar path by inserting
            it as a run-ender and truncating the window behind it.
            """
            tl = touched[core]
            tpos = scan_tpos[core]
            if len(tl) > tpos:
                limit = scan_limit[core]
                fresh = np.array(tl[tpos:], dtype=np.int64)
                conf = np.isin(blk_arrs[core][cur:limit], fresh)
                if conf.any():
                    first = cur + int(np.argmax(conf))
                    e = scan_enders[core]
                    kept = [x for x in e[scan_eptr[core] :] if x < first]
                    kept.append(first)
                    scan_enders[core] = kept
                    scan_eptr[core] = 0
                    scan_limit[core] = first + 1
                scan_tpos[core] = len(tl)

        # ``ne[c]`` is each parked core's next-event bound.  A core may
        # bulk-commit hits only while they order strictly before every
        # other core's bound (serial tie rule included): hits commute with
        # other cores' hits, but never cross a slow event in either
        # direction.  Slow events themselves run one at a time, only when
        # their core pops as the heap minimum — i.e. at exactly their
        # serial (clock, core) position.
        #
        # The horizon (min over other cores) is queried once per bulk
        # commit; a lazy-deletion min-heap mirrors ``ne`` — every finite
        # assignment pushes, queries pop entries that no longer match —
        # so the query is O(log) amortised instead of an O(ncores) scan.
        # ``ne_live`` counts the finite bounds so the heap can be
        # compacted once stale entries dominate (event-dense runs would
        # otherwise grow it without bound).
        inf = float("inf")
        ne = [0 if totals[c] else inf for c in range(ncores)]
        neheap = [(0, c) for c in range(ncores) if totals[c]]
        heapq.heapify(neheap)
        ne_live = len(neheap)
        neheap_max = ne_live
        compactions = 0
        parked = [0] * ncores
        since_event = [0] * ncores

        heap = [(0, core) for core in range(ncores) if totals[core]]
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop

        def ne_push(b: int, c: int) -> None:
            nonlocal neheap, neheap_max, compactions
            heappush(neheap, (b, c))
            depth = len(neheap)
            if depth > neheap_max:
                neheap_max = depth
            if depth - ne_live > 2 * ne_live + 8:
                neheap = [
                    (ne[c2], c2) for c2 in range(ncores) if ne[c2] != inf
                ]
                heapq.heapify(neheap)
                compactions += 1

        # Scalar reads take the packed words: indexing an ``array('Q')``
        # costs well under half of a numpy scalar read plus ``int()``.
        streams = trace.streams
        while heap:
            clock, core = heappop(heap)
            cur = cursors[core]
            total = totals[core]
            blkarr = blk_arrs[core]
            wrarr = wr_arrs[core]
            stream = streams[core]
            lmap = m.l1maps[core]
            lu = m.l1_lu[core]
            check_ctr = 0  # 0 => evaluate a warp before the next serial op
            while True:
                if check_ctr == 0:
                    # -- warp check: can a run of guaranteed hits commit
                    # past the other cores' parked clocks in one batch? ---
                    if cur >= scan_limit[core]:
                        scan(core, cur)
                    if len(touched[core]) > scan_tpos[core]:
                        revalidate(core, cur)
                    # Next run-ender at/after ``cur`` (inlined: cursors
                    # only move forward, so a pointer walk beats both a
                    # binary search and a function call on this path).
                    e = scan_enders[core]
                    i = scan_eptr[core]
                    n = len(e)
                    while i < n and e[i] < cur:
                        i += 1
                    scan_eptr[core] = i
                    next_ender = e[i] if i < n else scan_limit[core]
                    if ne[core] != inf:
                        ne_live -= 1
                        ne[core] = inf
                    while neheap:
                        h_val, h_core = neheap[0]
                        if ne[h_core] == h_val:
                            break
                        heappop(neheap)
                    else:
                        h_val, h_core = inf, -1
                    if h_val == inf:
                        k_yield = _NO_YIELD
                    elif hit_step == 0:
                        h_int = int(h_val)
                        at_front = clock < h_int or (
                            clock == h_int and core < h_core
                        )
                        k_yield = _NO_YIELD if at_front else 0
                    else:
                        h_int = int(h_val)
                        if core < h_core:
                            k_yield = (h_int - clock) // hit_step + 1
                        else:
                            k_yield = (h_int - clock - 1) // hit_step + 1
                    k = next_ender - cur
                    if k > k_yield:
                        k = k_yield
                    if (
                        k < _WARP_MIN
                        and next_ender < scan_limit[core]
                        and since_event[core] >= _RESCAN_HITS
                    ):
                        # A predicted ender clamps the run even though this
                        # core has been hitting for a long streak — the
                        # tell-tale of a scan that predates its own fills.
                        # Peek at the clamping op: if it is really a hit,
                        # reclassify instead of crawling through false
                        # enders (and publishing a clamped next-event
                        # bound that stalls every other core's warps).
                        word = stream[next_ender]
                        prec = lmap.get(word >> packshift)
                        if (
                            prec is not None
                            and act[(prec[0] << 1) | (word & 1)] < 3
                        ):
                            scan(core, cur)
                            continue
                    if k >= _WARP_MIN:
                        # -- bulk-commit k guaranteed hits ----------------
                        clock += k * hit_step
                        tick = m.tick
                        chunk_blks = blkarr[cur : cur + k]
                        chunk_wr = wrarr[cur : cur + k]
                        # LRU: op j takes tick tick+j+1; a block's stamp
                        # is its last occurrence's tick — identical to the
                        # serial per-op assignment.
                        uniq, idx_rev = np.unique(
                            chunk_blks[::-1], return_index=True
                        )
                        last_idx = k - 1 - idx_rev
                        for b, li in zip(uniq.tolist(), last_idx.tolist()):
                            lu[lmap[b][1]] = tick + li + 1
                        m.tick = tick + k
                        # Writes: version = vclock + (1-based count of
                        # writes up to and including the block's last
                        # write) — the exact serial minting order.
                        n_writes = int(chunk_wr.sum())
                        if n_writes:
                            w_blks = chunk_blks[chunk_wr != 0]
                            uniqw, widx_rev = np.unique(
                                w_blks[::-1], return_index=True
                            )
                            w_ord = n_writes - widx_rev
                            vbase = m.vclock
                            for b, wo in zip(
                                uniqw.tolist(), w_ord.tolist()
                            ):
                                rec = lmap[b]
                                rec[0] = _ST_MODIFIED
                                rec[2] = 1
                                v = vbase + wo
                                rec[3] = v
                                latest_version[b] = v
                            m.vclock = vbase + n_writes
                        processed += k
                        if processed >= next_sample:
                            # Hits never move directory occupancy or stash
                            # bits: every crossing samples the same value.
                            val = m.dir_occ_total + m.stash_bits
                            while next_sample <= processed:
                                samples.append(val)
                                next_sample += sample_interval
                        cur += k
                        if cur == total:
                            cursors[core] = cur
                            clocks[core] = clock
                            # ne[core] stays +inf: no more events here.
                            break
                        continue  # window edge or horizon: re-check
                    check_ctr = _WARP_CHECK
                # -- one serial op under the serial yield rule ------------
                # Popping as heap minimum and yielding whenever the rule
                # fires keeps (clock, core) at the global front, so any
                # slow event below executes at exactly its serial position
                # with every earlier hit already committed.
                word = stream[cur]
                blk = word >> packshift
                w = word & 1
                rec = lmap.get(blk)
                event = False
                if rec is None:
                    clock += miss(core, blk, w) + fixed
                    event = True
                else:
                    m.tick = t = m.tick + 1
                    lu[rec[1]] = t
                    a = act[(rec[0] << 1) | w]
                    if a == 1:
                        clock += hit_step
                    elif a == 2:
                        rec[0] = _ST_MODIFIED
                        rec[2] = 1
                        m.vclock = v = m.vclock + 1
                        latest_version[blk] = v
                        rec[3] = v
                        clock += hit_step
                    elif a == 3:
                        clock += upgrade(core, blk, rec) + fixed
                        event = True
                    else:
                        raise ProtocolError(
                            f"table dispatched resident line {blk:#x} to"
                            f" action {a}"
                        )
                processed += 1
                if processed == next_sample:
                    next_sample += sample_interval
                    samples.append(m.dir_occ_total + m.stash_bits)
                cur += 1
                if event:
                    # The event may have invalidated or demoted lines
                    # under other cores' scans: drop their bounds to the
                    # parked clock until their next revalidation.  Own
                    # residency may have changed too (fills, victim
                    # evictions) — force a warp re-check, which
                    # revalidates before trusting the classification.
                    if dirty:
                        for c in dirty:
                            if c != core and cursors[c] < totals[c]:
                                b = parked[c]
                                ne[c] = b
                                ne_push(b, c)
                        dirty.clear()
                    since_event[core] = 0
                    check_ctr = 0
                else:
                    since_event[core] += 1
                    check_ctr -= 1
                if cur == total:
                    cursors[core] = cur
                    clocks[core] = clock
                    if ne[core] != inf:
                        ne_live -= 1
                        ne[core] = inf
                    break
                if heap:
                    head = heap[0]
                    if clock > head[0] or (
                        clock == head[0] and core > head[1]
                    ):
                        cursors[core] = cur
                        parked[core] = clock
                        # Inlined next-event bound: exact when an ender
                        # sits inside the scanned window, conservatively
                        # the window edge (nothing beyond is classified)
                        # or the parked clock (nothing scanned at all).
                        # Sound against cascades: any event that moves an
                        # ender earlier also dirties this core, resetting
                        # the bound to the parked clock.
                        sl = scan_limit[core]
                        if cur >= sl:
                            b = clock
                        else:
                            e = scan_enders[core]
                            i = scan_eptr[core]
                            n = len(e)
                            while i < n and e[i] < cur:
                                i += 1
                            scan_eptr[core] = i
                            fe = e[i] if i < n else sl
                            b = clock + (fe - cur) * hit_step
                        if ne[core] == inf:
                            ne_live += 1
                        ne[core] = b
                        ne_push(b, core)
                        heappush(heap, (clock, core))
                        break

        self.heap_stats = {
            "neheap_max": neheap_max,
            "neheap_compactions": compactions,
            "neheap_final": len(neheap),
            "neheap_live": ne_live,
        }

        m.processed = processed
        m.writes_ct = writes_total
        m.latency_total = sum(clocks) - m.fixed * processed
        return SimulationResult(
            config=config,
            cycles_per_core=clocks,
            stats=m.flat_stats(),
            effective_tracking_samples=samples,
            engine="parallel",
        )
