"""Bank-parallel scaling engine: run-length batched execution to 1024 cores.

The third execution engine for the same simulated machine, built for the
regime the paper actually argues about — hundreds to a thousand cores —
where the serial engines' per-operation Python dispatch is the wall.  It
layers four mechanisms over the flat state of :mod:`repro.sim.vector`:

1. **Numpy-native streams and snapshots.**  Each core's packed stream is
   held as numpy block/write arrays end to end (decoded once by
   :meth:`~repro.sim.trace.PackedTrace.numpy_streams`), and each core's
   L1 residency is snapshotted into sorted block/state arrays so a whole
   window of future operations is classified in one vectorized pass,
   inline in the commit loop.

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
   :class:`~repro.sim.vector._FlatMachine`.

3. **Optimistic warp + replay (``speculate=True``).**  The conservative
   warp only commits hits provably ordered before every other core's
   next-event lower bound, so one cold corner core clamps the whole
   machine during staggered warmup.  The speculation layer warps a
   core's entire classified hit run *past* that horizon instead: clocks,
   the op counter's LRU stamps and the tick/version clocks advance
   immediately, while the ops' *visible* effects — L1 state changes,
   minted data versions, the processed-op count that drives
   effective-tracking samples — are deferred into a compact per-run undo
   log (prior LRU stamps + the run's write positions).  At every real
   protocol event the log is *flushed* exactly up to the event's serial
   position (so the event observes precisely the serially-earlier
   deferred writes), and the event's touched-block set is *validated*
   against every core's still-unflushed run suffix: a conflict squashes
   the run at the first conflicting op — prior LRU stamps are restored,
   the cursor and clock rewind, and the squashed ops replay through the
   exact serial path.  Unflushed speculative ops are always the
   program-order suffix of their core (the global serial front is
   non-decreasing, and everything ordered before an event is flushed
   first), which is what makes chunk-granular undo sound.  Results stay
   bit-identical to the interpreter for every organization and window
   size — speculation moves *when* work is applied, never *what* is
   computed.

4. **Per-bank clock decoupling.**  Parked cores publish not just a
   next-event lower bound but the *home bank* of the predicted
   run-ending block, into per-bank lazy-deletion heaps.  A speculative
   chunk consults only the heaps of the banks its own blocks map to and
   caps itself at the first occurrence of a pending remote ender's
   block — so a cold corner core only throttles cores that actually
   share its banks, instead of clamping every warp through the single
   global horizon.  The bank heaps are a squash-avoidance *policy*;
   correctness never depends on them (flush + validate + replay is
   always the safety net).

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


class _TouchList(list):
    """A touched-blocks list that also flags its core in a shared set.

    The flat machine's slow paths append every block they invalidate or
    demote; the commit loop needs to know *which cores* a just-executed
    event interfered with so it can drop their next-event bounds before
    any other core commits hits past the interference — and, with
    speculation on, validate their unflushed run suffixes against the
    interference.
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
    value — pinned by tests).

    ``speculate=True`` turns on optimistic warp + replay (mechanism 3 of
    the module docstring) with per-bank horizon decoupling; ``spec_min``
    is the smallest classified run a speculative chunk will claim
    (defaults to the conservative warp threshold; the differential
    fuzzer lowers it so tiny adversarial programs still exercise the
    flush/squash machinery).  After :meth:`run` the engine exposes
    ``heap_stats`` (horizon-heap growth/compaction counters) and
    ``spec_stats`` (chunks, speculated ops, squashes, squashed ops).
    """

    def __init__(
        self,
        config: SystemConfig,
        tables: Optional[L1Tables] = None,
        epoch_ops: int = DEFAULT_EPOCH_OPS,
        sample_interval: int = 4096,
        workers: Union[int, str] = 0,
        speculate: bool = False,
        spec_min: Optional[int] = None,
    ) -> None:
        # ``workers`` is accepted only because perfbench/worker.py calls
        # ParallelEngine(config, workers="auto", speculate=True); scans
        # always run inline, so 0 and "auto" are the only valid values.
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
        if spec_min is not None and spec_min < 2:
            raise TraceError("spec_min must be >= 2")
        self.config = config
        self.tables = tables
        self.epoch_ops = epoch_ops
        self.sample_interval = sample_interval
        self.speculate = bool(speculate)
        self.spec_min = _WARP_MIN if spec_min is None else spec_min
        # Fault-injection hook for the undo-log differential: when set,
        # the first flushed deferred write applies a corrupted state.
        self._corrupt_flush = False
        self.heap_stats: Dict[str, int] = {}
        self.spec_stats: Dict[str, int] = {}

    def run(self, trace) -> SimulationResult:
        """Execute the whole trace; bit-identical to the serial engines."""
        config = self.config
        if not isinstance(trace, PackedTrace):
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

        # -- speculation state -------------------------------------------
        # A speculative chunk is one classified hit run (or a bank-capped
        # prefix of one) committed past the horizon.  Its record is
        #   [0 start_cur, 1 end_cur, 2 start_clock, 3 tick_base,
        #    4 version_base, 5 flushed_ops, 6 prior_lu, 7 w_rel, 8 wptr]
        # where ``prior_lu`` maps block -> pre-chunk LRU stamp (the undo
        # log), ``w_rel`` the chunk-relative write positions and ``wptr``
        # how many of them have been flushed.  Op j of a chunk has serial
        # pre-clock ``start_clock + j*hit_step`` — the key under which
        # flushes and squashes order deferred ops against real events.
        speculate = self.speculate and hit_step > 0
        spec_min = self.spec_min
        bank_mask = m.bank_mask
        spec_chunks: List[list] = [[] for _ in range(ncores)]
        spec_key: List[Optional[int]] = [None] * ncores
        spec_heap: list = []
        spec_tpos = [0] * ncores
        # Per-bank horizon heaps: parked cores with a *known* predicted
        # ender block publish (bound, core) under that block's home bank;
        # ``ne_bank``/``ne_blk`` make entries lazily checkable.  Bounds
        # without a known ender (cold park, window edge, dirty reset) stay
        # global-only: the capper cannot see them, the safety net covers
        # them.
        bank_heaps: Dict[int, list] = {}
        ne_bank = [-1] * ncores
        ne_blk = [-1] * ncores
        # Lazy main-heap validation: a squash rewinds a parked core's
        # clock, so heap entries carry no authority of their own —
        # ``core_clock`` holds each parked/finished core's real clock and
        # stale pops are skipped.
        core_clock = [0] * ncores
        corrupt_pending = [bool(self._corrupt_flush)]
        spec_chunks_ct = 0
        spec_ops = 0
        spec_squashes = 0
        spec_squashed_ops = 0
        spec_flushes = 0

        def apply_flush(c: int, ch: list, n_to: int) -> None:
            """Make ops [flushed, n_to) of one chunk visible (in order)."""
            nonlocal processed, next_sample
            n_new = n_to - ch[5]
            w_rel = ch[7]
            if w_rel is not None:
                hi = int(np.searchsorted(w_rel, n_to))
                wp = ch[8]
                if hi > wp:
                    lmap_c = m.l1maps[c]
                    w_blks = blk_arrs[c][ch[0] + w_rel[wp:hi]]
                    uniqw, widx_rev = np.unique(
                        w_blks[::-1], return_index=True
                    )
                    vb = ch[4]
                    for b, wo in zip(
                        uniqw.tolist(), (hi - widx_rev).tolist()
                    ):
                        wrec = lmap_c[b]
                        if corrupt_pending[0]:
                            # Injected undo-log corruption: the deferred
                            # write surfaces with the wrong state.
                            corrupt_pending[0] = False
                            wrec[0] = _ST_SHARED
                        else:
                            wrec[0] = _ST_MODIFIED
                        wrec[2] = 1
                        v = vb + wo
                        wrec[3] = v
                        latest_version[b] = v
                    ch[8] = hi
            ch[5] = n_to
            processed += n_new
            if processed >= next_sample:
                # Hits never move directory occupancy or stash bits, and
                # everything still deferred is ordered after the last
                # executed event: every crossing samples the live value.
                val = m.dir_occ_total + m.stash_bits
                while next_sample <= processed:
                    samples.append(val)
                    next_sample += sample_interval

        def flush_spec(B: int, bcore: int) -> None:
            """Flush every deferred op ordered before event (B, bcore)."""
            nonlocal spec_flushes
            spec_flushes += 1
            while spec_heap:
                kkey, c = spec_heap[0]
                if spec_key[c] != kkey:
                    heappop(spec_heap)
                    continue
                if not (kkey < B or (kkey == B and c < bcore)):
                    break
                heappop(spec_heap)
                chunks = spec_chunks[c]
                while chunks:
                    ch = chunks[0]
                    ln = ch[1] - ch[0]
                    delta = B - ch[2]
                    if delta < 0:
                        n_to = 0
                    else:
                        q, r = divmod(delta, hit_step)
                        if r or c < bcore:
                            n_to = q + 1
                        else:
                            n_to = q
                    if n_to > ln:
                        n_to = ln
                    if n_to <= ch[5]:
                        break
                    apply_flush(c, ch, n_to)
                    if n_to == ln:
                        chunks.pop(0)
                    else:
                        break
                if chunks:
                    ch0 = chunks[0]
                    nk = ch0[2] + ch0[5] * hit_step
                    spec_key[c] = nk
                    heappush(spec_heap, (nk, c))
                else:
                    spec_key[c] = None

        def flush_core_full(c: int) -> None:
            """Flush all of one core's own chunks (safe whenever the core
            is about to apply immediate effects: its deferred ops are
            program-order-earlier, and every other core's next event is
            bounded at or after this core's clock)."""
            chunks = spec_chunks[c]
            for ch in chunks:
                if ch[1] - ch[0] > ch[5]:
                    apply_flush(c, ch, ch[1] - ch[0])
            chunks.clear()
            spec_key[c] = None

        def squash_spec(c: int, fresh_blocks: list) -> None:
            """Validate core ``c``'s unflushed suffix against an event's
            touched blocks; on conflict, undo and rewind for replay."""
            nonlocal spec_squashes, spec_squashed_ops, ne_live
            chunks = spec_chunks[c]
            blk_c = blk_arrs[c]
            fresh = np.array(fresh_blocks, dtype=np.int64)
            hit_ci = -1
            p_rel = 0
            for ci, ch in enumerate(chunks):
                s0 = ch[0] + ch[5]
                if s0 >= ch[1]:
                    continue
                conf = np.isin(blk_c[s0 : ch[1]], fresh)
                if conf.any():
                    hit_ci = ci
                    p_rel = ch[5] + int(np.argmax(conf))
                    break
            if hit_ci < 0:
                return
            lmap_c = m.l1maps[c]
            lu_c = m.l1_lu[c]
            # Undo later chunks entirely, then the conflicting chunk, in
            # reverse commit order so nested LRU stamps unwind to the
            # exact pre-chunk values.  A block whose line was invalidated
            # by the interfering event has no slot to restore (its freed
            # slot is re-stamped on the next fill).
            for ch2 in reversed(chunks[hit_ci + 1 :]):
                for b, old in ch2[6].items():
                    rec2 = lmap_c.get(b)
                    if rec2 is not None:
                        lu_c[rec2[1]] = old
            ch = chunks[hit_ci]
            for b, old in ch[6].items():
                rec2 = lmap_c.get(b)
                if rec2 is not None:
                    lu_c[rec2[1]] = old
            del chunks[hit_ci + 1 :]
            new_cur = ch[0] + p_rel
            new_clock = ch[2] + p_rel * hit_step
            spec_squashes += 1
            spec_squashed_ops += cursors[c] - new_cur
            if p_rel > 0:
                # Keep the pre-conflict prefix: re-apply its LRU stamps
                # (the chunk's own tick numbering) and truncate the
                # write log at the conflict.
                seg = blk_c[ch[0] : new_cur]
                uniq, idx_rev = np.unique(seg[::-1], return_index=True)
                tb = ch[3]
                for b, li in zip(
                    uniq.tolist(), (p_rel - 1 - idx_rev).tolist()
                ):
                    rec2 = lmap_c.get(b)
                    if rec2 is not None:
                        lu_c[rec2[1]] = tb + li + 1
                ch[1] = new_cur
                w_rel = ch[7]
                if w_rel is not None:
                    hi = int(np.searchsorted(w_rel, p_rel))
                    ch[7] = w_rel[:hi] if hi else None
                if ch[5] >= p_rel:
                    # Nothing unflushed remains in the kept prefix.
                    chunks.pop()
            else:
                chunks.pop()
            # Rewind: the core replays from the conflict through the
            # exact serial path.  Its next op may itself be an event, so
            # the published bound is the rewound clock.
            cursors[c] = new_cur
            if ne[c] == inf:
                ne_live += 1
            ne[c] = new_clock
            ne_push(new_clock, c)
            ne_bank[c] = -1
            parked[c] = new_clock
            core_clock[c] = new_clock
            heappush(heap, (new_clock, c))
            scan_limit[c] = new_cur
            if chunks:
                ch0 = chunks[0]
                nk = ch0[2] + ch0[5] * hit_step
                if spec_key[c] != nk:
                    spec_key[c] = nk
                    heappush(spec_heap, (nk, c))
            else:
                spec_key[c] = None

        while heap:
            clock, core = heappop(heap)
            if speculate and (
                cursors[core] >= totals[core] or clock != core_clock[core]
            ):
                continue
            cur = cursors[core]
            total = totals[core]
            blkarr = blk_arrs[core]
            wrarr = wr_arrs[core]
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
                        prec = lmap.get(int(blkarr[next_ender]))
                        if (
                            prec is not None
                            and act[(prec[0] << 1) | int(wrarr[next_ender])]
                            < 3
                        ):
                            scan(core, cur)
                            continue
                    if k >= _WARP_MIN:
                        # -- bulk-commit k guaranteed hits ----------------
                        # Immediate visibility: everything here is ordered
                        # before every other core's next event, so any
                        # still-deferred own ops (which are ordered
                        # earlier still) must surface first.
                        if spec_key[core] is not None:
                            flush_core_full(core)
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
                            core_clock[core] = clock
                            # ne[core] stays +inf: no more events here.
                            break
                        continue  # window edge or horizon: re-check
                    if speculate and next_ender - cur >= spec_min:
                        # -- optimistic warp: claim the whole classified
                        # hit run past the horizon, bank-capped ----------
                        k2 = next_ender - cur
                        seg = blkarr[cur:next_ender]
                        if bank_heaps:
                            end_clock = clock + k2 * hit_step
                            for beta in np.unique(seg & bank_mask).tolist():
                                bh = bank_heaps.get(beta)
                                if not bh:
                                    continue
                                while bh:
                                    v, c2 = bh[0]
                                    if ne[c2] == v and ne_bank[c2] == beta:
                                        break
                                    heappop(bh)
                                if not bh:
                                    continue
                                if len(bh) > 128:
                                    live = [
                                        ent
                                        for ent in bh
                                        if ne[ent[1]] == ent[0]
                                        and ne_bank[ent[1]] == beta
                                    ]
                                    if 2 * len(live) < len(bh):
                                        bh[:] = live
                                        heapq.heapify(bh)
                                v, c2 = bh[0]
                                if v >= end_clock:
                                    continue
                                # Cap at the first occurrence of the
                                # pending ender's block that this chunk
                                # could not prove itself ordered before.
                                eb = ne_blk[c2]
                                j0 = (
                                    0
                                    if v <= clock
                                    else int((v - clock) // hit_step)
                                )
                                if j0 >= k2:
                                    continue
                                hits = np.flatnonzero(seg[j0:k2] == eb)
                                if hits.size:
                                    k2 = j0 + int(hits[0])
                                    if k2 < spec_min:
                                        break
                        if k2 >= spec_min:
                            chunk_blks = seg[:k2]
                            chunk_wr = wrarr[cur : cur + k2]
                            tick = m.tick
                            uniq, idx_rev = np.unique(
                                chunk_blks[::-1], return_index=True
                            )
                            last_idx = k2 - 1 - idx_rev
                            prior_lu: Dict[int, int] = {}
                            for b, li in zip(
                                uniq.tolist(), last_idx.tolist()
                            ):
                                slot = lmap[b][1]
                                prior_lu[b] = lu[slot]
                                lu[slot] = tick + li + 1
                            m.tick = tick + k2
                            n_writes = int(chunk_wr.sum())
                            if n_writes:
                                w_rel = np.flatnonzero(chunk_wr).astype(
                                    np.int64
                                )
                            else:
                                w_rel = None
                            vbase = m.vclock
                            m.vclock = vbase + n_writes
                            spec_chunks[core].append(
                                [
                                    cur,
                                    cur + k2,
                                    clock,
                                    tick,
                                    vbase,
                                    0,
                                    prior_lu,
                                    w_rel,
                                    0,
                                ]
                            )
                            if spec_key[core] is None:
                                spec_key[core] = clock
                                heappush(spec_heap, (clock, core))
                            spec_chunks_ct += 1
                            spec_ops += k2
                            clock += k2 * hit_step
                            cur += k2
                            if cur == total:
                                cursors[core] = cur
                                clocks[core] = clock
                                core_clock[core] = clock
                                break
                            continue
                    check_ctr = _WARP_CHECK
                    if speculate and heap:
                        # A speculative commit can leave ``clock`` far past
                        # the parked-clock front (the conservative engine
                        # overruns it by at most one hit, which commutes).
                        # Serial work past the front would count ops — and
                        # surface deferred ones — ahead of remote events
                        # that serially precede them, skewing the sample
                        # counter; park instead and resume at the front.
                        head = heap[0]
                        if clock > head[0] or (
                            clock == head[0] and core > head[1]
                        ):
                            cursors[core] = cur
                            parked[core] = clock
                            core_clock[core] = clock
                            sl = scan_limit[core]
                            ender_blk = -1
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
                                if fe < sl:
                                    ender_blk = int(blkarr[fe])
                            if ne[core] == inf:
                                ne_live += 1
                            ne[core] = b
                            ne_push(b, core)
                            if ender_blk >= 0:
                                beta = ender_blk & bank_mask
                                bh = bank_heaps.get(beta)
                                if bh is None:
                                    bh = bank_heaps[beta] = []
                                heappush(bh, (b, core))
                                ne_bank[core] = beta
                                ne_blk[core] = ender_blk
                            else:
                                ne_bank[core] = -1
                            heappush(heap, (clock, core))
                            break
                    if spec_key[core] is not None:
                        # Entering the inline path: serial hits apply
                        # immediately, so earlier deferred ops surface
                        # now (the core runs at the global front here —
                        # nothing remote can order before them).
                        flush_core_full(core)
                # -- one serial op under the serial yield rule ------------
                # Popping as heap minimum and yielding whenever the rule
                # fires keeps (clock, core) at the global front, so any
                # slow event below executes at exactly its serial position
                # with every earlier hit already committed.
                blk = int(blkarr[cur])
                w = int(wrarr[cur])
                rec = lmap.get(blk)
                event = False
                if rec is None:
                    if spec_heap:
                        # The event is at its exact serial position:
                        # surface every deferred op ordered before it so
                        # it observes — and its interference validates
                        # against — precisely the serial past.
                        flush_spec(clock, core)
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
                        if spec_heap:
                            flush_spec(clock, core)
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
                    # parked clock until their next revalidation, and
                    # validate their unflushed speculative suffixes
                    # against the interference.  Own residency may have
                    # changed too (fills, victim evictions) — force a
                    # warp re-check, which revalidates before trusting
                    # the classification.
                    if dirty:
                        for c in dirty:
                            if speculate:
                                tl = touched[c]
                                nt = len(tl)
                                tp = spec_tpos[c]
                                if nt > tp:
                                    if c != core and spec_chunks[c]:
                                        squash_spec(c, tl[tp:])
                                    spec_tpos[c] = nt
                            if c != core and cursors[c] < totals[c]:
                                b = parked[c]
                                ne[c] = b
                                ne_push(b, c)
                                ne_bank[c] = -1
                        dirty.clear()
                    since_event[core] = 0
                    check_ctr = 0
                else:
                    since_event[core] += 1
                    check_ctr -= 1
                if cur == total:
                    cursors[core] = cur
                    clocks[core] = clock
                    core_clock[core] = clock
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
                        core_clock[core] = clock
                        # Inlined next-event bound: exact when an ender
                        # sits inside the scanned window, conservatively
                        # the window edge (nothing beyond is classified)
                        # or the parked clock (nothing scanned at all).
                        # Sound against cascades: any event that moves an
                        # ender earlier also dirties this core, resetting
                        # the bound to the parked clock.
                        sl = scan_limit[core]
                        ender_blk = -1
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
                            if fe < sl:
                                ender_blk = int(blkarr[fe])
                        if ne[core] == inf:
                            ne_live += 1
                        ne[core] = b
                        ne_push(b, core)
                        if speculate:
                            if ender_blk >= 0:
                                beta = ender_blk & bank_mask
                                bh = bank_heaps.get(beta)
                                if bh is None:
                                    bh = bank_heaps[beta] = []
                                heappush(bh, (b, core))
                                ne_bank[core] = beta
                                ne_blk[core] = ender_blk
                            else:
                                ne_bank[core] = -1
                        heappush(heap, (clock, core))
                        break

        if speculate and spec_heap:
            # Everything still deferred is ordered after the last event:
            # surface it against the final machine state.
            flush_spec(_NO_YIELD, ncores)

        self.heap_stats = {
            "neheap_max": neheap_max,
            "neheap_compactions": compactions,
            "neheap_final": len(neheap),
            "neheap_live": ne_live,
        }
        self.spec_stats = {
            "chunks": spec_chunks_ct,
            "ops": spec_ops,
            "squashes": spec_squashes,
            "squashed_ops": spec_squashed_ops,
            "flushes": spec_flushes,
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
