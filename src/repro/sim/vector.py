"""Vectorized table-driven simulation engine over PackedTrace batches.

A second execution engine for the same simulated machine: where the
interpreter (:mod:`repro.sim.simulator`) walks the live controller objects
for every operation, this engine runs the protocol over **flat state** —
per-core line dictionaries backed by flat last-use/occupancy arrays, LLC
and directory entries as small lists, sharer sets as integer bitmasks —
and dispatches each operation through the integer transition tables of
:mod:`repro.coherence.tables` (generated from, and validated against, the
real controllers).  Input is a :class:`~repro.sim.trace.PackedTrace`;
per-core streams are decoded **in epoch-sized batches** — one
``array('Q')`` slice turned into Python ints by ``tolist()`` in C — and
the interleave loop splits each raw word with one shift and one mask.

The contract is the golden one: per-core cycle counts, the full flattened
statistics tree, observed data versions and effective-tracking samples are
**bit-identical** to the interpreter for every supported configuration.
Four structural tricks make the fast path cheap without breaking that
contract:

* **One global LRU tick.**  The interpreter keeps one monotone clock per
  tag array; replacement only ever compares last-use values *within* one
  set, so a single engine-wide tick preserves every relative order (ties
  keep the interpreter's lowest-way preference because victim scans walk
  ways in ascending order).
* **Derived counters.**  No path counts a fact that other counts already
  fix.  The hit path maintains no statistics at all: ``accesses`` is the
  stream length, ``writes`` counts the packed words whose write bit is
  set (one C-level byte pass per stream) and ``reads`` the rest,
  ``l1_hits`` is ``accesses - l1_misses - upgrade_misses``, and
  ``latency_total`` is recovered from the final core clocks.  On the
  miss path, every L1 miss ends in one L1 fill, so ``l1_misses`` is the
  sum of the L1s' ``array.fills``; every LLC miss is one memory read and
  one LLC fill, so ``llc_misses`` and the LLC's ``array.fills`` are
  ``memory.reads``, and its two ``memory`` messages are added at the
  end; ``upgrade_requests`` is ``upgrade_misses``; every miss and
  upgrade sends one request and makes one directory lookup, so
  ``noc.msgs.request`` is L1 misses plus upgrades and the directory's
  ``misses`` is that sum less its ``hits``; and each message class's
  ``flit_hops`` is its ``hops`` times its flit weight.  Clocks are ints
  by construction (configs take only ``int`` cycle counts), so the
  arithmetic is exact.
* **Scalar slow path.**  Rare events — misses, upgrades, evictions, stash
  discovery, sharer-pointer overflow — run in ordinary Python over the
  same flat state, replicating the interpreter's exact decision order.
  A cold miss runs in one frame, :meth:`_FlatMachine._miss`: an LLC miss
  (the set's LRU line evicted when full, the memory read, the fill of
  the lowest free way) and an LLC hit take one path through the
  directory allocation (inline for sparse and stash, the organization's
  ``_dir_allocate`` otherwise), the grant and the data response.  Stash
  discovery and LLC evictions stay calls.
* **A cheap core switch.**  The interleave keeps the interpreter's
  ``(clock, core)`` order with one int heap key per waiting core, ``clock
  << shift | core``.  The running core turns the heap head into one clock
  bound per slice, tests only ``clock > bound`` after each op, resumes its
  decoded slice as a list iterator, and yields with one ``heapreplace``.

Every organization the paper's figures compare has a flat directory
model: the set-associative sparse and stash directories, the ideal
directory, the cuckoo table (same slot rule, displacement chain and
random stream as :class:`~repro.directory.cuckoo.CuckooDirectory`) and
the SCD line pool (LRU order kept as ``dmap``'s insertion order, lines
charged by :func:`~repro.directory.hierarchical.scd_lines`).
Configurations outside the flat model (see :func:`vector_supports`) are
the interpreter's: ``run_trace(..., engine="vector")`` falls back
transparently rather than approximating.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from typing import Dict, List, Optional, Set, Tuple

from ..coherence.tables import L1Tables, l1_tables
from ..common.addr import log2_exact
from ..common.config import (
    DirectoryKind,
    MemoryModel,
    StashEligibility,
    SystemConfig,
)
from ..common.errors import ConfigError, ProtocolError, TraceError
from ..common.mesi import CoherenceProtocol
from ..common.rng import DeterministicRng
from ..directory import DIRECTORY_RNG_STREAM
from ..directory.cuckoo import DEFAULT_MAX_PATH, cuckoo_slots
from ..directory.hierarchical import scd_lines
from ..directory.sharers import (
    CoarseVector,
    FullBitVector,
    HierarchicalRep,
    LimitedPointer,
    make_sharer_rep,
)
from ..noc.topology import Mesh2D
from ..noc.traffic import MessageClass, flits_of
from .results import SimulationResult
from .trace import PackedTrace

#: Operations decoded per core per batch.  One array slice + ``tolist()``
#: per epoch amortizes the per-slice call over hundreds of operations and
#: bounds the decoded-int working set at ``cores x epoch``: 262,144 ints
#: at 1024 cores, not every core's whole stream.
DEFAULT_EPOCH_OPS = 256

# A packed word's write bit is the low bit of its low byte; deleting the
# even bytes from a stream's low bytes leaves one byte per write.
_LOW_BYTE = 0 if sys.byteorder == "little" else 7
_EVEN_BYTES = bytes(range(0, 256, 2))

# The clock bound of a core that runs alone: no clock passes it.
_NEVER = float("inf")

#: Directory kinds with a flat model: every organization the paper's
#: figures compare.  Adaptive stash, in-LLC and Tardis fall back to the
#: interpreter.
_FLAT_KINDS = frozenset(
    {
        DirectoryKind.SPARSE,
        DirectoryKind.CUCKOO,
        DirectoryKind.SCD,
        DirectoryKind.STASH,
        DirectoryKind.IDEAL,
    }
)

# Message-class indices into the flat NoC counter blocks (enum order).
_MSG_CLASSES = list(MessageClass)
_MC_NAMES = [m.value for m in _MSG_CLASSES]
_FLITS = [flits_of(m) for m in _MSG_CLASSES]
_REQUEST = _MSG_CLASSES.index(MessageClass.REQUEST)
_DATA_RESPONSE = _MSG_CLASSES.index(MessageClass.DATA_RESPONSE)
_CONTROL_RESPONSE = _MSG_CLASSES.index(MessageClass.CONTROL_RESPONSE)
_FORWARD = _MSG_CLASSES.index(MessageClass.FORWARD)
_INVALIDATION = _MSG_CLASSES.index(MessageClass.INVALIDATION)
_INV_ACK = _MSG_CLASSES.index(MessageClass.INV_ACK)
_WRITEBACK = _MSG_CLASSES.index(MessageClass.WRITEBACK)
_WB_ACK = _MSG_CLASSES.index(MessageClass.WB_ACK)
_EVICTION_NOTICE = _MSG_CLASSES.index(MessageClass.EVICTION_NOTICE)
_DISCOVERY_PROBE = _MSG_CLASSES.index(MessageClass.DISCOVERY_PROBE)
_DISCOVERY_REPLY = _MSG_CLASSES.index(MessageClass.DISCOVERY_REPLY)
_MEMORY = _MSG_CLASSES.index(MessageClass.MEMORY)

# MesiState values as plain ints (the flat state never boxes enums).
_ST_SHARED = 1
_ST_EXCLUSIVE = 2
_ST_MODIFIED = 3
_ST_OWNED = 4

# L1 line record layout: [state, flat_position, dirty, version].
# LLC line record layout: [dirty, stash_bit, version, flat_position].
# Directory entry layout: [addr, owner, believed_mask, rep_a, rep_b, pos]
# (rep_a/rep_b encode the sharer representation per format: full/coarse use
# rep_a as the bitmask; limited uses rep_a as the pointer list and rep_b as
# the overflow flag).  ``pos`` is the entry's slot for sparse and stash (set
# * ways + way), its candidate slots for cuckoo (see cuckoo_slots), its line
# count as last recounted for SCD, and -1 for ideal.


def vector_supports(config: SystemConfig) -> Optional[str]:
    """``None`` when the flat engine models ``config`` exactly, else why not.

    The vector engine refuses rather than approximates: any feature whose
    interpreter semantics the flat state does not replicate bit-for-bit is
    a fallback reason, and :func:`repro.sim.simulator.run_trace` silently
    routes those configurations to the interpreter.
    """
    kind = config.directory.kind
    if kind not in _FLAT_KINDS:
        return f"directory kind {kind.value!r} has no flat view yet"
    if config.l2 is not None:
        return "private L2 hierarchies are interpreter-only"
    if config.memory_model is not MemoryModel.FLAT:
        return "the DRAM memory model keeps per-bank row state"
    if config.timing.home_occupancy:
        return "home-bank occupancy serialization is interpreter-only"
    if config.directory.discovery_filter_slots:
        return "discovery presence filters are interpreter-only"
    if config.check_invariants:
        return "invariant checking walks the live controller objects"
    if config.noc.track_links:
        return "per-link flit attribution is interpreter-only"
    return None


def flat_machine(config: SystemConfig, tables: Optional[L1Tables] = None):
    """Build the flat machine for ``config``'s directory organization.

    The vector engine runs on it, and the fuzzer's vector column drives
    it op by op.

    ``tables`` overrides the derived transition tables — the fuzz differ
    passes a deliberately corrupted table to prove engine-vs-engine
    comparison catches table-generation bugs.  Raises
    :class:`~repro.common.errors.TraceError` when :func:`vector_supports`
    rejects the configuration.
    """
    return _MACHINES.get(config.directory.kind, _FlatMachine)(config, tables)


class _FlatMachine:
    """The whole simulated machine as flat mutable state.

    Every protocol path is a method over plain ints, lists and dicts; the
    decision order inside each method mirrors the interpreter's controller
    code exactly (LRU touches, counter increments and message sends happen
    at the same points).  :meth:`access` executes one full operation — the
    differential fuzzer drives it op-by-op; :class:`VectorEngine`
    instead inlines the hit path and calls only the slow-path methods.
    This class models the set-associative sparse and stash directories;
    the subclasses below model the other organizations, and
    :func:`flat_machine` picks one.
    """

    def __init__(self, config: SystemConfig, tables: Optional[L1Tables] = None) -> None:
        reason = vector_supports(config)
        if reason is not None:
            raise TraceError(f"vector engine cannot run this config: {reason}")
        self.config = config
        if tables is None:
            tables = l1_tables(config.protocol)
        self.tables = tables
        self.act = tables.flat_action()
        self.grant = tables.grant_state

        n = config.num_cores
        self.n = n
        self.bank_mask = n - 1
        self.moesi = config.protocol is CoherenceProtocol.MOESI

        timing = config.timing
        self.t_l1 = timing.l1_hit
        self.t_dir = timing.directory_access
        self.t_llc = timing.llc_access
        self.t_mem = timing.memory_latency
        self.fixed = timing.core_fixed_cpi

        mesh = Mesh2D(config.noc)
        self.hopt = mesh.hop_table()
        self.lat = mesh.latency_table()
        nclasses = len(_MSG_CLASSES)
        # Messages and hops per class; flit-hops and the request and
        # memory-read messages are derived in flat_stats.
        self.nm = [0] * nclasses
        self.nh = [0] * nclasses

        # One engine-wide LRU tick (see module docstring for why this is
        # order-equivalent to the interpreter's per-array clocks).
        self.tick = 0

        # L1s: per-core line map plus flat LRU/tag/occupancy arrays.
        self.l1_ways = config.l1.ways
        self.l1_mask = config.l1.sets - 1
        l1_slots = config.l1.sets * self.l1_ways
        self.l1maps: List[Dict[int, list]] = [dict() for _ in range(n)]
        self.l1_lu: List[List[int]] = [[0] * l1_slots for _ in range(n)]
        self.l1_blocks: List[List[int]] = [[-1] * l1_slots for _ in range(n)]
        self.l1_occ: List[List[int]] = [[0] * config.l1.sets for _ in range(n)]
        self.l1_fills = [0] * n
        self.l1_removals = [0] * n
        # Blocks whose copy a directory eviction destroyed (coverage misses).
        self.cov: List[Set[int]] = [set() for _ in range(n)]

        # LLC: one shared map plus flat arrays.
        self.llc_ways = config.llc.ways
        self.llc_mask = config.llc.sets - 1
        llc_slots = config.llc.sets * self.llc_ways
        self.llcmap: Dict[int, list] = {}
        self.llc_lu = [0] * llc_slots
        self.llc_blocks = [-1] * llc_slots
        self.llc_occ = [0] * config.llc.sets
        self.stash_bits = 0  # resident stash-marked lines (F7 metric input)

        # Directory: ``dmap`` maps every tracked block to its entry.  Sparse
        # and stash (``sets``) keep their allocate, touch and deallocate
        # paths inline; ideal, cuckoo and SCD are subclasses that override
        # _dir_allocate and _dir_deallocate (see flat_machine), and SCD
        # (``pool``) also touches through _pool_touch.
        dcfg = config.directory
        kind = dcfg.kind
        self.sets = kind is DirectoryKind.SPARSE or kind is DirectoryKind.STASH
        self.pool = kind is DirectoryKind.SCD
        self.stash_capable = kind is DirectoryKind.STASH
        self.excl_only = dcfg.stash_eligibility is StashEligibility.EXCLUSIVE_ONLY
        self.clean_notice = dcfg.clean_eviction_notification
        self.dmap: Dict[int, list] = {}
        self.dways = dcfg.ways
        if self.sets:
            entries = config.directory_entries
            dsets = entries // dcfg.ways
            log2_exact(dsets)
            self.dir_mask = dsets - 1
            self.dentries: List[Optional[list]] = [None] * entries
            self.dir_lu = [0] * entries
            self.dir_occ = [0] * dsets
        self.dir_occ_total = 0

        # Sharer representation: 0 = full bitvector, 1 = coarse, 2 = limited,
        # 3 = hierarchical (SCD-style two-level, see directory.sharers).  The
        # mode and its parameters come from the validated template the
        # interpreter's directories clone, so directory.sharers stays the
        # one reader of the format's configuration.  SCD tracks a full bit
        # vector whatever the configured format.
        rep = FullBitVector(n) if self.pool else make_sharer_rep(dcfg, n)
        modes = (FullBitVector, CoarseVector, LimitedPointer, HierarchicalRep)
        self.smode = modes.index(type(rep))
        # An empty representation per mode: 0 for the bit vectors, the
        # pointer list, the cluster dict.  Built by calling a type, so a
        # new entry costs no Python frame.
        self.new_rep = (int, int, list, dict)[self.smode]
        # Each mode reads only its own parameters; the others stay 0.
        self.group = getattr(rep, "group", 0)
        self.pointers = getattr(rep, "pointers", 0)
        self.cluster = getattr(rep, "cluster", 0)
        self.hier_pointers = self.pointers

        # Data-version bookkeeping (mirrors HomeController.mint_version).
        self.vclock = 0
        self.latest_version: Dict[int, int] = {}
        self.memory_version: Dict[int, int] = {}

        # Flat counters.  Names mirror the interpreter's statistic cells;
        # counters the interpreter binds lazily fold to keys only when > 0;
        # flat_stats derives the rest (see the module docstring).
        self.c_upgrades = 0
        self.c_coverage = 0
        self.c_llc_hits = 0
        self.c_forwards = 0
        self.c_forward_nacks = 0
        self.c_self_regrants = 0
        self.c_owned_transitions = 0
        self.c_l1_writebacks = 0
        self.c_silent_clean = 0
        self.c_clean_notices = 0
        self.c_write_inval_msgs = 0
        self.c_dir_ev_inval_msgs = 0
        self.c_dir_induced = 0
        self.c_dir_ev_private = 0
        self.c_dir_ev_shared = 0
        self.c_llc_evictions = 0
        self.c_stash_evictions = 0
        self.c_empty_deallocs = 0
        self.c_hider_upgrades = 0
        self.c_llc_back_invals = 0
        self.c_owned_dropped = 0
        self.c_llc_removals = 0
        self.c_llc_wb_absorbed = 0
        self.c_stash_set = 0
        self.c_stash_cleared = 0
        self.c_dir_hits = 0
        self.c_dir_allocs = 0
        self.c_dir_deallocs = 0
        self.c_dir_evictions = 0
        self.c_dir_ev_act_inval = 0
        self.c_dir_ev_act_stash = 0
        self.c_dir_forced = 0
        self.c_relocations = 0
        self.c_mem_reads = 0
        self.c_mem_writes = 0
        self.c_disc_broadcasts = 0
        self.c_disc_probes = 0
        self.c_disc_false = 0
        self.c_disc_success = 0

        # Run-level aggregates (set by the engine, accumulated by access()).
        self.processed = 0
        self.writes_ct = 0
        self.latency_total = 0

    # -- NoC -------------------------------------------------------------------

    def _send(self, src: int, dst: int, ci: int) -> int:
        """Account one message; returns its latency."""
        self.nm[ci] += 1
        self.nh[ci] += self.hopt[src][dst]
        return self.lat[src][dst]

    # -- sharer representation -------------------------------------------------

    def _rep_add(self, e: list, core: int) -> None:
        m = self.smode
        if m == 0:
            e[3] |= 1 << core
        elif m == 1:
            e[3] |= 1 << (core // self.group)
        elif m == 2:
            ids = e[3]
            if e[4] or core in ids:
                return
            if len(ids) < self.pointers:
                ids.append(core)
            else:
                e[4] = 1
                ids.clear()
        else:
            # Hierarchical: mirrors HierarchicalRep.add exactly (e[3] is
            # the cluster->ids dict, e[4] the overflowed-cluster mask).
            c = core // self.cluster
            if e[4] & (1 << c):
                return
            clusters = e[3]
            ids = clusters.get(c)
            if ids is None:
                clusters[c] = [core]
            elif core not in ids:
                if len(ids) < self.hier_pointers:
                    ids.append(core)
                else:
                    e[4] |= 1 << c
                    del clusters[c]

    def _rep_remove(self, e: list, core: int) -> None:
        m = self.smode
        if m == 0:
            e[3] &= ~(1 << core)
        elif m == 2:
            ids = e[3]
            if not e[4] and core in ids:
                ids.remove(core)
        elif m == 3:
            c = core // self.cluster
            if not e[4] & (1 << c):
                ids = e[3].get(c)
                if ids is not None and core in ids:
                    ids.remove(core)
                    if not ids:
                        del e[3][c]
        # Coarse: one departure cannot prove the group empty.

    def _targets(self, e: list) -> List[int]:
        m = self.smode
        if m == 0:
            result = []
            mask = e[3]
            core = 0
            while mask:
                if mask & 1:
                    result.append(core)
                mask >>= 1
                core += 1
            return result
        if m == 1:
            result = []
            n = self.n
            group = self.group
            mask = e[3]
            num_groups = (n + group - 1) // group
            for g in range(num_groups):
                if mask & (1 << g):
                    start = g * group
                    result.extend(range(start, min(start + group, n)))
            return result
        if m == 2:
            if e[4]:
                return list(range(self.n))
            return list(e[3])
        # Hierarchical: ascending cluster order, insertion order within a
        # precise cluster, clamped tail (HierarchicalRep.targets).
        result = []
        n = self.n
        cluster = self.cluster
        clusters = e[3]
        ovf = e[4]
        num_clusters = (n + cluster - 1) // cluster
        for c in range(num_clusters):
            if ovf & (1 << c):
                start = c * cluster
                result.extend(range(start, min(start + cluster, n)))
            else:
                got = clusters.get(c)
                if got:
                    result.extend(got)
        return result

    # -- directory entry operations --------------------------------------------

    def _grant_exclusive(self, e: list, core: int) -> None:
        e[2] = 1 << core
        if self.smode >= 2:
            e[3].clear()
            e[4] = 0
        else:
            e[3] = 0
        self._rep_add(e, core)
        e[1] = core

    def _add_sharer(self, e: list, core: int) -> None:
        e[2] |= 1 << core
        self._rep_add(e, core)

    def _remove_core(self, e: list, core: int) -> None:
        e[2] &= ~(1 << core)
        self._rep_remove(e, core)
        if e[1] == core:
            e[1] = None

    # -- directory structure ----------------------------------------------------
    #
    # The set-associative directory of sparse and stash; the subclasses
    # below override both methods for ideal, cuckoo and SCD.

    def _dir_deallocate(self, blk: int) -> None:
        e = self.dmap.pop(blk, None)
        if e is None:
            return
        self.c_dir_deallocs += 1
        self.dir_occ_total -= 1
        pos = e[5]
        self.dentries[pos] = None
        self.dir_occ[pos // self.dways] -= 1

    def _dir_allocate(self, blk: int, home: int) -> int:
        """Track ``blk``; returns the latency of any eviction it forced."""
        dways = self.dways
        s = blk & self.dir_mask
        base = s * dways
        dentries = self.dentries
        victim = None
        stash_action = False
        if self.dir_occ[s] == dways:
            lu = self.dir_lu
            vpos = -1
            if self.stash_capable:
                # Prefer the LRU stash-eligible entry (ascending-way scan
                # keeps the interpreter's lowest-way tie preference).
                excl_only = self.excl_only
                best_lu = 0
                for pos in range(base, base + dways):
                    e = dentries[pos]
                    if e[2].bit_count() == 1 and (not excl_only or e[1] is not None):
                        l = lu[pos]
                        if vpos < 0 or l < best_lu:
                            vpos = pos
                            best_lu = l
                if vpos >= 0:
                    stash_action = True
                else:
                    self.c_dir_forced += 1
            if vpos < 0:
                vpos = base
                best_lu = lu[base]
                for pos in range(base + 1, base + dways):
                    l = lu[pos]
                    if l < best_lu:
                        vpos = pos
                        best_lu = l
            victim = dentries[vpos]
            del self.dmap[victim[0]]
            self.c_dir_evictions += 1
            if stash_action:
                self.c_dir_ev_act_stash += 1
            else:
                self.c_dir_ev_act_inval += 1
        else:
            vpos = base
            while dentries[vpos] is not None:
                vpos += 1
        e = [blk, None, 0, self.new_rep(), 0, vpos]
        dentries[vpos] = e
        self.dmap[blk] = e
        self.tick = t = self.tick + 1
        self.dir_lu[vpos] = t
        self.c_dir_allocs += 1
        if victim is None:
            self.dir_occ[s] += 1
            self.dir_occ_total += 1
            return 0
        return self._execute_eviction(victim, stash_action, home)

    def _execute_eviction(self, victim: list, stash_action: bool, home: int) -> int:
        vaddr = victim[0]
        if stash_action:
            rec = self.llcmap.get(vaddr)
            if rec is None:
                raise ProtocolError(
                    f"stash bit for block {vaddr:#x} not resident in the LLC"
                )
            if not rec[1]:
                rec[1] = 1
                self.stash_bits += 1
                self.c_stash_set += 1
            self.c_stash_evictions += 1
            return 0
        if victim[2].bit_count() == 1:
            self.c_dir_ev_private += 1
        else:
            self.c_dir_ev_shared += 1
        return self._invalidate_victim_entry(victim, vaddr, home)

    def _invalidate_victim_entry(self, victim: list, vaddr: int, home: int) -> int:
        worst = 0
        nm = self.nm
        nh = self.nh
        hopt = self.hopt
        lat = self.lat
        hopt_home = hopt[home]
        lat_home = lat[home]
        if self.smode == 0:
            l1maps = self.l1maps
            l1_blocks = self.l1_blocks
            l1_occ = self.l1_occ
            l1_removals = self.l1_removals
            lways = self.l1_ways
            mask = victim[3]
            while mask:
                lsb = mask & -mask
                mask -= lsb
                target = lsb.bit_length() - 1
                self.c_dir_ev_inval_msgs += 1
                nm[_INVALIDATION] += 1
                nh[_INVALIDATION] += hopt_home[target]
                h = hopt[target][home]
                nm[_INV_ACK] += 1
                nh[_INV_ACK] += h
                rt = lat_home[target] + lat[target][home]
                if rt > worst:
                    worst = rt
                removed = l1maps[target].pop(vaddr, None)
                if removed is not None:
                    p = removed[1]
                    l1_blocks[target][p] = -1
                    l1_occ[target][p // lways] -= 1
                    l1_removals[target] += 1
                    self.c_dir_induced += 1
                    self.cov[target].add(vaddr)
                    if removed[2]:
                        nm[_WRITEBACK] += 1
                        nh[_WRITEBACK] += h
                        self._llc_write_back(vaddr, removed[3])
            return worst
        for target in self._targets(victim):
            self.c_dir_ev_inval_msgs += 1
            rt = self._send(home, target, _INVALIDATION) + self._send(
                target, home, _INV_ACK
            )
            if rt > worst:
                worst = rt
            removed = self._l1_invalidate(target, vaddr)
            if removed is not None:
                self.c_dir_induced += 1
                self.cov[target].add(vaddr)
                if removed[2]:
                    self._send(target, home, _WRITEBACK)
                    self._llc_write_back(vaddr, removed[3])
        return worst

    # -- caches ----------------------------------------------------------------

    def _l1_invalidate(self, core: int, blk: int) -> Optional[list]:
        rec = self.l1maps[core].pop(blk, None)
        if rec is None:
            return None
        pos = rec[1]
        self.l1_blocks[core][pos] = -1
        self.l1_occ[core][pos // self.l1_ways] -= 1
        self.l1_removals[core] += 1
        return rec

    def _llc_write_back(self, blk: int, version: int) -> None:
        rec = self.llcmap.get(blk)
        if rec is None:
            raise ProtocolError(f"writeback to LLC-absent block {blk:#x}")
        rec[0] = 1
        if version > rec[2]:
            rec[2] = version
        self.c_llc_wb_absorbed += 1

    def _serve_from_llc(self, core: int, home: int) -> int:
        self.c_llc_hits += 1
        return self.t_llc + self._send(home, core, _DATA_RESPONSE)

    # -- L1 request pipeline ----------------------------------------------------

    def access(self, core: int, blk: int, w: int) -> int:
        """One full memory operation; returns its latency.

        The differential harness's entry point (and the reference for the
        hit path :class:`VectorEngine` inlines).
        """
        rec = self.l1maps[core].get(blk)
        if rec is None:
            latency = self._miss(core, blk, w)
        else:
            self.tick = t = self.tick + 1
            self.l1_lu[core][rec[1]] = t
            a = self.act[(rec[0] << 1) | w]
            if a == 1:  # read hit
                latency = self.t_l1
            elif a == 2:  # silent write upgrade (E/M)
                rec[0] = _ST_MODIFIED
                rec[2] = 1
                self.vclock = v = self.vclock + 1
                self.latest_version[blk] = v
                rec[3] = v
                latency = self.t_l1
            elif a == 3:  # home-serialized upgrade (S/O)
                latency = self._upgrade(core, blk, rec)
            else:
                raise ProtocolError(
                    f"table dispatched resident line {blk:#x} to action {a}"
                )
        self.processed += 1
        if w:
            self.writes_ct += 1
        self.latency_total += latency
        return latency

    def _upgrade(self, core: int, blk: int, rec: list) -> int:
        self.c_upgrades += 1
        home = blk & self.bank_mask
        nm = self.nm
        nh = self.nh
        hopt = self.hopt
        lat = self.lat
        nh[_REQUEST] += hopt[core][home]
        latency = self.t_l1 + lat[core][home] + self.t_dir
        e = self.dmap.get(blk)
        if e is not None:
            self.c_dir_hits += 1
            if self.sets:
                self.tick = t = self.tick + 1
                self.dir_lu[e[5]] = t
            elif self.pool:
                self._pool_touch(e)
            latency += self._invalidate_targets(e, blk, home, core, None)
            if self.smode == 0:
                bit = 1 << core
                e[2] = bit
                e[3] = bit
                e[1] = core
            else:
                self._grant_exclusive(e, core)
        else:
            lrec = self.llcmap.get(blk)
            if not (self.stash_capable and lrec is not None and lrec[1]):
                raise ProtocolError(
                    f"upgrade for untracked, unstashed block {blk:#x}"
                )
            self.c_hider_upgrades += 1
            lrec[1] = 0
            self.stash_bits -= 1
            self.c_stash_cleared += 1
            latency += self._dir_allocate(blk, home)
            e = self.dmap[blk]
            if self.smode == 0:
                bit = 1 << core
                e[2] = bit
                e[3] = bit
                e[1] = core
            else:
                self._grant_exclusive(e, core)
        nm[_CONTROL_RESPONSE] += 1
        nh[_CONTROL_RESPONSE] += hopt[home][core]
        latency += lat[home][core]
        rec[0] = _ST_MODIFIED
        rec[2] = 1
        self.vclock = v = self.vclock + 1
        self.latest_version[blk] = v
        rec[3] = v
        return latency

    def _miss(self, core: int, blk: int, w: int) -> int:
        cov = self.cov[core]
        if blk in cov:
            cov.discard(blk)
            self.c_coverage += 1
        lmap = self.l1maps[core]
        lways = self.l1_ways
        s = blk & self.l1_mask
        occ = self.l1_occ[core]
        lu = self.l1_lu[core]
        blocks = self.l1_blocks[core]
        nm = self.nm
        nh = self.nh
        hopt = self.hopt
        lat = self.lat
        dmap = self.dmap
        llcmap = self.llcmap
        bank_mask = self.bank_mask
        smode0 = self.smode == 0
        if occ[s] == lways:
            base = s * lways
            vpos = base
            best = lu[base]
            for pos in range(base + 1, base + lways):
                l = lu[pos]
                if l < best:
                    best = l
                    vpos = pos
            vblk = blocks[vpos]
            vrec = lmap.pop(vblk)
            blocks[vpos] = -1
            occ[s] -= 1
            self.l1_removals[core] += 1
            # Inlined _handle_put: dirty victims write back (uncharged
            # messages), clean ones optionally notify, else leave silently.
            if vrec[2]:
                vhome = vblk & bank_mask
                nm[_WRITEBACK] += 1
                nh[_WRITEBACK] += hopt[core][vhome]
                nm[_WB_ACK] += 1
                nh[_WB_ACK] += hopt[vhome][core]
                wrec = llcmap.get(vblk)
                if wrec is None:
                    raise ProtocolError(
                        f"writeback to LLC-absent block {vblk:#x}"
                    )
                wrec[0] = 1
                if vrec[3] > wrec[2]:
                    wrec[2] = vrec[3]
                self.c_llc_wb_absorbed += 1
                self.c_l1_writebacks += 1
                if self.sets:
                    # Inlined _retire_holder.
                    e = dmap.get(vblk)
                    if e is not None:
                        if smode0:
                            nbit = ~(1 << core)
                            e[2] &= nbit
                            e[3] &= nbit
                            if e[1] == core:
                                e[1] = None
                        else:
                            self._rep_remove(e, core)
                            e[2] &= ~(1 << core)
                            if e[1] == core:
                                e[1] = None
                        if e[2] == 0:
                            del dmap[vblk]
                            self.c_dir_deallocs += 1
                            self.dir_occ_total -= 1
                            pos = e[5]
                            self.dentries[pos] = None
                            self.dir_occ[pos // self.dways] -= 1
                            self.c_empty_deallocs += 1
                    elif self.stash_capable and wrec[1]:
                        wrec[1] = 0
                        self.stash_bits -= 1
                        self.c_stash_cleared += 1
                else:
                    self._retire_holder(core, vblk)
            elif self.clean_notice:
                vhome = vblk & bank_mask
                nm[_EVICTION_NOTICE] += 1
                nh[_EVICTION_NOTICE] += hopt[core][vhome]
                self.c_clean_notices += 1
                self._retire_holder(core, vblk)
            else:
                self.c_silent_clean += 1
        home = blk & bank_mask
        hopt_home = hopt[home]
        lat_home = lat[home]
        nh[_REQUEST] += hopt[core][home]
        latency = self.t_l1 + lat[core][home] + self.t_dir
        # Inlined _serve_miss and the directory's touching lookup.
        e = dmap.get(blk)
        if e is not None:
            self.c_dir_hits += 1
            if self.sets:
                self.tick = t = self.tick + 1
                self.dir_lu[e[5]] = t
            elif self.pool:
                self._pool_touch(e)
            owner = e[1]
            if not w:
                # -- directory hit, read -------------------------------
                if owner is not None and owner != core:
                    # Inlined _forward_read.
                    self.c_forwards += 1
                    nm[_FORWARD] += 1
                    nh[_FORWARD] += hopt_home[owner]
                    latency += lat_home[owner]
                    orec = self.l1maps[owner].get(blk)
                    if orec is None:
                        self.c_forward_nacks += 1
                        nm[_CONTROL_RESPONSE] += 1
                        nh[_CONTROL_RESPONSE] += hopt[owner][home]
                        latency += lat[owner][home]
                        if smode0:
                            nbit = ~(1 << owner)
                            e[2] &= nbit
                            e[3] &= nbit
                        else:
                            self._rep_remove(e, owner)
                            e[2] &= ~(1 << owner)
                        if e[1] == owner:
                            e[1] = None
                        self.c_llc_hits += 1
                        nm[_DATA_RESPONSE] += 1
                        nh[_DATA_RESPONSE] += hopt_home[core]
                        latency += self.t_llc + lat_home[core]
                        bit = 1 << core
                        e[2] |= bit
                        if smode0:
                            e[3] |= bit
                        else:
                            self._rep_add(e, core)
                        state = _ST_SHARED
                        version = llcmap[blk][2]
                    else:
                        was_dirty = orec[2]
                        version = orec[3]
                        if self.moesi and was_dirty:
                            if orec[0] == _ST_MODIFIED:
                                orec[0] = _ST_OWNED
                            self.c_owned_transitions += 1
                            nm[_DATA_RESPONSE] += 1
                            nh[_DATA_RESPONSE] += hopt[owner][core]
                            latency += lat[owner][core] + self.t_l1
                            bit = 1 << core
                            e[2] |= bit
                            if smode0:
                                e[3] |= bit
                            else:
                                self._rep_add(e, core)
                            state = _ST_SHARED
                        else:
                            orec[0] = _ST_SHARED
                            orec[2] = 0
                            if was_dirty:
                                nm[_WRITEBACK] += 1
                                nh[_WRITEBACK] += hopt[owner][home]
                                self._llc_write_back(blk, version)
                            nm[_DATA_RESPONSE] += 1
                            nh[_DATA_RESPONSE] += hopt[owner][core]
                            latency += lat[owner][core] + self.t_l1
                            e[1] = None  # demote owner
                            bit = 1 << core
                            e[2] |= bit
                            if smode0:
                                e[3] |= bit
                            else:
                                self._rep_add(e, core)
                            state = _ST_SHARED
                            if not was_dirty:
                                version = llcmap[blk][2]
                else:
                    if owner == core:
                        self.c_self_regrants += 1
                    self.c_llc_hits += 1
                    nm[_DATA_RESPONSE] += 1
                    nh[_DATA_RESPONSE] += hopt_home[core]
                    latency += self.t_llc + lat_home[core]
                    bit = 1 << core
                    if owner == core:
                        if smode0:
                            e[2] = bit
                            e[3] = bit
                            e[1] = core
                        else:
                            self._grant_exclusive(e, core)
                        state = _ST_EXCLUSIVE
                    else:
                        e[2] |= bit
                        if smode0:
                            e[3] |= bit
                        else:
                            self._rep_add(e, core)
                        state = _ST_SHARED
                    version = llcmap[blk][2]
            else:
                # -- directory hit, write ------------------------------
                if owner is not None and owner != core:
                    if self.moesi and e[2].bit_count() > 1:
                        # MOESI: readers may share with the owner; flush
                        # them first.
                        latency += self._invalidate_targets(
                            e, blk, home, core, owner
                        )
                    # Inlined _forward_write.
                    self.c_forwards += 1
                    nm[_FORWARD] += 1
                    nh[_FORWARD] += hopt_home[owner]
                    latency += lat_home[owner]
                    removed = self.l1maps[owner].pop(blk, None)
                    if removed is not None:
                        p = removed[1]
                        self.l1_blocks[owner][p] = -1
                        self.l1_occ[owner][p // lways] -= 1
                        self.l1_removals[owner] += 1
                    if removed is None:
                        self.c_forward_nacks += 1
                        nm[_CONTROL_RESPONSE] += 1
                        nh[_CONTROL_RESPONSE] += hopt[owner][home]
                        latency += lat[owner][home]
                        if smode0:
                            nbit = ~(1 << owner)
                            e[2] &= nbit
                            e[3] &= nbit
                        else:
                            self._rep_remove(e, owner)
                            e[2] &= ~(1 << owner)
                        if e[1] == owner:
                            e[1] = None
                        self.c_llc_hits += 1
                        nm[_DATA_RESPONSE] += 1
                        nh[_DATA_RESPONSE] += hopt_home[core]
                        latency += self.t_llc + lat_home[core]
                        version = llcmap[blk][2]
                    else:
                        version = removed[3] if removed[2] else llcmap[blk][2]
                        nm[_DATA_RESPONSE] += 1
                        nh[_DATA_RESPONSE] += hopt[owner][core]
                        latency += lat[owner][core] + self.t_l1
                    if smode0:
                        bit = 1 << core
                        e[2] = bit
                        e[3] = bit
                        e[1] = core
                    else:
                        self._grant_exclusive(e, core)
                    state = _ST_MODIFIED
                else:
                    if owner == core:
                        self.c_self_regrants += 1
                    else:
                        latency += self._invalidate_targets(
                            e, blk, home, core, None
                        )
                    self.c_llc_hits += 1
                    nm[_DATA_RESPONSE] += 1
                    nh[_DATA_RESPONSE] += hopt_home[core]
                    latency += self.t_llc + lat_home[core]
                    if smode0:
                        bit = 1 << core
                        e[2] = bit
                        e[3] = bit
                        e[1] = core
                    else:
                        self._grant_exclusive(e, core)
                    state = _ST_MODIFIED
                    version = llcmap[blk][2]
        else:
            # -- directory miss ----------------------------------------
            lrec = llcmap.get(blk)
            if lrec is not None and lrec[1]:
                # A stash bit (only stash directories set one): the copy
                # may be hidden in some L1.  The demand probe touches LLC
                # LRU exactly like the interpreter's.
                self.tick = t = self.tick + 1
                self.llc_lu[lrec[3]] = t
                latency, state, version = self._discover_and_serve(
                    core, blk, w, home, latency
                )
            else:
                if lrec is None:
                    # -- LLC miss: evict the set's LRU line if the set is
                    # full, read memory (its two uncharged MEMORY
                    # self-sends are counted in flat_stats) and fill the
                    # lowest free way.
                    llc_ways = self.llc_ways
                    llc_set = blk & self.llc_mask
                    llc_lu = self.llc_lu
                    llc_blocks = self.llc_blocks
                    base = llc_set * llc_ways
                    if self.llc_occ[llc_set] == llc_ways:
                        vpos = base
                        best = llc_lu[base]
                        for pos in range(base + 1, base + llc_ways):
                            l = llc_lu[pos]
                            if l < best:
                                best = l
                                vpos = pos
                        self._handle_llc_eviction(llc_blocks[vpos], home)
                    latency += self.t_mem
                    self.c_mem_reads += 1
                    pos = base
                    while llc_blocks[pos] != -1:
                        pos += 1
                    self.tick = t = self.tick + 1
                    llc_lu[pos] = t
                    llc_blocks[pos] = blk
                    self.llc_occ[llc_set] += 1
                    lrec = [0, 0, self.memory_version.get(blk, 0), pos]
                    llcmap[blk] = lrec
                else:
                    # Demand probe: touches LLC LRU exactly like the
                    # interpreter's.
                    self.tick = t = self.tick + 1
                    self.llc_lu[lrec[3]] = t
                    self.c_llc_hits += 1
                if self.sets:
                    # Inlined _dir_allocate: the lowest free way, else
                    # evict the set's LRU entry (stash-eligible entries
                    # first on stash directories, ascending-way ties like
                    # the interpreter).
                    dways = self.dways
                    ds = blk & self.dir_mask
                    dentries = self.dentries
                    dlu = self.dir_lu
                    base = ds * dways
                    victim = None
                    if self.dir_occ[ds] == dways:
                        vpos = -1
                        stash_action = False
                        if self.stash_capable:
                            excl_only = self.excl_only
                            best_lu = 0
                            for pos in range(base, base + dways):
                                ev = dentries[pos]
                                if ev[2].bit_count() == 1 and (
                                    not excl_only or ev[1] is not None
                                ):
                                    l = dlu[pos]
                                    if vpos < 0 or l < best_lu:
                                        vpos = pos
                                        best_lu = l
                            if vpos >= 0:
                                stash_action = True
                            else:
                                self.c_dir_forced += 1
                        if vpos < 0:
                            vpos = base
                            best_lu = dlu[base]
                            for pos in range(base + 1, base + dways):
                                l = dlu[pos]
                                if l < best_lu:
                                    vpos = pos
                                    best_lu = l
                        victim = dentries[vpos]
                        vaddr = victim[0]
                        del dmap[vaddr]
                        self.c_dir_evictions += 1
                        if stash_action:
                            self.c_dir_ev_act_stash += 1
                        else:
                            self.c_dir_ev_act_inval += 1
                    else:
                        vpos = base
                        while dentries[vpos] is not None:
                            vpos += 1
                        self.dir_occ[ds] += 1
                        self.dir_occ_total += 1
                    e = [blk, None, 0, self.new_rep(), 0, vpos]
                    dentries[vpos] = e
                    dmap[blk] = e
                    self.tick = t = self.tick + 1
                    dlu[vpos] = t
                    self.c_dir_allocs += 1
                    if victim is not None:
                        # Inlined _execute_eviction.
                        if stash_action:
                            vrec = llcmap.get(vaddr)
                            if vrec is None:
                                raise ProtocolError(
                                    f"stash bit for block {vaddr:#x}"
                                    " not resident in the LLC"
                                )
                            if not vrec[1]:
                                vrec[1] = 1
                                self.stash_bits += 1
                                self.c_stash_set += 1
                            self.c_stash_evictions += 1
                        else:
                            if victim[2].bit_count() == 1:
                                self.c_dir_ev_private += 1
                            else:
                                self.c_dir_ev_shared += 1
                            latency += self._invalidate_victim_entry(
                                victim, vaddr, home
                            )
                else:
                    latency += self._dir_allocate(blk, home)
                    e = dmap[blk]
                if smode0:
                    bit = 1 << core
                    e[2] = bit
                    e[3] = bit
                    e[1] = core
                else:
                    self._grant_exclusive(e, core)
                nm[_DATA_RESPONSE] += 1
                nh[_DATA_RESPONSE] += hopt_home[core]
                latency += self.t_llc + lat_home[core]
                state = self.grant[w]
                version = lrec[2]
        # -- L1 fill (a back-invalidation mid-miss can free a second
        # way; the lowest free way wins, like the interpreter).
        pos = s * lways
        while blocks[pos] != -1:
            pos += 1
        self.tick = t = self.tick + 1
        lu[pos] = t
        blocks[pos] = blk
        occ[s] += 1
        self.l1_fills[core] += 1
        rec = [state, pos, 1 if state == _ST_MODIFIED else 0, version]
        lmap[blk] = rec
        if w:
            self.vclock = v = self.vclock + 1
            self.latest_version[blk] = v
            rec[3] = v
        return latency

    # -- home controller ---------------------------------------------------------

    def _invalidate_targets(
        self, e: list, blk: int, home: int, skip: int, also_skip: Optional[int]
    ) -> int:
        worst = 0
        nm = self.nm
        nh = self.nh
        hopt = self.hopt
        lat = self.lat
        hopt_home = hopt[home]
        lat_home = lat[home]
        if self.smode == 0:
            l1maps = self.l1maps
            l1_blocks = self.l1_blocks
            l1_occ = self.l1_occ
            l1_removals = self.l1_removals
            lways = self.l1_ways
            mask = e[3]
            while mask:
                lsb = mask & -mask
                mask -= lsb
                target = lsb.bit_length() - 1
                if target == skip or target == also_skip:
                    continue
                self.c_write_inval_msgs += 1
                nm[_INVALIDATION] += 1
                nh[_INVALIDATION] += hopt_home[target]
                nm[_INV_ACK] += 1
                nh[_INV_ACK] += hopt[target][home]
                rt = lat_home[target] + lat[target][home]
                if rt > worst:
                    worst = rt
                removed = l1maps[target].pop(blk, None)
                if removed is not None:
                    p = removed[1]
                    l1_blocks[target][p] = -1
                    l1_occ[target][p // lways] -= 1
                    l1_removals[target] += 1
                    if removed[2]:
                        if not self.moesi:
                            raise ProtocolError(
                                f"dirty copy of {blk:#x} at non-owner core"
                                f" {target}"
                            )
                        self.c_owned_dropped += 1
            return worst
        for target in self._targets(e):
            if target == skip or target == also_skip:
                continue
            self.c_write_inval_msgs += 1
            rt = self._send(home, target, _INVALIDATION) + self._send(
                target, home, _INV_ACK
            )
            if rt > worst:
                worst = rt
            removed = self._l1_invalidate(target, blk)
            if removed is not None and removed[2]:
                if not self.moesi:
                    raise ProtocolError(
                        f"dirty copy of {blk:#x} at non-owner core {target}"
                    )
                self.c_owned_dropped += 1
        return worst

    def _handle_llc_eviction(self, vblk: int, home: int) -> None:
        self.c_llc_evictions += 1
        rec = self.llcmap[vblk]
        version = rec[2]
        dirty = rec[0]
        e = self.dmap.get(vblk)
        if e is not None:
            nm = self.nm
            nh = self.nh
            hopt = self.hopt
            hopt_home = hopt[home]
            if self.smode == 0:
                l1maps = self.l1maps
                l1_blocks = self.l1_blocks
                l1_occ = self.l1_occ
                l1_removals = self.l1_removals
                lways = self.l1_ways
                mask = e[3]
                while mask:
                    lsb = mask & -mask
                    mask -= lsb
                    target = lsb.bit_length() - 1
                    nm[_INVALIDATION] += 1
                    nh[_INVALIDATION] += hopt_home[target]
                    h = hopt[target][home]
                    nm[_INV_ACK] += 1
                    nh[_INV_ACK] += h
                    removed = l1maps[target].pop(vblk, None)
                    if removed is not None:
                        p = removed[1]
                        l1_blocks[target][p] = -1
                        l1_occ[target][p // lways] -= 1
                        l1_removals[target] += 1
                        self.c_llc_back_invals += 1
                        if removed[2]:
                            nm[_WRITEBACK] += 1
                            nh[_WRITEBACK] += h
                            dirty = 1
                            if removed[3] > version:
                                version = removed[3]
            else:
                for target in self._targets(e):
                    self._send(home, target, _INVALIDATION)
                    self._send(target, home, _INV_ACK)
                    removed = self._l1_invalidate(target, vblk)
                    if removed is not None:
                        self.c_llc_back_invals += 1
                        if removed[2]:
                            self._send(target, home, _WRITEBACK)
                            dirty = 1
                            if removed[3] > version:
                                version = removed[3]
            self._dir_deallocate(vblk)
        elif self.stash_capable and rec[1]:
            hider, dirty_version, _ = self._discover(home, vblk, 2, None)
            if hider is not None:
                self.c_llc_back_invals += 1
            if dirty_version is not None:
                dirty = 1
                if dirty_version > version:
                    version = dirty_version
        # Remove the line.
        del self.llcmap[vblk]
        pos = rec[3]
        self.llc_blocks[pos] = -1
        self.llc_occ[pos // self.llc_ways] -= 1
        self.c_llc_removals += 1
        if rec[1]:
            self.stash_bits -= 1
        if dirty:
            self._send(home, home, _MEMORY)
            self.c_mem_writes += 1
            self.memory_version[vblk] = version

    # -- stash discovery ----------------------------------------------------------

    def _discover(
        self, home: int, blk: int, demand: int, exclude: Optional[int]
    ) -> Tuple[Optional[int], Optional[int], int]:
        """Broadcast probe; ``demand``: 0 = read, 1 = write, 2 = evict.

        Returns ``(hider, dirty_version, round_trip_latency)``.
        """
        n = self.n
        hopt = self.hopt
        lat = self.lat
        nm = self.nm
        nh = self.nh
        worst = 0
        fanout = 0
        hop_row = hopt[home]
        lat_row = lat[home]
        for dst in range(n):
            if dst == exclude:
                continue
            fanout += 1
            nm[_DISCOVERY_PROBE] += 1
            nh[_DISCOVERY_PROBE] += hop_row[dst]
            nm[_DISCOVERY_REPLY] += 1
            nh[_DISCOVERY_REPLY] += hopt[dst][home]
            rt = lat_row[dst] + lat[dst][home]
            if rt > worst:
                worst = rt
        self.c_disc_broadcasts += 1
        self.c_disc_probes += fanout
        hider: Optional[int] = None
        dirty_version: Optional[int] = None
        for dst in range(n):
            if dst == exclude:
                continue
            orec = self.l1maps[dst].get(blk)
            if orec is None:
                continue
            if hider is not None:
                raise ProtocolError(f"two hidden copies of block {blk:#x}")
            hider = dst
            was_dirty = orec[2]
            version = orec[3]
            if demand == 0:
                orec[0] = _ST_SHARED
                orec[2] = 0
            else:
                self._l1_invalidate(dst, blk)
            if was_dirty:
                dirty_version = version
                self._send(dst, home, _WRITEBACK)
        if hider is None:
            self.c_disc_false += 1
        else:
            self.c_disc_success += 1
        return hider, dirty_version, worst

    def _discover_and_serve(
        self, core: int, blk: int, w: int, home: int, latency: int
    ) -> Tuple[int, int, int]:
        hider, dirty_version, disc_latency = self._discover(
            home, blk, 1 if w else 0, core
        )
        latency += disc_latency
        rec = self.llcmap[blk]
        if rec[1]:
            rec[1] = 0
            self.stash_bits -= 1
            self.c_stash_cleared += 1
        if dirty_version is not None:
            self._llc_write_back(blk, dirty_version)
        latency += self._dir_allocate(blk, home)
        e = self.dmap[blk]
        if hider is not None and not w:
            self._add_sharer(e, hider)
            self._add_sharer(e, core)
            latency += self._serve_from_llc(core, home)
            return latency, _ST_SHARED, rec[2]
        self._grant_exclusive(e, core)
        latency += self._serve_from_llc(core, home)
        return latency, self.grant[w], rec[2]

    # -- upgrades and put-backs ----------------------------------------------------

    def _retire_holder(self, core: int, blk: int) -> None:
        e = self.dmap.get(blk)
        if e is not None:
            self._remove_core(e, core)
            if e[2] == 0:
                self._dir_deallocate(blk)
                self.c_empty_deallocs += 1
            return
        if self.stash_capable:
            rec = self.llcmap.get(blk)
            if rec is not None and rec[1]:
                rec[1] = 0
                self.stash_bits -= 1
                self.c_stash_cleared += 1

    # -- inspection (differential harness hooks) -----------------------------------

    def held_version(self, core: int, blk: int) -> int:
        """Version of ``core``'s copy of ``blk``, or -1 when not held."""
        rec = self.l1maps[core].get(blk)
        return rec[3] if rec is not None else -1

    def effective_tracking(self) -> int:
        """Directory occupancy + resident stash bits (the F7 metric)."""
        return self.dir_occ_total + self.stash_bits

    # -- statistics folding ---------------------------------------------------------

    def flat_stats(self) -> Dict[str, float]:
        """The statistics tree, flattened exactly as the interpreter's.

        The interpreter creates counters lazily on their first event, so a
        key exists iff its count is nonzero — with two exceptions replicated
        here: per-class NoC ``hops`` can sit at 0.0 (self-sends) once the
        class has messages, and ``discovery.probes_sent`` exists at 0.0 once
        any broadcast was issued (an empty probe set still records it).
        """
        s: Dict[str, float] = {}
        processed = self.processed
        p = "system.protocol."
        if processed:
            s[p + "accesses"] = float(processed)
            s[p + "latency_total"] = float(self.latency_total)
        writes = self.writes_ct
        reads = processed - writes
        if reads:
            s[p + "reads"] = float(reads)
        if writes:
            s[p + "writes"] = float(writes)
        # Derived counters (see the module docstring): one fill per L1
        # miss, one memory read per LLC miss, one request and one
        # directory lookup per miss or upgrade.
        l1_misses = sum(self.l1_fills)
        upgrades = self.c_upgrades
        requests = l1_misses + upgrades
        mem_reads = self.c_mem_reads
        for name, value in (
            ("l1_hits", processed - requests),
            ("l1_misses", l1_misses),
            ("upgrade_misses", upgrades),
            ("coverage_misses", self.c_coverage),
            ("llc_hits", self.c_llc_hits),
            ("llc_misses", mem_reads),
            ("forwards", self.c_forwards),
            ("forward_nacks", self.c_forward_nacks),
            ("self_regrants", self.c_self_regrants),
            ("owned_transitions", self.c_owned_transitions),
            ("upgrade_requests", upgrades),
            ("l1_writebacks", self.c_l1_writebacks),
            ("silent_clean_evictions", self.c_silent_clean),
            ("clean_eviction_notices", self.c_clean_notices),
            ("write_inval_msgs", self.c_write_inval_msgs),
            ("dir_eviction_inval_msgs", self.c_dir_ev_inval_msgs),
            ("dir_induced_invalidations", self.c_dir_induced),
            ("dir_evictions_private", self.c_dir_ev_private),
            ("dir_evictions_shared", self.c_dir_ev_shared),
            ("llc_evictions", self.c_llc_evictions),
            ("stash_evictions", self.c_stash_evictions),
            ("empty_entry_deallocations", self.c_empty_deallocs),
            ("hider_upgrades", self.c_hider_upgrades),
            ("llc_back_invalidations", self.c_llc_back_invals),
            ("owned_copies_dropped", self.c_owned_dropped),
        ):
            if value:
                s[p + name] = float(value)
        for core in range(self.n):
            fills = self.l1_fills[core]
            if fills:
                s[f"system.l1.{core}.array.fills"] = float(fills)
            removals = self.l1_removals[core]
            if removals:
                s[f"system.l1.{core}.array.removals"] = float(removals)
        for name, value in (
            ("array.fills", mem_reads),
            ("array.removals", self.c_llc_removals),
            ("writebacks_absorbed", self.c_llc_wb_absorbed),
            ("stash_bits_set", self.c_stash_set),
            ("stash_bits_cleared", self.c_stash_cleared),
        ):
            if value:
                s["system.llc." + name] = float(value)
        for name, value in (
            ("hits", self.c_dir_hits),
            ("misses", requests - self.c_dir_hits),
            ("allocations", self.c_dir_allocs),
            ("deallocations", self.c_dir_deallocs),
            ("evictions", self.c_dir_evictions),
            ("evictions_invalidate", self.c_dir_ev_act_inval),
            ("evictions_stash", self.c_dir_ev_act_stash),
            ("forced_invalidations", self.c_dir_forced),
            ("relocations", self.c_relocations),
        ):
            if value:
                s["system.directory." + name] = float(value)
        # Each memory read is the interpreter's request/response pair of
        # MEMORY self-sends: two messages, zero hops.
        nm = list(self.nm)
        nm[_REQUEST] += requests
        nm[_MEMORY] += 2 * mem_reads
        nh = self.nh
        flit_hops = [hops * flits for hops, flits in zip(nh, _FLITS)]
        any_class = False
        for i, name in enumerate(_MC_NAMES):
            if nm[i]:
                any_class = True
                s[f"system.noc.msgs.{name}"] = float(nm[i])
                s[f"system.noc.hops.{name}"] = float(nh[i])
                s[f"system.noc.flit_hops.{name}"] = float(flit_hops[i])
        if any_class:
            s["system.noc.msgs.total"] = float(sum(nm))
            s["system.noc.flit_hops.total"] = float(sum(flit_hops))
        if mem_reads:
            s["system.memory.reads"] = float(mem_reads)
        if self.c_mem_writes:
            s["system.memory.writes"] = float(self.c_mem_writes)
        if self.c_disc_broadcasts:
            s["system.discovery.broadcasts"] = float(self.c_disc_broadcasts)
            s["system.discovery.probes_sent"] = float(self.c_disc_probes)
        if self.c_disc_false:
            s["system.discovery.false_discoveries"] = float(self.c_disc_false)
        if self.c_disc_success:
            s["system.discovery.successful_discoveries"] = float(self.c_disc_success)
        return s


class _IdealMachine(_FlatMachine):
    """The flat machine over an unbounded directory: no slots, no evictions."""

    def _dir_allocate(self, blk: int, home: int) -> int:
        self.dmap[blk] = [blk, None, 0, self.new_rep(), 0, -1]
        self.c_dir_allocs += 1
        self.dir_occ_total += 1
        return 0

    def _dir_deallocate(self, blk: int) -> None:
        if self.dmap.pop(blk, None) is not None:
            self.c_dir_deallocs += 1
            self.dir_occ_total -= 1


class _CuckooMachine(_FlatMachine):
    """The flat machine over :class:`~repro.directory.cuckoo.CuckooDirectory`.

    The hash ways' sub-tables lie end to end in ``dentries`` (see
    :func:`~repro.directory.cuckoo.cuckoo_slots`); an entry's ``pos`` field
    holds its candidate slots, memoized per block.  The way draws come
    from the directory's own random stream.
    """

    def __init__(self, config: SystemConfig, tables: Optional[L1Tables] = None) -> None:
        super().__init__(config, tables)
        entries = config.directory_entries
        ways = self.dways
        if entries % ways:
            raise ConfigError(
                f"cuckoo entries ({entries}) must be a multiple of hash"
                f" ways ({ways})"
            )
        self.dentries = [None] * entries
        self.slots_per_way = entries // ways
        self.slot_memo: Dict[int, Tuple[int, ...]] = {}
        self.way_bits = ways.bit_length()
        # way_rotations[r]: the way order of a draw of r.
        self.way_rotations = [
            tuple((r + i) % ways for i in range(ways)) for r in range(ways)
        ]
        self.getrandbits = (
            DeterministicRng(config.seed)
            .spawn(DIRECTORY_RNG_STREAM)
            .source()
            .getrandbits
        )

    def _dir_allocate(self, blk: int, home: int) -> int:
        """CuckooDirectory.allocate: relocate along a chain, then evict.

        The same decisions in the same order: the free-slot scan in way
        order (skipped when the table is full, where it cannot succeed), at
        most DEFAULT_MAX_PATH displacements, a random start way (randint's
        getrandbits rejection loop) that never displaces the new entry and
        takes the way just filled only as a last resort, and an
        invalidating eviction of the chain's last homeless entry.  Each
        entry carries its candidate slots, so a chain step hashes nothing.
        """
        slots = self.slot_memo.get(blk)
        if slots is None:
            slots = self.slot_memo[blk] = cuckoo_slots(
                blk, self.dways, self.slots_per_way
            )
        e = [blk, None, 0, self.new_rep(), 0, slots]
        self.c_dir_allocs += 1
        table = self.dentries
        rotations = self.way_rotations
        bits = self.way_bits
        d = self.dways
        getrandbits = self.getrandbits
        relocations = 0
        scan = self.dir_occ_total < len(table)
        homeless = e
        last_way = -1
        for _step in range(DEFAULT_MAX_PATH + 1):
            slots = homeless[5]
            if scan:
                for pos in slots:
                    if table[pos] is None:
                        table[pos] = homeless
                        if homeless is not e:
                            relocations += 1
                        self.c_relocations += relocations
                        self.dmap[blk] = e
                        self.dir_occ_total += 1
                        return 0
            r = getrandbits(bits)
            while r >= d:
                r = getrandbits(bits)
            pick = -1
            fallback = -1
            for way in rotations[r]:
                if table[slots[way]] is e:
                    continue
                if way == last_way:
                    fallback = way
                    continue
                pick = way
                break
            if pick < 0:
                pick = fallback
            if pick < 0:
                break
            pos = slots[pick]
            displaced = table[pos]
            table[pos] = homeless
            if homeless is not e:
                relocations += 1
            homeless = displaced
            last_way = pick
        self.c_relocations += relocations
        dmap = self.dmap
        dmap[blk] = e
        del dmap[homeless[0]]
        self.c_dir_evictions += 1
        self.c_dir_ev_act_inval += 1
        return self._execute_eviction(homeless, False, home)

    def _dir_deallocate(self, blk: int) -> None:
        e = self.dmap.pop(blk, None)
        if e is None:
            return
        table = self.dentries
        for pos in e[5]:
            if table[pos] is e:
                table[pos] = None
                break
        self.c_dir_deallocs += 1
        self.dir_occ_total -= 1


class _ScdMachine(_FlatMachine):
    """The flat machine over :class:`~repro.directory.hierarchical.ScdDirectory`.

    ``dmap``'s insertion order is the LRU order of the line pool, and an
    entry's ``pos`` field holds its line count as last recounted.
    ``pool_lines`` sums those counts.  A sharer mask changes only after a
    touching lookup, after the entry's allocation, or when a holder
    retires; retirement recounts at once, and the entry touched or
    allocated last (``pool_last``) is recounted before the next capacity
    check, so the total the check reads is exact.
    """

    def __init__(self, config: SystemConfig, tables: Optional[L1Tables] = None) -> None:
        super().__init__(config, tables)
        self.pool_capacity = config.directory_entries
        self.pool_lines = 0
        self.pool_last: Optional[list] = None

    def _pool_recount(self, e: list) -> None:
        lines = scd_lines(e[2])
        self.pool_lines += lines - e[5]
        e[5] = lines

    def _retire_holder(self, core: int, blk: int) -> None:
        super()._retire_holder(core, blk)
        e = self.dmap.get(blk)
        if e is not None:
            self._pool_recount(e)

    def _pool_touch(self, e: list) -> None:
        """A touching SCD lookup: ``e`` becomes the pool's MRU entry."""
        dmap = self.dmap
        blk = e[0]
        del dmap[blk]
        dmap[blk] = e
        last = self.pool_last
        if last is not e:
            if last is not None:
                self._pool_recount(last)
            self.pool_last = e

    def _dir_allocate(self, blk: int, home: int) -> int:
        """ScdDirectory.allocate: evict the LRU block if the pool is full."""
        self.c_dir_allocs += 1
        dmap = self.dmap
        last = self.pool_last
        if last is not None:
            self._pool_recount(last)
        victim = None
        if self.pool_lines + 1 > self.pool_capacity and dmap:
            victim = dmap.pop(next(iter(dmap)))
            self.pool_lines -= victim[5]
            self.dir_occ_total -= 1
            self.c_dir_evictions += 1
            self.c_dir_ev_act_inval += 1
        e = [blk, None, 0, self.new_rep(), 0, 1]
        dmap[blk] = e
        self.pool_lines += 1
        self.dir_occ_total += 1
        self.pool_last = e
        if victim is None:
            return 0
        return self._execute_eviction(victim, False, home)

    def _dir_deallocate(self, blk: int) -> None:
        e = self.dmap.pop(blk, None)
        if e is None:
            return
        self.c_dir_deallocs += 1
        self.dir_occ_total -= 1
        self.pool_lines -= e[5]
        if e is self.pool_last:
            self.pool_last = None


_MACHINES = {
    DirectoryKind.IDEAL: _IdealMachine,
    DirectoryKind.CUCKOO: _CuckooMachine,
    DirectoryKind.SCD: _ScdMachine,
}


def _count_writes(stream: array) -> int:
    """Words of a packed stream with the write bit set, counted in C."""
    return len(stream.tobytes()[_LOW_BYTE::8].translate(None, _EVEN_BYTES))


class VectorEngine:
    """Runs one PackedTrace on flat state with table dispatch.

    ``tables`` injects alternative transition tables (the fuzz differ's
    fault hook); ``epoch_ops`` bounds the per-batch decode (results are
    identical for any epoch size — the property tests pin this).
    """

    def __init__(
        self,
        config: SystemConfig,
        tables: Optional[L1Tables] = None,
        epoch_ops: int = DEFAULT_EPOCH_OPS,
        sample_interval: int = 4096,
    ) -> None:
        reason = vector_supports(config)
        if reason is not None:
            raise TraceError(f"vector engine cannot run this config: {reason}")
        if epoch_ops < 1:
            raise TraceError("epoch_ops must be >= 1")
        if sample_interval < 1:
            raise TraceError("sample_interval must be >= 1")
        self.config = config
        self.tables = tables
        self.epoch_ops = epoch_ops
        self.sample_interval = sample_interval

    def run(self, trace) -> SimulationResult:
        """Execute the whole trace; bit-identical to the interpreter.

        Cores run in the interpreter's order: least ``(clock, core)``
        first, each until its pair passes the next one.  A waiting core's
        heap key is ``clock << shift | core`` with ``shift =
        ncores.bit_length()``, one int that orders like the pair.  The
        running core is out of the heap and nothing else touches it, so
        the head is read once per slice into ``bound``, the last clock at
        which the core still orders first; after each op the loop tests
        only ``clock > bound``, and a switch is one ``heapreplace``.  Each
        core's decoded epoch slice is a list iterator, resumed where the
        core yielded; ``ends[core]`` is where its next slice starts.
        """
        config = self.config
        trace = PackedTrace.from_trace(trace)
        if trace.num_cores > config.num_cores:
            raise TraceError(
                f"trace has {trace.num_cores} cores, system only {config.num_cores}"
            )
        m = flat_machine(config, self.tables)
        packshift = log2_exact(config.block_bytes) + 1
        ncores = trace.num_cores
        epoch = self.epoch_ops

        # Raw packed words go straight to the loop, one epoch slice at a
        # time: ``word >> packshift`` is the block, ``word & 1`` the write
        # bit.  The read/write split is derived from one byte pass.
        streams = trace.streams
        writes_total = sum(_count_writes(stream) for stream in streams)

        clocks = [0] * ncores
        slices = [iter(())] * ncores
        ends = [0] * ncores
        samples: List[int] = []
        sample_interval = self.sample_interval
        next_sample = sample_interval
        processed = 0

        # Hot-loop hoists; the engine-wide tick and version clock live in
        # locals and are synced around every slow-path call.
        act = m.act
        fixed = m.fixed
        hit_step = m.t_l1 + fixed
        l1_gets = [lines.get for lines in m.l1maps]
        l1_lus = m.l1_lu
        latest_version = m.latest_version
        miss = m._miss
        upgrade = m._upgrade
        tick = m.tick
        vclock = m.vclock

        shift = ncores.bit_length()
        mask = (1 << shift) - 1
        # Every core starts at clock 0, so its key is its index and the
        # ascending list is already a heap.
        heap = [core for core in range(ncores) if streams[core]]
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        while heap:
            key = heappop(heap)
            while True:
                clock = key >> shift
                core = key & mask
                # The last clock at which this core still runs first: the
                # head's clock, less one if the head's core index is lower.
                bound = (heap[0] - core) >> shift if heap else _NEVER
                lines_get = l1_gets[core]
                lu = l1_lus[core]
                for word in slices[core]:
                    blk = word >> packshift
                    rec = lines_get(blk)
                    if rec is not None:
                        tick += 1
                        lu[rec[1]] = tick
                        a = act[(rec[0] << 1) | (word & 1)]
                        if a == 1:
                            clock += hit_step
                        elif a == 2:
                            rec[0] = _ST_MODIFIED
                            rec[2] = 1
                            vclock += 1
                            latest_version[blk] = vclock
                            rec[3] = vclock
                            clock += hit_step
                        elif a == 3:
                            m.tick = tick
                            m.vclock = vclock
                            clock += upgrade(core, blk, rec) + fixed
                            tick = m.tick
                            vclock = m.vclock
                        else:
                            raise ProtocolError(
                                f"table dispatched resident line {blk:#x} to action {a}"
                            )
                    else:
                        m.tick = tick
                        m.vclock = vclock
                        clock += miss(core, blk, word & 1) + fixed
                        tick = m.tick
                        vclock = m.vclock
                    processed += 1
                    if processed == next_sample:
                        next_sample += sample_interval
                        samples.append(m.dir_occ_total + m.stash_bits)
                    if clock > bound:
                        break
                else:
                    # The slice ran out: decode the next one, or finish.
                    start = ends[core]
                    stream = streams[core]
                    if start < len(stream):
                        ends[core] = start + epoch
                        slices[core] = iter(stream[start : start + epoch].tolist())
                        key = clock << shift | core
                        continue
                    clocks[core] = clock
                    break
                key = heapreplace(heap, clock << shift | core)
        m.tick = tick
        m.vclock = vclock
        m.processed = processed
        m.writes_ct = writes_total
        m.latency_total = sum(clocks) - fixed * processed
        return SimulationResult(
            config=config,
            cycles_per_core=clocks,
            stats=m.flat_stats(),
            effective_tracking_samples=samples,
            engine="vector",
        )
