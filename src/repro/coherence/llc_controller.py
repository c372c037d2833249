"""Home-side protocol controller: directory + LLC + discovery flows.

Every L1 miss and upgrade arrives here (conceptually at the home bank of the
block).  The controller:

* resolves the request against the directory and the inclusive LLC,
* performs forwards, invalidations, discovery broadcasts and memory fetches,
* executes directory-entry evictions (invalidate vs. **stash**) and LLC
  evictions (back-invalidation, discovery-invalidate for stash-bit lines),
* returns the latency the *requesting core* observes, charging only
  critical-path legs (writebacks and acks that real protocols overlap are
  accounted as traffic but not charged to the requester).

The controller manipulates remote L1 state directly (invalidate/downgrade):
in the atomic-transaction model those are the remote cache's responses to
home-initiated messages, so no separate remote-side controller is needed.

Data values are modeled as monotonically increasing per-block *versions*
(see DESIGN.md): every write mints a new version, and the data-value
invariant — a reader observes the latest committed version — is checked
end-to-end by the invariant suite.

Hot-path note: the miss pipeline runs once per L1 miss, so it is written
allocation-free.  :meth:`HomeController.serve_miss` and its helpers pass
``(latency, state, version)`` tuples with *raw int* MESI states instead of
minting an object per transaction.  Timing fields and the network send
are hoisted into instance slots, and the per-miss statistics use bound
counter cells (see
:meth:`~repro.common.stats.StatGroup.counter`).  Enum members
(``MessageClass.X``, ``EvictionAction.X``, ``DiscoveryDemand.X``) are
module constants.  Loaded inside a function, each is a class-attribute
lookup through ``EnumType`` (over 100 ns on CPython 3.11) that cProfile
adds to the caller's own time without a frame of its own: a red flag no
profile shows, which ``tests/test_enum_member_loads.py`` guards.

Each record is found once per transaction.  :meth:`HomeController._allocate_entry`
hands back the entry the directory just allocated, and a directory miss
reads the data version from the LLC line already in hand: the line
:meth:`~repro.cache.llc.SharedLLC.fill` returns on an LLC miss, or the line
:meth:`HomeController._dir_miss` probed on an LLC hit.  Nothing between
that probe or fill and the grant can evict an LLC line (a directory
eviction only writes back or stash-marks *other* lines), so only the
directory-hit paths, which have no line in hand, re-probe the LLC through
:meth:`HomeController._llc_version`.  ``tests/test_miss_path_frames.py``
pins the Python frames one cold LLC miss opens.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..cache.block import CacheBlock
from ..cache.l1 import L1Cache
from ..cache.llc import SharedLLC
from ..common.config import SystemConfig
from ..common.errors import ProtocolError
from ..common.mesi import CoherenceProtocol, MesiState
from ..common.stats import StatCounter, StatGroup
from ..core.discovery import DiscoveryDemand, DiscoveryEngine
from ..directory.base import Directory, DirectoryEntry, Eviction, EvictionAction
from ..mem import Memory
from ..noc.network import Network
from ..noc.traffic import MessageClass
from ..obs.events import (
    CAUSE_DIR_EVICT,
    CAUSE_LLC_EVICT,
    CAUSE_WRITE,
    EV_DIR_EVICT,
    EV_DISCOVERY,
    EV_INVAL,
    EV_LLC_EVICT,
    EV_STASH_SPILL,
)

# Raw int MESI states for the tuple-based grant path (no enum construction
# per transaction; MesiState is an IntEnum so == comparisons interoperate).
_S_SHARED = int(MesiState.SHARED)
_S_EXCLUSIVE = int(MesiState.EXCLUSIVE)
_S_MODIFIED = int(MesiState.MODIFIED)

# Enum members read once, at import: inside a function every
# ``MessageClass.X`` is a class-attribute lookup through EnumType (see the
# hot-path note above).  They are the same objects, so ``is`` tests and
# dict keys are unchanged.
_DATA_RESPONSE = MessageClass.DATA_RESPONSE
_CONTROL_RESPONSE = MessageClass.CONTROL_RESPONSE
_FORWARD = MessageClass.FORWARD
_INVALIDATION = MessageClass.INVALIDATION
_INV_ACK = MessageClass.INV_ACK
_WRITEBACK = MessageClass.WRITEBACK
_WB_ACK = MessageClass.WB_ACK
_EVICTION_NOTICE = MessageClass.EVICTION_NOTICE
_MEMORY = MessageClass.MEMORY
_STASH = EvictionAction.STASH
_DEMAND_READ = DiscoveryDemand.READ
_DEMAND_WRITE = DiscoveryDemand.WRITE
_DEMAND_EVICT = DiscoveryDemand.EVICT

#: ``(latency, state, version)`` — what the home hands back to the
#: requesting L1 controller: critical-path cycles at and beyond the home,
#: the raw-int MESI state granted and the data version delivered.
Grant = Tuple[int, int, int]


class HomeController:
    """Directory/LLC home logic shared by every directory organization."""

    def __init__(
        self,
        config: SystemConfig,
        directory: Directory,
        llc: SharedLLC,
        l1s: List[L1Cache],
        network: Network,
        memory: Memory,
        discovery: DiscoveryEngine,
        stats: StatGroup,
    ) -> None:
        self.config = config
        self.directory = directory
        self.llc = llc
        self.l1s = l1s
        self.network = network
        self.memory = memory
        self.discovery = discovery
        self.stats = stats
        self.timing = config.timing
        # Hot-path hoists: consulted on every miss/upgrade.
        self._t_dir = config.timing.directory_access
        self._t_llc = config.timing.llc_access
        self._t_l1 = config.timing.l1_hit
        self._home_occupancy = config.timing.home_occupancy
        self._clean_notice = config.directory.clean_eviction_notification
        self._send = network.send
        self._dir_lookup = directory.lookup
        self._dir_allocate = directory.allocate
        self._bank_of = llc.bank_of
        # Inline of home_bank(): low-order block-address bits pick the bank.
        self._bank_mask = llc.num_banks - 1
        # Per-core bound methods: the invalidation/forward loops index these
        # instead of re-binding l1s[i].<method> per message.
        self._l1_probe = [l1.probe for l1 in l1s]
        self._l1_invalidate = [l1.invalidate for l1 in l1s]
        # Requester's current clock, set by CoherentSystem.access before each
        # transaction; consumed by the (optional) DRAM timing model and the
        # (optional) home-bank contention model.
        self.now: int = 0
        self._home_busy_until = [0] * config.num_cores
        # Observability probe (repro.obs): None is the null probe — emission
        # sites test it once and skip; tracing swaps in EventRing.append.
        self._obs = None
        # Stash machinery only engages for stash-capable organizations.
        self.stash_capable = hasattr(directory, "eligibility")
        # MOESI adds the Owned state: dirty sharing, owner-supplied data.
        self.moesi = config.protocol is CoherenceProtocol.MOESI
        # Adaptive stash directories want discovery outcomes fed back.
        self._notify_discovery = getattr(directory, "note_discovery", None)
        # Optional discovery presence filter (set by CoherentSystem when
        # DirectoryConfig.discovery_filter_slots > 0).  Every update site
        # tests it first, so a run without one makes no filter call.
        self.filter = None
        # Data-version bookkeeping (stand-in for actual payloads).
        self.latest_version: Dict[int, int] = {}
        self.memory_version: Dict[int, int] = {}
        self._version_clock = 0
        # Coverage-miss attribution: blocks whose copy a core lost to a
        # directory eviction; a later miss by that core on that block is a
        # coverage miss.
        self.dir_invalidated: List[Set[int]] = [set() for _ in l1s]
        # Per-miss statistics, bound on first event so untouched counters
        # stay absent from the stats tree (exact pre-optimization shape).
        self._c_llc_hits: Optional[StatCounter] = None
        self._c_llc_misses: Optional[StatCounter] = None
        self._c_forwards: Optional[StatCounter] = None
        self._c_upgrade_requests: Optional[StatCounter] = None
        self._c_l1_writebacks: Optional[StatCounter] = None
        self._c_silent_clean_evictions: Optional[StatCounter] = None
        self._c_write_inval_msgs: Optional[StatCounter] = None
        self._c_dir_eviction_inval_msgs: Optional[StatCounter] = None
        self._c_dir_induced_invalidations: Optional[StatCounter] = None
        self._c_dir_evictions_private: Optional[StatCounter] = None
        self._c_dir_evictions_shared: Optional[StatCounter] = None
        self._c_llc_evictions: Optional[StatCounter] = None
        self._c_stash_evictions: Optional[StatCounter] = None
        self._c_empty_deallocs: Optional[StatCounter] = None

    # ------------------------------------------------------------------ utils

    def home_tile(self, addr: int) -> int:
        """Mesh tile hosting the block's LLC bank and directory slice."""
        return self.llc.bank_of(addr)

    def mint_version(self, addr: int) -> int:
        """Allocate the version a new write commits."""
        self._version_clock += 1
        self.latest_version[addr] = self._version_clock
        return self._version_clock

    def _roundtrip(self, a: int, b: int, out: MessageClass, back: MessageClass) -> int:
        send = self._send
        return send(a, b, out) + send(b, a, back)

    def _home_wait(self, home: int) -> int:
        """Queueing delay at the home bank's controller (0 when disabled).

        Models each request occupying the bank for ``home_occupancy``
        cycles; requests arriving while the bank is busy wait out the
        residual.  Uses the requester's clock as the arrival time.
        """
        occupancy = self._home_occupancy
        if occupancy == 0:
            return 0
        wait = max(0, self._home_busy_until[home] - self.now)
        self._home_busy_until[home] = self.now + wait + occupancy
        if wait > 0:
            self.stats.add("home_bank_waits")
            self.stats.add("home_bank_wait_cycles", wait)
        return wait

    # ---------------------------------------------------------------- misses

    def serve_miss(self, core: int, addr: int, is_write: bool) -> Grant:
        """Serve an L1 miss; returns ``(latency, state, version)``.

        The request message itself (core -> home) is charged by the caller;
        this method charges everything from the directory access onward,
        including the response back to the core.
        """
        home = addr & self._bank_mask
        latency = self._t_dir
        if self._home_occupancy:
            latency += self._home_wait(home)
        entry = self._dir_lookup(addr)
        if entry is not None:
            if is_write:
                return self._dir_hit_write(core, addr, entry, home, latency)
            return self._dir_hit_read(core, addr, entry, home, latency)
        return self._dir_miss(core, addr, is_write, home, latency)

    # -- directory hit, read --------------------------------------------------

    def _dir_hit_read(
        self, core: int, addr: int, entry: DirectoryEntry, home: int, latency: int
    ) -> Grant:
        owner = entry.owner
        if owner is not None and owner != core:
            return self._forward_read(core, addr, entry, owner, home, latency)
        if owner == core:
            # The core silently dropped its clean-exclusive copy and missed
            # again; the home re-grants exclusivity from LLC data.
            self.stats.add("self_regrants")
            latency += self._serve_from_llc(core, addr, home)
            entry.grant_exclusive(core)
            return latency, _S_EXCLUSIVE, self._llc_version(addr)
        # Shared (or stale-believed) entry: data lives in the LLC.
        latency += self._serve_from_llc(core, addr, home)
        entry.add_sharer(core)
        return latency, _S_SHARED, self._llc_version(addr)

    def _forward_read(
        self,
        core: int,
        addr: int,
        entry: DirectoryEntry,
        owner: int,
        home: int,
        latency: int,
    ) -> Grant:
        """Intervene on the exclusive owner for a read."""
        cell = self._c_forwards
        if cell is None:
            cell = self._c_forwards = self.stats.counter("forwards")
        cell.value += 1
        latency += self._send(home, owner, _FORWARD)
        owner_block = self._l1_probe[owner](addr, touch=False)
        if owner_block is None:
            # Stale owner: it silently evicted its clean E copy.  It nacks;
            # the home serves from the LLC instead.
            self.stats.add("forward_nacks")
            latency += self._send(owner, home, _CONTROL_RESPONSE)
            entry.remove_core(owner)
            if self.filter is not None:
                self.filter.remove(owner, addr)
            latency += self._serve_from_llc(core, addr, home)
            entry.add_sharer(core)
            return latency, _S_SHARED, self._llc_version(addr)
        was_dirty = bool(owner_block.dirty)
        version = owner_block.version
        if self.moesi and was_dirty:
            # MOESI: the dirty owner keeps the line in Owned state and
            # services the reader directly — no LLC writeback at all.  The
            # entry keeps its owner pointer alongside the new sharer.
            if owner_block.state == _S_MODIFIED:
                self.l1s[owner].downgrade_to_owned(addr)
            self.stats.add("owned_transitions")
            latency += self._send(owner, core, _DATA_RESPONSE)
            latency += self._t_l1
            entry.add_sharer(core)
            return latency, _S_SHARED, version
        self.l1s[owner].downgrade_to_shared(addr)
        if was_dirty:
            # Dirty data goes to the requester and, off the critical path,
            # back to the LLC so the home copy is current.
            self._send(owner, home, _WRITEBACK)
            self.llc.write_back(addr, version)
        latency += self._send(owner, core, _DATA_RESPONSE)
        latency += self._t_l1  # owner's tag access to source the data
        entry.demote_owner()
        entry.add_sharer(core)
        return latency, _S_SHARED, version if was_dirty else self._llc_version(addr)

    # -- directory hit, write --------------------------------------------------

    def _dir_hit_write(
        self, core: int, addr: int, entry: DirectoryEntry, home: int, latency: int
    ) -> Grant:
        owner = entry.owner
        if owner is not None and owner != core:
            if self.moesi and entry.believed_count() > 1:
                # Owned state: sharers coexist with the owner; clear them
                # before the ownership transfer (the owner is forwarded).
                latency += self._invalidate_targets(
                    entry, addr, home, skip=core, also_skip=owner
                )
            return self._forward_write(core, addr, entry, owner, home, latency)
        if owner == core:
            self.stats.add("self_regrants")
            latency += self._serve_from_llc(core, addr, home)
            entry.grant_exclusive(core)
            return latency, _S_MODIFIED, self._llc_version(addr)
        # Shared: invalidate every (believed) sharer, then serve LLC data.
        latency += self._invalidate_targets(entry, addr, home, skip=core)
        latency += self._serve_from_llc(core, addr, home)
        entry.grant_exclusive(core)
        return latency, _S_MODIFIED, self._llc_version(addr)

    def _forward_write(
        self,
        core: int,
        addr: int,
        entry: DirectoryEntry,
        owner: int,
        home: int,
        latency: int,
    ) -> Grant:
        """Intervene on the exclusive owner for a write (transfer ownership)."""
        cell = self._c_forwards
        if cell is None:
            cell = self._c_forwards = self.stats.counter("forwards")
        cell.value += 1
        latency += self._send(home, owner, _FORWARD)
        removed = self._l1_invalidate[owner](addr)
        if self.filter is not None:
            self.filter.remove(owner, addr)
        if removed is None:
            self.stats.add("forward_nacks")
            latency += self._send(owner, home, _CONTROL_RESPONSE)
            entry.remove_core(owner)
            latency += self._serve_from_llc(core, addr, home)
            entry.grant_exclusive(core)
            return latency, _S_MODIFIED, self._llc_version(addr)
        # Ownership transfer carries the line straight to the requester
        # (cache-to-cache); a stale LLC copy is safe because the requester
        # immediately becomes the new owner.
        version = removed.version if removed.dirty else self._llc_version(addr)
        latency += self._send(owner, core, _DATA_RESPONSE)
        latency += self._t_l1
        entry.grant_exclusive(core)
        return latency, _S_MODIFIED, version

    # -- directory miss ----------------------------------------------------------

    def _dir_miss(
        self, core: int, addr: int, is_write: bool, home: int, latency: int
    ) -> Grant:
        llc_block = self.llc.probe(addr)
        if llc_block is None:
            return self._llc_miss(core, addr, is_write, home, latency)
        if self.stash_capable and llc_block.stash:
            return self._discover_and_serve(
                core, addr, is_write, home, latency, llc_block
            )
        if not self.stash_capable and llc_block.stash:  # pragma: no cover
            raise ProtocolError("stash bit set under a non-stash directory")
        # Untracked, un-hidden LLC hit: the requester becomes sole holder.
        entry, displacement = self._allocate_entry(addr, home)
        latency += displacement
        entry.grant_exclusive(core)
        latency += self._serve_from_llc(core, addr, home)
        state = _S_MODIFIED if is_write else _S_EXCLUSIVE
        return latency, state, llc_block.version

    def _discover_and_serve(
        self,
        core: int,
        addr: int,
        is_write: bool,
        home: int,
        latency: int,
        llc_block: CacheBlock,
    ) -> Grant:
        """Directory miss on a stash-bit LLC line: run discovery, then serve.

        ``llc_block`` is the line :meth:`_dir_miss` probed; a dirty
        discovery reply is written back into it in place.
        """
        demand = _DEMAND_WRITE if is_write else _DEMAND_READ
        # With a presence filter only its candidates are probed.
        filter_ = self.filter
        result = self.discovery.discover(
            home, addr, demand, exclude_core=core,
            candidates=None if filter_ is None else filter_.candidates(addr, core),
        )
        if self._notify_discovery is not None:
            self._notify_discovery(result.found)
        if result.found and is_write and filter_ is not None:
            filter_.remove(result.hider, addr)
        obs = self._obs
        if obs is not None:
            demand_code = 1 if is_write else 0
            obs((self.now, EV_DISCOVERY,
                 result.hider if result.found else -1, addr, result.latency,
                 (1 if result.found else 0) | (demand_code << 1)
                 | (result.fanout << 3)))
        latency += result.latency
        self.llc.clear_stash_bit(addr)
        if result.dirty_version is not None:
            self.llc.write_back(addr, result.dirty_version)
        entry, displacement = self._allocate_entry(addr, home)
        latency += displacement
        if result.found and not is_write:
            # Hider was downgraded to S by the discovery reply.
            entry.add_sharer(result.hider)
            entry.add_sharer(core)
            latency += self._serve_from_llc(core, addr, home)
            return latency, _S_SHARED, llc_block.version
        # Write (hider invalidated by the reply) or false discovery:
        # requester becomes sole holder.
        entry.grant_exclusive(core)
        latency += self._serve_from_llc(core, addr, home)
        state = _S_MODIFIED if is_write else _S_EXCLUSIVE
        return latency, state, llc_block.version

    def _llc_miss(
        self, core: int, addr: int, is_write: bool, home: int, latency: int
    ) -> Grant:
        cell = self._c_llc_misses
        if cell is None:
            cell = self._c_llc_misses = self.stats.counter("llc_misses")
        cell.value += 1
        latency += self._t_llc  # tag miss detection
        victim = self.llc.peek_fill_victim(addr)
        if victim is not None:
            self._handle_llc_eviction(victim.addr, home)
        # Fetch from memory.
        self._send(home, home, _MEMORY)
        latency += self.memory.read(addr, self.now)
        self._send(home, home, _MEMORY)
        line = self.llc.fill(addr, version=self.memory_version.get(addr, 0))
        entry, displacement = self._allocate_entry(addr, home)
        latency += displacement
        entry.grant_exclusive(core)
        latency += self._send(home, core, _DATA_RESPONSE)
        state = _S_MODIFIED if is_write else _S_EXCLUSIVE
        return latency, state, line.version

    # ----------------------------------------------------------------- upgrades

    def handle_upgrade(self, core: int, addr: int) -> int:
        """Serve a write-upgrade from a core holding the block in S.

        Returns the latency beyond the request message.  The grant carries
        no data (the requester already has the line).
        """
        home = addr & self._bank_mask
        latency = self._t_dir
        if self._home_occupancy:
            latency += self._home_wait(home)
        cell = self._c_upgrade_requests
        if cell is None:
            cell = self._c_upgrade_requests = self.stats.counter("upgrade_requests")
        cell.value += 1
        entry = self._dir_lookup(addr)
        if entry is not None:
            latency += self._invalidate_targets(entry, addr, home, skip=core)
            entry.grant_exclusive(core)
            latency += self._send(home, core, _CONTROL_RESPONSE)
            return latency
        # Untracked upgrade: only possible when the requester itself is the
        # hidden holder of a stashed lone-S block.  The upgrade message
        # proves the requester holds a copy, and relaxed inclusion caps
        # untracked copies at one — so the home *knows* the requester is the
        # sole holder and can grant exclusivity without any discovery
        # broadcast.
        if not self.stash_capable or not self.llc.stash_bit(addr):
            raise ProtocolError(
                f"upgrade for untracked block {addr:#x} outside the stash design"
            )
        self.stats.add("hider_upgrades")
        self.llc.clear_stash_bit(addr)
        entry, displacement = self._allocate_entry(addr, home)
        latency += displacement
        entry.grant_exclusive(core)
        latency += self._send(home, core, _CONTROL_RESPONSE)
        return latency

    # ----------------------------------------------------------------- putbacks

    def handle_put(self, core: int, addr: int, dirty: bool, version: int) -> None:
        """Absorb an L1 eviction (writeback if dirty, else notice/silence).

        Entirely off the requester's critical path: traffic is recorded, no
        latency is returned.
        """
        if dirty:
            home = addr & self._bank_mask
            self._send(core, home, _WRITEBACK)
            self._send(home, core, _WB_ACK)
            self.llc.write_back(addr, version)
            cell = self._c_l1_writebacks
            if cell is None:
                cell = self._c_l1_writebacks = self.stats.counter("l1_writebacks")
            cell.value += 1
            if self.filter is not None:
                self.filter.remove(core, addr)
            self._retire_holder(core, addr)
            return
        if self._clean_notice:
            home = addr & self._bank_mask
            self._send(core, home, _EVICTION_NOTICE)
            self.stats.add("clean_eviction_notices")
            if self.filter is not None:
                self.filter.remove(core, addr)
            self._retire_holder(core, addr)
            return
        # Silent clean eviction: directory/stash-bit state goes stale.
        cell = self._c_silent_clean_evictions
        if cell is None:
            cell = self._c_silent_clean_evictions = self.stats.counter(
                "silent_clean_evictions"
            )
        cell.value += 1

    def _retire_holder(self, core: int, addr: int) -> None:
        """The home learned ``core`` no longer holds ``addr``."""
        entry = self.directory.lookup(addr, touch=False)
        if entry is not None:
            entry.remove_core(core)
            if entry.is_empty():
                self.directory.deallocate(addr)
                cell = self._c_empty_deallocs
                if cell is None:
                    cell = self._c_empty_deallocs = self.stats.counter(
                        "empty_entry_deallocations"
                    )
                cell.value += 1
        elif self.stash_capable and self.llc.stash_bit(addr):
            # The departing core was the only possible hider.
            self.llc.clear_stash_bit(addr)

    # ------------------------------------------------------------ entry eviction

    def _allocate_entry(self, addr: int, home: int) -> Tuple[DirectoryEntry, int]:
        """Allocate a directory entry, executing any displacement it causes.

        Returns ``(entry, latency)``: the new entry and the latency the
        displacement adds to the requester's critical path.  A conventional
        invalidating eviction must complete (acks collected) before the new
        entry is usable, whereas a **stash** eviction is instantaneous — the
        entry is simply dropped and the LLC stash bit set.  This latency
        asymmetry is part of the design's win.
        """
        entry, eviction = self._dir_allocate(addr)
        if eviction is None:
            return entry, 0
        return entry, self._execute_eviction(eviction, home)

    def _execute_eviction(self, eviction: Eviction, home: int) -> int:
        victim = eviction.entry
        if eviction.action is _STASH:
            # The paper's mechanism: drop silently, mark the LLC line.
            self.llc.set_stash_bit(victim.addr)
            cell = self._c_stash_evictions
            if cell is None:
                cell = self._c_stash_evictions = self.stats.counter("stash_evictions")
            cell.value += 1
            obs = self._obs
            if obs is not None:
                hider = victim.sole_holder() if victim.is_private() else -1
                obs((self.now, EV_STASH_SPILL, hider, victim.addr, 0, 0))
            return 0
        # Conventional invalidating eviction.
        if victim.is_private():
            cell = self._c_dir_evictions_private
            if cell is None:
                cell = self._c_dir_evictions_private = self.stats.counter(
                    "dir_evictions_private"
                )
        else:
            cell = self._c_dir_evictions_shared
            if cell is None:
                cell = self._c_dir_evictions_shared = self.stats.counter(
                    "dir_evictions_shared"
                )
        cell.value += 1
        latency = self._invalidate_victim_entry(victim, home)
        obs = self._obs
        if obs is not None:
            obs((self.now, EV_DIR_EVICT, -1, victim.addr, latency,
                 len(victim.targets())))
        return latency

    def _invalidate_victim_entry(self, victim: DirectoryEntry, home: int) -> int:
        """Invalidate every (believed) copy of a displaced entry's block."""
        worst = 0
        targets = victim.targets()
        obs = self._obs
        filter_ = self.filter
        msg_cell = self._c_dir_eviction_inval_msgs
        if msg_cell is None and targets:
            msg_cell = self._c_dir_eviction_inval_msgs = self.stats.counter(
                "dir_eviction_inval_msgs"
            )
        for target in targets:
            msg_cell.value += 1
            rt = self._roundtrip(
                home, target, _INVALIDATION, _INV_ACK
            )
            worst = max(worst, rt)
            if filter_ is not None and target in victim.believed:
                # The ack settles this target's outstanding grant whether or
                # not a live copy was found (silent evictions included).
                filter_.remove(target, victim.addr)
            removed = self._l1_invalidate[target](victim.addr)
            if obs is not None:
                obs((self.now, EV_INVAL, target, victim.addr, 0,
                     CAUSE_DIR_EVICT | (4 if removed is not None else 0)))
            if removed is None:
                continue
            cell = self._c_dir_induced_invalidations
            if cell is None:
                cell = self._c_dir_induced_invalidations = self.stats.counter(
                    "dir_induced_invalidations"
                )
            cell.value += 1
            self.dir_invalidated[target].add(victim.addr)
            if removed.dirty:
                self._send(target, home, _WRITEBACK)
                self.llc.write_back(victim.addr, removed.version)
        return worst

    def _invalidate_targets(
        self,
        entry: DirectoryEntry,
        addr: int,
        home: int,
        skip: int,
        also_skip: Optional[int] = None,
    ) -> int:
        """Invalidate every believed sharer except ``skip`` (the requester)
        and ``also_skip`` (a dirty owner handled by a separate forward).

        Under MESI, read-shared targets are never dirty.  Under MOESI an
        invalidated target can be the *Owned* copy (e.g. a sharer upgrades
        while another core owns the line); dropping it without writeback is
        safe because every sharer — including the upgrading requester —
        holds the identical latest data.
        """
        worst = 0
        obs = self._obs
        filter_ = self.filter
        for target in entry.targets():
            if target == skip or target == also_skip:
                continue
            cell = self._c_write_inval_msgs
            if cell is None:
                cell = self._c_write_inval_msgs = self.stats.counter(
                    "write_inval_msgs"
                )
            cell.value += 1
            rt = self._roundtrip(
                home, target, _INVALIDATION, _INV_ACK
            )
            worst = max(worst, rt)
            if filter_ is not None and target in entry.believed:
                filter_.remove(target, addr)
            removed = self._l1_invalidate[target](addr)
            if obs is not None:
                obs((self.now, EV_INVAL, target, addr, 0,
                     CAUSE_WRITE | (4 if removed is not None else 0)))
            if removed is not None and removed.dirty:
                if not self.moesi:  # pragma: no cover - impossible in MESI
                    raise ProtocolError("dirty copy found among read-shared targets")
                self.stats.add("owned_copies_dropped")
        return worst

    # ------------------------------------------------------------- LLC eviction

    def _handle_llc_eviction(self, victim_addr: int, home: int) -> None:
        """Evict an LLC line: back-invalidate or discovery-invalidate.

        Off the requester's critical path (handled by MSHR/writeback buffers
        in real designs); traffic and memory writes are recorded.
        """
        cell = self._c_llc_evictions
        if cell is None:
            cell = self._c_llc_evictions = self.stats.counter("llc_evictions")
        cell.value += 1
        block = self.llc.probe(victim_addr, touch=False)
        assert block is not None
        version = block.version
        dirty = bool(block.dirty)
        had_stash = bool(block.stash)
        obs = self._obs
        filter_ = self.filter
        entry = self.directory.lookup(victim_addr, touch=False)
        if entry is not None:
            for target in entry.targets():
                self._send(home, target, _INVALIDATION)
                self._send(target, home, _INV_ACK)
                if filter_ is not None and target in entry.believed:
                    filter_.remove(target, victim_addr)
                removed = self._l1_invalidate[target](victim_addr)
                if obs is not None:
                    obs((self.now, EV_INVAL, target, victim_addr, 0,
                         CAUSE_LLC_EVICT | (4 if removed is not None else 0)))
                if removed is not None:
                    self.stats.add("llc_back_invalidations")
                    if removed.dirty:
                        self._send(target, home, _WRITEBACK)
                        dirty = True
                        version = max(version, removed.version)
            self.directory.deallocate(victim_addr)
        elif self.stash_capable and block.stash:
            result = self.discovery.discover(
                home, victim_addr, _DEMAND_EVICT, exclude_core=None,
                candidates=(
                    None if filter_ is None else filter_.candidates(victim_addr, None)
                ),
            )
            if self._notify_discovery is not None:
                self._notify_discovery(result.found)
            if result.found:
                if filter_ is not None:
                    filter_.remove(result.hider, victim_addr)
                self.stats.add("llc_back_invalidations")
            if result.dirty_version is not None:
                dirty = True
                version = max(version, result.dirty_version)
            if obs is not None:
                obs((self.now, EV_DISCOVERY,
                     result.hider if result.found else -1, victim_addr,
                     result.latency,
                     (1 if result.found else 0) | (2 << 1)
                     | (result.fanout << 3)))
        self.llc.invalidate(victim_addr)
        if obs is not None:
            obs((self.now, EV_LLC_EVICT, -1, victim_addr, 0,
                 (1 if dirty else 0) | (2 if had_stash else 0)))
        if dirty:
            self._send(home, home, _MEMORY)
            self.memory.write(victim_addr, self.now)
            self.memory_version[victim_addr] = version

    # ------------------------------------------------------------------ helpers

    def _serve_from_llc(self, core: int, addr: int, home: int) -> int:
        """LLC data access + response to the requester."""
        cell = self._c_llc_hits
        if cell is None:
            cell = self._c_llc_hits = self.stats.counter("llc_hits")
        cell.value += 1
        return self._t_llc + self._send(home, core, _DATA_RESPONSE)

    def _llc_version(self, addr: int) -> int:
        """Data version of a tracked block's LLC line (directory-hit paths)."""
        block = self.llc.probe(addr, touch=False)
        if block is None:  # pragma: no cover - inclusion guarantees presence
            raise ProtocolError(f"LLC lost block {addr:#x} mid-transaction")
        return block.version
