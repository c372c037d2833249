"""Tardis timestamp coherence — leases instead of sharer tracking.

Tardis (Yu & Devadas, PACT'15) orders memory operations in *timestamp*
order rather than physical arrival order: every block carries a write
timestamp (``wts``) and a read-lease timestamp (``rts``), readers are
leased the block until ``rts`` and self-invalidate when their lease
expires, and writers simply jump their timestamp past ``rts`` — no
invalidation messages to readers, no sharer vector, O(log N) state per
block.  It is the natural counterpoint to the stash directory's bet: where
stashing shrinks *tracking* by exploiting private blocks, Tardis deletes
tracking altogether and pays with lease-renewal misses on read-shared
data.

This implementation is the *physically-timestamped* lease variant: the
home advances a global operation clock (one tick per memory operation, so
clocks are comparable across runs of the same program) and a read grant
leases the block for ``DirectoryConfig.tardis_lease`` ticks.  That keeps
the observable-staleness window bounded — a read may return a superseded
version only within ``lease`` operations of the superseding write — which
is exactly the contract :func:`repro.verify.differ.diff_results` checks
against the IDEAL reference for Tardis.  Logical-timestamp Tardis (pts jumps,
unbounded physical staleness) would admit the same final state but no
per-op bound, and with it no differential oracle.

Protocol sketch (mirrors the MESI controllers' structure so the simulator
fast paths, stats identities and obs hooks all apply):

* **Read miss** — home grants S and extends ``rts`` to ``clock + lease``;
  the reader records its lease locally.  If an exclusive owner exists the
  home forwards to it (downgrade to S + writeback if dirty, lease for the
  ex-owner too); a stale owner pointer (silent E drop) nacks and the home
  serves from the LLC.
* **Write miss / upgrade** — ``wts = max(clock, rts + 1)`` (jumping past
  every outstanding lease — counted as ``ts_jumps``), the single owner if
  any is forward-invalidated, and **no message touches the leased
  readers**: their copies remain legally readable until expiry.
* **Lease expiry** — an L1 read/write hitting an S copy first compares
  the clock with its lease; an expired copy self-invalidates silently and
  the access proceeds as a renewal miss (``lease_expirations``).
* **LLC eviction** — recalls only the owner (one message); leased S
  copies survive, exempt from inclusion, and die by expiry.  Timestamp
  state lives with the LLC line, so the entry set always equals the
  LLC-resident set.

Fault hook: ``TardisHome.ts_wrap_mask`` (0 = off) models timestamp
rollover — when set, the L1 lease check compares the *wrapped* clock, so
after the clock passes the mask every expired lease looks valid again and
stale reads escape the bound.  ``repro fuzz --inject-fault ts-rollover``
must catch this as a ``tardis-stale`` divergence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cache.l1 import L1Cache
from ..cache.llc import SharedLLC
from ..common.config import SystemConfig
from ..common.errors import ConfigError, InvariantViolation, ProtocolError
from ..common.mesi import MesiState
from ..common.stats import StatCounter, StatGroup
from ..directory.timestamp import TardisEntry, TimestampDirectory
from ..mem import Memory
from ..noc.network import Network
from ..noc.traffic import MessageClass

_S_SHARED = int(MesiState.SHARED)
_S_EXCLUSIVE = int(MesiState.EXCLUSIVE)
_S_MODIFIED = int(MesiState.MODIFIED)

#: ``(latency, state, version, lease_end)`` — the Tardis grant tuple.
#: ``lease_end`` is meaningful only for S grants (0 otherwise).
TardisGrant = Tuple[int, int, int, int]


class TardisHome:
    """Home-side logic: timestamps, leases, owner forwarding, LLC+memory."""

    def __init__(
        self,
        config: SystemConfig,
        directory: TimestampDirectory,
        llc: SharedLLC,
        l1s: List[L1Cache],
        network: Network,
        memory: Memory,
        stats: StatGroup,
    ) -> None:
        self.config = config
        self.directory = directory
        self.llc = llc
        self.l1s = l1s
        self.network = network
        self.memory = memory
        self.stats = stats
        self.timing = config.timing
        self.lease = config.directory.tardis_lease
        # Global operation clock: one tick per memory access, advanced by
        # the L1 controllers at the top of every access.
        self.op_clock = 0
        # Rollover fault hook (repro.verify): 0 = correct behaviour; a
        # mask makes the L1 lease comparison use the wrapped clock.
        self.ts_wrap_mask = 0
        # Per-core lease maps (addr -> lease-end tick) for S copies; each
        # TardisL1Controller binds its own map, the home writes a lease
        # when it downgrades a forwarded owner to S.
        self.leases: List[Dict[int, int]] = [dict() for _ in l1s]
        # Hot-path hoists, mirroring HomeController.
        self._t_dir = config.timing.directory_access
        self._t_llc = config.timing.llc_access
        self._t_l1 = config.timing.l1_hit
        self._home_occupancy = config.timing.home_occupancy
        self._send = network.send
        self._dir_lookup = directory.lookup
        self._bank_mask = llc.num_banks - 1
        self._l1_probe = [l1.probe for l1 in l1s]
        self._l1_invalidate = [l1.invalidate for l1 in l1s]
        self.now: int = 0
        self._home_busy_until = [0] * config.num_cores
        self._obs = None
        # Data-version bookkeeping (same contract as HomeController).
        self.latest_version: Dict[int, int] = {}
        self.memory_version: Dict[int, int] = {}
        self._version_clock = 0
        self._c_llc_hits: Optional[StatCounter] = None
        self._c_llc_misses: Optional[StatCounter] = None
        self._c_forwards: Optional[StatCounter] = None
        self._c_upgrade_requests: Optional[StatCounter] = None
        self._c_l1_writebacks: Optional[StatCounter] = None
        self._c_silent_clean_evictions: Optional[StatCounter] = None
        self._c_llc_evictions: Optional[StatCounter] = None
        self._c_ts_jumps: Optional[StatCounter] = None
        self._c_lease_extends: Optional[StatCounter] = None

    # ------------------------------------------------------------------ utils

    def tick(self) -> int:
        """Advance the global operation clock (once per memory access)."""
        self.op_clock += 1
        return self.op_clock

    def home_tile(self, addr: int) -> int:
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

    def serve_miss(self, core: int, addr: int, is_write: bool) -> TardisGrant:
        """Serve an L1 miss; returns ``(latency, state, version, lease_end)``.

        The request message (core -> home) is charged by the caller; this
        charges the directory/timestamp access onward, response included.
        """
        home = addr & self._bank_mask
        latency = self._t_dir
        if self._home_occupancy:
            latency += self._home_wait(home)
        entry = self._dir_lookup(addr)
        if entry is None:
            extra, entry = self._llc_refill(addr, home)
            latency += extra
            # Fresh entry: the requester is the only core the home has
            # spoken to since the fill, so grant exclusivity (surviving
            # leased S copies elsewhere need no message either way).
            version = self._llc_version(addr)
            if is_write:
                self._bump_write_ts(entry, core)
                latency += self._send(home, core, MessageClass.DATA_RESPONSE)
                return latency, _S_MODIFIED, version, 0
            entry.owner = core
            latency += self._send(home, core, MessageClass.DATA_RESPONSE)
            return latency, _S_EXCLUSIVE, version, 0
        if is_write:
            return self._hit_write(core, addr, entry, home, latency)
        return self._hit_read(core, addr, entry, home, latency)

    def _hit_read(
        self, core: int, addr: int, entry: TardisEntry, home: int, latency: int
    ) -> TardisGrant:
        owner = entry.owner
        if owner is not None and owner != core:
            return self._forward_read(core, addr, entry, owner, home, latency)
        if owner == core:
            # Silently dropped clean-E copy; re-grant exclusivity.
            self.stats.add("self_regrants")
            latency += self._serve_from_llc(core, addr, home)
            return latency, _S_EXCLUSIVE, self._llc_version(addr), 0
        # No owner: serve from the LLC under a fresh lease.
        latency += self._serve_from_llc(core, addr, home)
        lease_end = self._extend_lease(entry)
        return latency, _S_SHARED, self._llc_version(addr), lease_end

    def _forward_read(
        self,
        core: int,
        addr: int,
        entry: TardisEntry,
        owner: int,
        home: int,
        latency: int,
    ) -> TardisGrant:
        cell = self._c_forwards
        if cell is None:
            cell = self._c_forwards = self.stats.counter("forwards")
        cell.value += 1
        latency += self._send(home, owner, MessageClass.FORWARD)
        owner_block = self._l1_probe[owner](addr, touch=False)
        if owner_block is None:
            # Stale owner pointer (silent clean-E drop): nack, serve LLC.
            self.stats.add("forward_nacks")
            latency += self._send(owner, home, MessageClass.CONTROL_RESPONSE)
            entry.owner = None
            latency += self._serve_from_llc(core, addr, home)
            lease_end = self._extend_lease(entry)
            return latency, _S_SHARED, self._llc_version(addr), lease_end
        was_dirty = bool(owner_block.dirty)
        version = owner_block.version
        self.l1s[owner].downgrade_to_shared(addr)
        if was_dirty:
            self._send(owner, home, MessageClass.WRITEBACK)
            self.llc.write_back(addr, version)
        latency += self._send(owner, core, MessageClass.DATA_RESPONSE)
        latency += self._t_l1
        entry.owner = None
        lease_end = self._extend_lease(entry)
        # The downgraded ex-owner now holds a leased S copy too.
        self.leases[owner][addr] = lease_end
        final = version if was_dirty else self._llc_version(addr)
        return latency, _S_SHARED, final, lease_end

    def _hit_write(
        self, core: int, addr: int, entry: TardisEntry, home: int, latency: int
    ) -> TardisGrant:
        owner = entry.owner
        if owner is not None and owner != core:
            latency += self._recall_owner_for_write(core, addr, entry, owner, home)
            self._bump_write_ts(entry, core)
            version = self._llc_version(addr)
            latency += self._send(home, core, MessageClass.DATA_RESPONSE)
            return latency, _S_MODIFIED, version, 0
        if owner == core:
            self.stats.add("self_regrants")
        # Leased readers are *not* invalidated: the write just jumps its
        # timestamp past every outstanding lease.
        latency += self._serve_from_llc(core, addr, home)
        self._bump_write_ts(entry, core)
        return latency, _S_MODIFIED, self._llc_version(addr), 0

    def _recall_owner_for_write(
        self, core: int, addr: int, entry: TardisEntry, owner: int, home: int
    ) -> int:
        """Forward-invalidate the exclusive owner; its data reaches the LLC."""
        cell = self._c_forwards
        if cell is None:
            cell = self._c_forwards = self.stats.counter("forwards")
        cell.value += 1
        latency = self._send(home, owner, MessageClass.FORWARD)
        removed = self._l1_invalidate[owner](addr)
        if removed is None:
            self.stats.add("forward_nacks")
            latency += self._send(owner, home, MessageClass.CONTROL_RESPONSE)
            entry.owner = None
            return latency
        if removed.dirty:
            self._send(owner, home, MessageClass.WRITEBACK)
            self.llc.write_back(addr, removed.version)
        latency += self._send(owner, home, MessageClass.INV_ACK)
        entry.owner = None
        return latency

    def _extend_lease(self, entry: TardisEntry) -> int:
        """Lease the block to ``op_clock + lease``; returns the lease end."""
        cell = self._c_lease_extends
        if cell is None:
            cell = self._c_lease_extends = self.stats.counter("lease_extends")
        cell.value += 1
        end = self.op_clock + self.lease
        if end > entry.rts:
            entry.rts = end
        return entry.rts

    def _bump_write_ts(self, entry: TardisEntry, core: int) -> None:
        """Jump the write timestamp past every outstanding lease."""
        clock = self.op_clock
        if entry.rts >= clock:
            # Readers still hold live leases: the write logically happens
            # after them (the Tardis "time travel").
            cell = self._c_ts_jumps
            if cell is None:
                cell = self._c_ts_jumps = self.stats.counter("ts_jumps")
            cell.value += 1
        wts = max(clock, entry.rts + 1)
        entry.wts = wts
        entry.rts = wts
        entry.owner = core

    # ----------------------------------------------------------------- upgrades

    def handle_upgrade(self, core: int, addr: int) -> int:
        """Serve a write-upgrade from a core holding a leased S copy."""
        home = addr & self._bank_mask
        latency = self._t_dir
        if self._home_occupancy:
            latency += self._home_wait(home)
        cell = self._c_upgrade_requests
        if cell is None:
            cell = self._c_upgrade_requests = self.stats.counter("upgrade_requests")
        cell.value += 1
        entry = self._dir_lookup(addr)
        if entry is None:
            # The LLC evicted the line while our lease ran (leased copies
            # survive LLC eviction); re-establish residency first.
            extra, entry = self._llc_refill(addr, home)
            latency += extra
        owner = entry.owner
        if owner is not None and owner != core:
            latency += self._recall_owner_for_write(core, addr, entry, owner, home)
        self._bump_write_ts(entry, core)
        latency += self._send(home, core, MessageClass.CONTROL_RESPONSE)
        return latency

    # ----------------------------------------------------------------- putbacks

    def handle_put(self, core: int, addr: int, dirty: bool, version: int) -> None:
        """Absorb an L1 eviction (off the requester's critical path)."""
        if dirty:
            home = addr & self._bank_mask
            self._send(core, home, MessageClass.WRITEBACK)
            self._send(home, core, MessageClass.WB_ACK)
            self.llc.write_back(addr, version)
            cell = self._c_l1_writebacks
            if cell is None:
                cell = self._c_l1_writebacks = self.stats.counter("l1_writebacks")
            cell.value += 1
            entry = self._dir_lookup(addr, touch=False)
            if entry is not None and entry.owner == core:
                entry.owner = None
            return
        # Clean drops are always silent in Tardis (there is nothing to
        # update: leases expire on their own, a stale owner pointer nacks).
        cell = self._c_silent_clean_evictions
        if cell is None:
            cell = self._c_silent_clean_evictions = self.stats.counter(
                "silent_clean_evictions"
            )
        cell.value += 1

    # ------------------------------------------------------------- LLC refill

    def _llc_refill(self, addr: int, home: int) -> Tuple[int, TardisEntry]:
        """Fetch ``addr`` into the LLC and allocate its timestamp entry."""
        cell = self._c_llc_misses
        if cell is None:
            cell = self._c_llc_misses = self.stats.counter("llc_misses")
        cell.value += 1
        latency = self._t_llc  # tag miss detection
        victim = self.llc.peek_fill_victim(addr)
        if victim is not None:
            self._handle_llc_eviction(victim.addr, home)
        self._send(home, home, MessageClass.MEMORY)
        latency += self.memory.read(addr, self.now)
        self._send(home, home, MessageClass.MEMORY)
        self.llc.fill(addr, version=self.memory_version.get(addr, 0))
        entry = self.directory.allocate(addr)
        return latency, entry

    def _handle_llc_eviction(self, victim_addr: int, home: int) -> None:
        """Evict an LLC line: recall only the owner; leased copies survive.

        This is the storage story's other half: a conventional directory
        back-invalidates every sharer on an LLC eviction, Tardis sends at
        most one message (to the exclusive owner) because leased readers
        need no notification — their copies stay legal until expiry.
        """
        cell = self._c_llc_evictions
        if cell is None:
            cell = self._c_llc_evictions = self.stats.counter("llc_evictions")
        cell.value += 1
        block = self.llc.probe(victim_addr, touch=False)
        assert block is not None
        version = block.version
        dirty = bool(block.dirty)
        entry = self._dir_lookup(victim_addr, touch=False)
        if entry is not None:
            owner = entry.owner
            if owner is not None:
                self._roundtrip(
                    home, owner, MessageClass.INVALIDATION, MessageClass.INV_ACK
                )
                removed = self._l1_invalidate[owner](victim_addr)
                if removed is not None:
                    self.stats.add("llc_back_invalidations")
                    if removed.dirty:
                        self._send(owner, home, MessageClass.WRITEBACK)
                        dirty = True
                        version = max(version, removed.version)
            self.directory.deallocate(victim_addr)
        self.llc.invalidate(victim_addr)
        if dirty:
            self._send(home, home, MessageClass.MEMORY)
            self.memory.write(victim_addr, self.now)
            self.memory_version[victim_addr] = version

    # ------------------------------------------------------------------ helpers

    def _serve_from_llc(self, core: int, addr: int, home: int) -> int:
        cell = self._c_llc_hits
        if cell is None:
            cell = self._c_llc_hits = self.stats.counter("llc_hits")
        cell.value += 1
        return self._t_llc + self._send(home, core, MessageClass.DATA_RESPONSE)

    def _llc_version(self, addr: int) -> int:
        block = self.llc.probe(addr, touch=False)
        if block is None:  # pragma: no cover - refill guarantees presence
            raise ProtocolError(f"LLC lost block {addr:#x} mid-transaction")
        return block.version


class TardisL1Controller:
    """Core-side controller: lease checks, self-invalidation, renewals.

    Keeps the MESI L1 controller's stat identities (every access counts
    exactly one of ``l1_hits`` / ``upgrade_misses`` / ``l1_misses``) so
    :func:`repro.verify.differ.check_stat_sanity` applies unchanged; an
    expired lease adds a ``lease_expirations`` tick on top of the renewal
    miss it becomes.
    """

    def __init__(
        self,
        core_id: int,
        l1: L1Cache,
        home: TardisHome,
        network: Network,
        timing,
        stats: StatGroup,
    ) -> None:
        self.core_id = core_id
        self.l1 = l1
        self.home = home
        self.network = network
        self.timing = timing
        self.stats = stats
        if hasattr(l1, "l2_config"):
            raise ConfigError(
                "the tardis backend models single-level private caches; "
                "disable the private L2"
            )
        self._fast_lookup = l1.lookup_block
        self._bank_mask = home.llc.num_banks - 1
        self._serve_miss = home.serve_miss
        self._handle_put = home.handle_put
        self._handle_upgrade = home.handle_upgrade
        self._mint_version = home.mint_version
        self._tick = home.tick
        # This core's lease map (addr -> lease-end tick), shared with the
        # home so forwarded-owner downgrades can lease in place.
        self._lease = home.leases[core_id]
        self._lat_l1_hit = timing.l1_hit
        self._obs = None
        self._c_accesses: Optional[StatCounter] = None
        self._c_reads: Optional[StatCounter] = None
        self._c_writes: Optional[StatCounter] = None
        self._c_l1_hits: Optional[StatCounter] = None
        self._c_l1_misses: Optional[StatCounter] = None
        self._c_upgrade_misses: Optional[StatCounter] = None
        self._c_lease_expirations: Optional[StatCounter] = None

    def access(self, addr: int, is_write: bool) -> int:
        """Perform one memory operation; returns its latency in cycles."""
        cell = self._c_accesses
        if cell is None:
            cell = self._c_accesses = self.stats.counter("accesses")
        cell.value += 1
        if is_write:
            cell = self._c_writes
            if cell is None:
                cell = self._c_writes = self.stats.counter("writes")
        else:
            cell = self._c_reads
            if cell is None:
                cell = self._c_reads = self.stats.counter("reads")
        cell.value += 1
        op_clock = self._tick()
        block = self._fast_lookup(addr)
        if block is not None:
            state = block.state
            if state == _S_SHARED:
                lease_end = self._lease.get(addr, 0)
                # Rollover fault hook: a wrapped comparison clock makes
                # expired leases look valid once the clock passes the mask.
                mask = self.home.ts_wrap_mask
                clock_cmp = op_clock & mask if mask else op_clock
                if clock_cmp > lease_end:
                    # Lease expired: silent self-invalidation, then renew
                    # through the ordinary miss path.
                    cell = self._c_lease_expirations
                    if cell is None:
                        cell = self._c_lease_expirations = self.stats.counter(
                            "lease_expirations"
                        )
                    cell.value += 1
                    self.l1.invalidate(addr)
                    self._lease.pop(addr, None)
                    return self._miss(addr, is_write)
                if not is_write:
                    cell = self._c_l1_hits
                    if cell is None:
                        cell = self._c_l1_hits = self.stats.counter("l1_hits")
                    cell.value += 1
                    return self._lat_l1_hit
                return self._upgrade(addr, block)
            # M or E copy: always a hit; writes upgrade silently.
            cell = self._c_l1_hits
            if cell is None:
                cell = self._c_l1_hits = self.stats.counter("l1_hits")
            cell.value += 1
            if is_write:
                block.state = _S_MODIFIED
                block.dirty = True
                block.version = self._mint_version(addr)
            return self._lat_l1_hit
        return self._miss(addr, is_write)

    def _upgrade(self, addr: int, block) -> int:
        """Write hit on a live-leased S copy: timestamp upgrade at the home."""
        cell = self._c_upgrade_misses
        if cell is None:
            cell = self._c_upgrade_misses = self.stats.counter("upgrade_misses")
        cell.value += 1
        home_tile = addr & self._bank_mask
        latency = self._lat_l1_hit
        latency += self.network.send(self.core_id, home_tile, MessageClass.REQUEST)
        latency += self._handle_upgrade(self.core_id, addr)
        block.state = _S_MODIFIED
        block.dirty = True
        block.version = self._mint_version(addr)
        self._lease.pop(addr, None)
        return latency

    def _miss(self, addr: int, is_write: bool) -> int:
        cell = self._c_l1_misses
        if cell is None:
            cell = self._c_l1_misses = self.stats.counter("l1_misses")
        cell.value += 1
        core_id = self.core_id
        l1 = self.l1
        victim = l1.peek_fill_victim(addr)
        if victim is not None:
            removed = l1.invalidate(victim.addr)
            assert removed is not None
            self._lease.pop(removed.addr, None)
            self._handle_put(
                core_id, removed.addr, bool(removed.dirty), removed.version
            )
        home_tile = addr & self._bank_mask
        latency = self._lat_l1_hit
        latency += self.network.send(core_id, home_tile, MessageClass.REQUEST)
        grant_latency, state, version, lease_end = self._serve_miss(
            core_id, addr, is_write
        )
        latency += grant_latency
        filled = l1.fill(addr, state, version)
        if state == _S_SHARED:
            self._lease[addr] = lease_end
        if is_write:
            if state != _S_MODIFIED:  # pragma: no cover
                raise ProtocolError(f"write miss granted {MesiState(state)}")
            filled.version = self._mint_version(addr)
        return latency


# -- invariants ---------------------------------------------------------------


def check_tardis_invariants(system) -> None:
    """Tardis invariant suite (replaces the MESI one for this backend).

    The standard suite cannot apply: SWMR is deliberately violated (an
    exclusive writer coexists with leased readers), leased S copies are
    legally stale and legally non-inclusive.  What must still hold:

    * at most one M/E copy per block, and it holds the latest version,
      is LLC-resident, and matches the entry's owner pointer;
    * every S copy has a lease record at its controller and never holds a
      version newer than the latest;
    * ``wts <= rts`` for every entry, and the entry set is exactly the
      LLC-resident set;
    * the latest version is recoverable: the dirty M copy, else the LLC
      copy, else memory.
    """
    home = system.home
    llc = system.llc
    directory = system.directory
    latest = home.latest_version

    entry_addrs = {entry.addr for entry in directory.iter_entries()}
    llc_addrs = {block.addr for block in llc.iter_blocks()}
    if entry_addrs != llc_addrs:
        extra = sorted(entry_addrs - llc_addrs) + sorted(llc_addrs - entry_addrs)
        raise InvariantViolation(
            f"timestamp entries desynced from LLC residency: {extra[:4]}"
        )

    for entry in directory.iter_entries():
        if entry.wts > entry.rts:
            raise InvariantViolation(
                f"block {entry.addr:#x}: wts {entry.wts} > rts {entry.rts}"
            )

    exclusive_holder: Dict[int, int] = {}
    for core, l1 in enumerate(system.l1s):
        lease_map = home.leases[core]
        for block in l1.iter_blocks():
            addr = block.addr
            state = block.state
            if state == _S_MODIFIED or state == _S_EXCLUSIVE:
                if addr in exclusive_holder:
                    raise InvariantViolation(
                        f"block {addr:#x}: M/E copies at cores "
                        f"{exclusive_holder[addr]} and {core}"
                    )
                exclusive_holder[addr] = core
                if block.version != latest.get(addr, block.version):
                    raise InvariantViolation(
                        f"block {addr:#x}: M/E copy at core {core} holds "
                        f"version {block.version}, latest is {latest.get(addr)}"
                    )
                if addr not in llc_addrs:
                    raise InvariantViolation(
                        f"block {addr:#x}: M/E copy at core {core} is not "
                        "LLC-resident"
                    )
                entry = directory.lookup(addr, touch=False)
                if entry is None or entry.owner != core:
                    raise InvariantViolation(
                        f"block {addr:#x}: M/E copy at core {core} but entry "
                        f"owner is {entry.owner if entry else 'absent'}"
                    )
            elif state == _S_SHARED:
                if addr not in lease_map:
                    raise InvariantViolation(
                        f"block {addr:#x}: S copy at core {core} has no lease"
                    )
                if block.version > latest.get(addr, 0) and addr in latest:
                    raise InvariantViolation(
                        f"block {addr:#x}: S copy at core {core} holds future "
                        f"version {block.version} > latest {latest[addr]}"
                    )
            else:  # pragma: no cover - OWNED never granted by this backend
                raise InvariantViolation(
                    f"block {addr:#x}: unexpected state {MesiState(state)}"
                )

    for addr, version in latest.items():
        holder = exclusive_holder.get(addr)
        if holder is not None:
            continue  # checked above: the M/E copy holds the latest
        llc_block = llc.probe(addr, touch=False)
        if llc_block is not None:
            if llc_block.version != version:
                raise InvariantViolation(
                    f"block {addr:#x}: LLC holds {llc_block.version}, "
                    f"latest is {version} (no exclusive copy on chip)"
                )
        elif home.memory_version.get(addr, 0) != version:
            raise InvariantViolation(
                f"block {addr:#x}: off-chip but memory holds "
                f"{home.memory_version.get(addr, 0)}, latest is {version}"
            )
