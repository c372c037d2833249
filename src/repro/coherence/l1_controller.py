"""Core-side protocol controller: hits, upgrades, misses and victim putback.

One controller per core.  It owns the decision tree at the L1 (hit state vs.
required permission), charges local latencies, and escalates to the
:class:`~repro.coherence.llc_controller.HomeController` for anything that
needs the directory.  Coverage-miss attribution — "this miss exists because
a directory eviction invalidated my copy" — happens here, at the moment the
miss is detected.

This is the hottest code in the simulator — :meth:`L1Controller.access` runs
once per trace operation — so the fast paths are flat: hit/miss-detect
latencies are precomputed at construction, MESI checks compare raw ints
(no enum construction), the silent E->M upgrade mutates the block in place,
the grant from the home is a plain ``(latency, state, version)`` tuple, and
the per-access statistics are bound counter cells.
"""

from __future__ import annotations

from typing import Optional

from ..cache.l1 import L1Cache
from ..common.config import TimingConfig
from ..common.errors import ProtocolError
from ..common.stats import StatCounter, StatGroup
from ..noc.network import Network
from ..noc.traffic import MessageClass
from ..obs.events import EV_GRANT, EV_MISS, EV_UPGRADE
from .llc_controller import HomeController
from .states import MesiState

# Raw int MESI states: the hit path never constructs a MesiState.
_S_SHARED = int(MesiState.SHARED)
_S_EXCLUSIVE = int(MesiState.EXCLUSIVE)
_S_MODIFIED = int(MesiState.MODIFIED)
_S_OWNED = int(MesiState.OWNED)
# Enum members are read once here: ``MessageClass.REQUEST`` inside a
# function is a class-attribute lookup through EnumType on every call.
_REQUEST = MessageClass.REQUEST


class L1Controller:
    """Drives one core's private cache through the MESI protocol."""

    def __init__(
        self,
        core_id: int,
        l1: L1Cache,
        home: HomeController,
        network: Network,
        timing: TimingConfig,
        stats: StatGroup,
    ) -> None:
        self.core_id = core_id
        self.l1 = l1
        self.home = home
        self.network = network
        self.timing = timing
        self.stats = stats
        # Private L2 present? (PrivateHierarchy exposes l2_config.)
        self.has_l2 = hasattr(l1, "l2_config")
        # Single-level caches expose the array lookup directly; the hit path
        # then skips the (block, level) tuple of access_block entirely.
        self._fast_lookup = None if self.has_l2 else getattr(l1, "lookup_block", None)
        # Home-side handles hoisted once (the home object never changes).
        self._bank_mask = home.llc.num_banks - 1
        self._serve_miss = home.serve_miss
        self._handle_put = home.handle_put
        self._handle_upgrade = home.handle_upgrade
        # The presence filter is attached before the controllers are built
        # (None unless discovery_filter_slots > 0); without one the miss
        # path makes no filter call.
        self._filter_add = home.filter.add if home.filter is not None else None
        self._mint_version = home.mint_version
        # The per-core coverage-attribution set is mutated in place, never
        # reassigned, so the controller can hold it directly.
        self._dir_invalidated = home.dir_invalidated[core_id]
        # Precomputed latencies (access() consults these every operation).
        self._lat_l1_hit = timing.l1_hit
        self._lat_l2_hit = timing.l1_hit + timing.l2_hit
        # A miss checked both private levels when an L2 exists.
        self._lat_miss_detect = self._lat_l2_hit if self.has_l2 else self._lat_l1_hit
        # Observability probe (repro.obs): None is the null probe — the
        # miss/upgrade paths test it once and emit nothing.  When tracing
        # is attached this becomes EventRing.append.
        self._obs = None
        # Per-access counters, bound on first event (shape-preserving).
        self._c_accesses: Optional[StatCounter] = None
        self._c_reads: Optional[StatCounter] = None
        self._c_writes: Optional[StatCounter] = None
        self._c_l1_hits: Optional[StatCounter] = None
        self._c_l2_hits: Optional[StatCounter] = None
        self._c_l1_misses: Optional[StatCounter] = None
        self._c_upgrade_misses: Optional[StatCounter] = None
        self._c_coverage_misses: Optional[StatCounter] = None

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
        fast_lookup = self._fast_lookup
        if fast_lookup is not None:
            block = fast_lookup(addr)
            level_l1 = True
        else:
            block, level = self.l1.access_block(addr)
            level_l1 = level == "l1"
        if block is not None:
            hit_latency = self._lat_l1_hit if level_l1 else self._lat_l2_hit
            if is_write:
                state = block.state
                if state == _S_SHARED or state == _S_OWNED:
                    # S (and MOESI's O) write hits need an upgrade: other
                    # copies must be invalidated before write permission is
                    # granted.  The hit counter stays untouched — upgrades
                    # count as upgrade_misses, and a key exists iff its
                    # count is nonzero (the vector engine relies on this).
                    return self._upgrade(addr, block, hit_latency)
                if (
                    state != _S_MODIFIED and state != _S_EXCLUSIVE
                ):  # pragma: no cover
                    raise ProtocolError(
                        f"write hit in unexpected state {MesiState(state)}"
                    )
                # M hit, or silent E -> M upgrade: no protocol message.
                block.state = _S_MODIFIED
                block.dirty = True
                block.version = self._mint_version(addr)
            if level_l1:
                hit_cell = self._c_l1_hits
                if hit_cell is None:
                    hit_cell = self._c_l1_hits = self.stats.counter("l1_hits")
            else:
                hit_cell = self._c_l2_hits
                if hit_cell is None:
                    hit_cell = self._c_l2_hits = self.stats.counter("l2_hits")
            hit_cell.value += 1
            return hit_latency
        return self._miss(addr, is_write)

    # -- upgrade (write hit on an S copy) ---------------------------------------

    def _upgrade(self, addr: int, block, local_latency: int) -> int:
        cell = self._c_upgrade_misses
        if cell is None:
            cell = self._c_upgrade_misses = self.stats.counter("upgrade_misses")
        cell.value += 1
        home_tile = addr & self._bank_mask
        latency = local_latency
        latency += self.network.send(self.core_id, home_tile, _REQUEST)
        latency += self._handle_upgrade(self.core_id, addr)
        block.state = _S_MODIFIED
        block.dirty = True
        block.version = self._mint_version(addr)
        obs = self._obs
        if obs is not None:
            obs((self.home.now, EV_UPGRADE, self.core_id, addr, latency, 0))
        return latency

    # -- miss -------------------------------------------------------------------

    def _miss(self, addr: int, is_write: bool) -> int:
        cell = self._c_l1_misses
        if cell is None:
            cell = self._c_l1_misses = self.stats.counter("l1_misses")
        cell.value += 1
        core_id = self.core_id
        invalidated = self._dir_invalidated
        coverage = addr in invalidated
        if coverage:
            # This copy was lost to a directory eviction: a coverage miss.
            invalidated.discard(addr)
            cell = self._c_coverage_misses
            if cell is None:
                cell = self._c_coverage_misses = self.stats.counter("coverage_misses")
            cell.value += 1

        # Make room first, so the home never races our victim.
        l1 = self.l1
        victim = l1.peek_fill_victim(addr)
        if victim is not None:
            removed = l1.invalidate(victim.addr)
            assert removed is not None
            self._handle_put(
                core_id, removed.addr, bool(removed.dirty), removed.version
            )

        home_tile = addr & self._bank_mask
        latency = self._lat_miss_detect
        latency += self.network.send(core_id, home_tile, _REQUEST)
        grant_latency, state, version = self._serve_miss(core_id, addr, is_write)
        latency += grant_latency

        filled = l1.fill(addr, state, version)
        filter_add = self._filter_add
        if filter_add is not None:
            filter_add(core_id, addr)
        if is_write:
            if state != _S_MODIFIED:  # pragma: no cover
                raise ProtocolError(f"write miss granted {MesiState(state)}")
            filled.version = self._mint_version(addr)
        obs = self._obs
        if obs is not None:
            now = self.home.now
            write_bit = 1 if is_write else 0
            obs((now, EV_MISS, core_id, addr, 0,
                 write_bit | (2 if coverage else 0)))
            obs((now, EV_GRANT, core_id, addr, latency, write_bit | (state << 1)))
        return latency
