"""Typed coherence events and the bounded trace ring buffer.

The tracer is the **hot half** of the observability subsystem, so the event
record is deliberately primitive: one fixed-shape tuple

    (ts, kind, core, addr, dur, arg)

* ``ts``   — requester clock at transaction start (cycles, int).  The
  simulator's timestamp-ordered interleave issues operations in
  non-decreasing clock order, so raw event timestamps are already
  monotonic; exporters still sort defensively.
* ``kind`` — one of the ``EV_*`` integer codes below.
* ``core`` — the acting core (requester, hider, invalidation target), or
  ``-1`` when no single core applies (e.g. a directory eviction).
* ``addr`` — block address the event concerns.
* ``dur``  — critical-path cycles for span-shaped events (grants,
  upgrades, discoveries); 0 for instants.
* ``arg``  — kind-specific packed integer; :func:`decode_args` unpacks it
  into the named fields of the event schema (docs/OBSERVABILITY.md).

Emission sites do ``obs = self._obs`` / ``if obs is not None: obs((...))``
where ``_obs`` is :meth:`EventRing.append` — with observability off the
probe is a single attribute load and ``None`` test, and the simulator's
hot path allocates nothing.

The ring is bounded: once ``capacity`` events are held, each append
overwrites the oldest event and bumps :attr:`EventRing.dropped`, so a
multi-million-op run traces its tail at O(capacity) memory.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

#: Event record: (ts, kind, core, addr, dur, arg).
Event = Tuple[float, int, int, int, int, int]

# ---------------------------------------------------------------- event kinds

EV_MISS = 0            # L1 miss detected (instant; arg: write|coverage flags)
EV_GRANT = 1           # home grant back at the requester (span; arg: state|write)
EV_UPGRADE = 2         # S->M write upgrade served (span; arg: 1 if hider upgrade)
EV_DIR_EVICT = 3       # invalidating directory eviction (span; arg: target count)
EV_STASH_SPILL = 4     # stash eviction: entry dropped, LLC stash bit set
EV_DISCOVERY = 5       # discovery broadcast (span; arg: found|demand|fanout)
EV_INVAL = 6           # one invalidation message (instant; arg: cause|destroyed)
EV_LLC_EVICT = 7       # LLC line eviction (instant; arg: dirty|stash flags)

#: kind code -> stable event-schema name.
EVENT_NAMES: Dict[int, str] = {
    EV_MISS: "miss",
    EV_GRANT: "grant",
    EV_UPGRADE: "upgrade",
    EV_DIR_EVICT: "dir_eviction",
    EV_STASH_SPILL: "stash_spill",
    EV_DISCOVERY: "discovery",
    EV_INVAL: "invalidation",
    EV_LLC_EVICT: "llc_eviction",
}

# arg layouts (packed at the emission sites, unpacked by decode_args):
#   EV_MISS      bit0 = write, bit1 = coverage miss
#   EV_GRANT     bit0 = write, bits1-3 = granted MESI state code
#   EV_UPGRADE   bit0 = hider upgrade (untracked stash-bit block)
#   EV_DIR_EVICT value = number of invalidation targets
#   EV_DISCOVERY bit0 = found, bits1-2 = demand (0 read / 1 write / 2 evict),
#                bits3+ = fanout (cores probed)
#   EV_INVAL     bits0-1 = cause (0 write / 1 dir eviction / 2 LLC eviction),
#                bit2 = a live copy was destroyed
#   EV_LLC_EVICT bit0 = dirty writeback to memory, bit1 = stash bit was set

#: EV_INVAL cause codes.
CAUSE_WRITE = 0
CAUSE_DIR_EVICT = 1
CAUSE_LLC_EVICT = 2

_CAUSE_NAMES = {CAUSE_WRITE: "write", CAUSE_DIR_EVICT: "dir_eviction",
                CAUSE_LLC_EVICT: "llc_eviction"}
_DEMAND_NAMES = {0: "read", 1: "write", 2: "evict"}
_STATE_NAMES = {0: "I", 1: "S", 2: "E", 3: "M", 4: "O"}


def decode_args(kind: int, arg: int) -> Dict[str, object]:
    """Unpack one event's ``arg`` field into named schema fields."""
    if kind == EV_MISS:
        return {"write": bool(arg & 1), "coverage": bool(arg & 2)}
    if kind == EV_GRANT:
        return {"write": bool(arg & 1),
                "state": _STATE_NAMES.get((arg >> 1) & 0x7, "?")}
    if kind == EV_UPGRADE:
        return {"hider_upgrade": bool(arg & 1)}
    if kind == EV_DIR_EVICT:
        return {"targets": arg}
    if kind == EV_STASH_SPILL:
        return {}
    if kind == EV_DISCOVERY:
        return {"found": bool(arg & 1),
                "demand": _DEMAND_NAMES.get((arg >> 1) & 0x3, "?"),
                "fanout": arg >> 3}
    if kind == EV_INVAL:
        return {"cause": _CAUSE_NAMES.get(arg & 0x3, "?"),
                "destroyed": bool(arg & 4)}
    if kind == EV_LLC_EVICT:
        return {"dirty": bool(arg & 1), "stash_bit": bool(arg & 2)}
    return {"raw": arg}


class EventRing:
    """Bounded ring of :data:`Event` tuples; overflow drops the oldest.

    ``append`` is the probe handed to the protocol controllers, so it is
    branch-minimal: one store, one index wrap, one counter.  ``dropped``
    counts overwritten events so exports can state exactly how much of the
    run's head was lost.
    """

    __slots__ = ("capacity", "_buf", "_next", "total")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"EventRing capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: List[Event] = [None] * capacity  # type: ignore[list-item]
        self._next = 0
        self.total = 0

    def append(self, event: Event) -> None:
        """Record one event, evicting the oldest when full."""
        self._buf[self._next] = event
        self._next += 1
        if self._next == self.capacity:
            self._next = 0
        self.total += 1

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring was full."""
        return self.total - self.capacity if self.total > self.capacity else 0

    def __len__(self) -> int:
        return min(self.total, self.capacity)

    def events(self) -> List[Event]:
        """Retained events, oldest first."""
        if self.total <= self.capacity:
            return list(self._buf[: self.total])
        return self._buf[self._next:] + self._buf[: self._next]

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events())

    def counts_by_kind(self) -> Dict[str, int]:
        """Retained-event histogram keyed by schema name (reporting)."""
        counts: Dict[str, int] = {}
        for event in self.events():
            name = EVENT_NAMES.get(event[1], str(event[1]))
            counts[name] = counts.get(name, 0) + 1
        return counts

    def clear(self) -> None:
        """Drop every retained event and the drop counter."""
        self._buf = [None] * self.capacity  # type: ignore[list-item]
        self._next = 0
        self.total = 0
