"""Message classes and traffic accounting.

The paper's traffic claims are message-count claims: how much extra traffic
do discovery broadcasts add, and how much invalidation + refetch traffic does
stashing remove.  We therefore classify every message and account both raw
counts and hop-weighted counts (a proxy for link energy / utilization).

Control messages are one flit; data-bearing messages carry a cache line and
are weighted by ``DATA_FLITS``.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple

from ..common.stats import StatCounter, StatGroup

#: Flits per data-bearing message relative to a 1-flit control message.
DATA_FLITS = 5


class MessageClass(str, Enum):
    """Every message type the protocol engine can put on the network."""

    REQUEST = "request"                  # core -> home: GetS/GetM/upgrade
    DATA_RESPONSE = "data_response"      # home/owner -> core: line fill
    CONTROL_RESPONSE = "control_response"  # acks, grant-without-data
    FORWARD = "forward"                  # home -> owner: intervention
    INVALIDATION = "invalidation"        # home -> sharer: invalidate
    INV_ACK = "inv_ack"                  # sharer -> home/requester
    WRITEBACK = "writeback"              # core -> home: dirty data (PutM)
    WB_ACK = "wb_ack"                    # home -> core
    EVICTION_NOTICE = "eviction_notice"  # core -> home: clean PutE/PutS (ablation A2)
    DISCOVERY_PROBE = "discovery_probe"  # home -> all cores: find hidden copy
    DISCOVERY_REPLY = "discovery_reply"  # core -> home: here / not-here (+data)
    MEMORY = "memory"                    # home <-> memory controller


#: Message classes that carry a full cache line.
DATA_CLASSES = frozenset(
    {
        MessageClass.DATA_RESPONSE,
        MessageClass.WRITEBACK,
        MessageClass.MEMORY,
    }
)


def flits_of(msg_class: MessageClass) -> int:
    """Flit weight of one message of this class."""
    return DATA_FLITS if msg_class in DATA_CLASSES else 1


#: One class's accounting slots: (msgs cell, hops cell, flit weight) —
#: everything one ``record`` touches.
ClassCells = Tuple[StatCounter, StatCounter, int]


class TrafficMeter:
    """Accumulates per-class message and hop counts; derives the flit-hops.

    A message has two facts, its class and its hops, so a message updates
    exactly two bound :class:`~repro.common.stats.StatCounter` cells of the
    meter's :class:`~repro.common.stats.StatGroup`: ``msgs.<class>`` and
    ``hops.<class>``.  ``flit_hops.<class>`` (hops times the class's flit
    weight), ``msgs.total`` and ``flit_hops.total`` are read-only derived
    counters of the same group, computed from those cells by every reader
    (``to_dict``, ``get``, the accessors below, the epoch sampler), as the
    vector engine's ``flat_stats`` derives them.  Cells are bound on a
    class's *first* message, the totals with the first class, keeping the
    stats tree free of never-used classes exactly as lazily-created
    counters always were.
    """

    def __init__(self, stats: StatGroup) -> None:
        self._stats = stats
        #: msg_class -> ClassCells; shared with ``Network``'s inlined fast
        #: path (same dict object).
        self.class_cells: Dict[MessageClass, ClassCells] = {}

    def bind_class(self, msg_class: MessageClass) -> ClassCells:
        """Materialize and cache the accounting cells of one message class."""
        stats = self._stats
        name = msg_class.value
        if not self.class_cells:
            stats.derive("msgs.total", self._total_msgs)
            stats.derive("flit_hops.total", self._total_flit_hops)
        msgs = stats.counter(f"msgs.{name}")
        hops = stats.counter(f"hops.{name}")
        flits = flits_of(msg_class)
        stats.derive(f"flit_hops.{name}", lambda: hops.value * flits)
        cells = (msgs, hops, flits)
        self.class_cells[msg_class] = cells
        return cells

    def _total_msgs(self) -> float:
        return sum(msgs.value for msgs, _, _ in self.class_cells.values())

    def _total_flit_hops(self) -> float:
        return sum(
            hops.value * flits for _, hops, flits in self.class_cells.values()
        )

    def record(self, msg_class: MessageClass, hops: int) -> None:
        """Account one message of ``msg_class`` traversing ``hops`` links."""
        cells = self.class_cells.get(msg_class)
        if cells is None:
            cells = self.bind_class(msg_class)
        cells[0].value += 1
        cells[1].value += hops

    def messages(self, msg_class: MessageClass) -> float:
        """Raw count of one class."""
        return self._stats.get(f"msgs.{msg_class.value}")

    def flit_hops(self, msg_class: MessageClass) -> float:
        """Hop-weighted flits of one class."""
        return self._stats.get(f"flit_hops.{msg_class.value}")

    def total_messages(self) -> float:
        """All messages."""
        return self._stats.get("msgs.total")

    def total_flit_hops(self) -> float:
        """All hop-weighted flits — the headline traffic metric."""
        return self._stats.get("flit_hops.total")
