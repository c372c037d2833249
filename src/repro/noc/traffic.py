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


#: One class's bound accounting slots: (msgs, hops, flit_hops, flit weight,
#: msgs.total, flit_hops.total) — everything one ``record`` touches.
ClassCells = Tuple[StatCounter, StatCounter, StatCounter, int, StatCounter, StatCounter]


class TrafficMeter:
    """Accumulates per-class message, hop and flit-hop counts.

    Counts live in bound :class:`~repro.common.stats.StatCounter` cells of
    the meter's :class:`~repro.common.stats.StatGroup` (same names
    :meth:`StatGroup.add` would create), so the stats tree stays the single
    source of truth while the per-message cost is one dict lookup plus five
    attribute adds.  Cells are bound on a class's *first* message, keeping
    the stats tree free of never-used classes exactly as lazily-created
    counters always were.
    """

    def __init__(self, stats: StatGroup) -> None:
        self._stats = stats
        #: msg_class -> ClassCells; shared with ``Network``'s inlined fast
        #: path (same dict object).
        self.class_cells: Dict[MessageClass, ClassCells] = {}

    def bind_class(self, msg_class: MessageClass) -> ClassCells:
        """Materialize and cache the accounting cells of one message class."""
        counter = self._stats.counter
        cells = (
            counter(f"msgs.{msg_class.value}"),
            counter(f"hops.{msg_class.value}"),
            counter(f"flit_hops.{msg_class.value}"),
            flits_of(msg_class),
            counter("msgs.total"),
            counter("flit_hops.total"),
        )
        self.class_cells[msg_class] = cells
        return cells

    def record(self, msg_class: MessageClass, hops: int) -> None:
        """Account one message of ``msg_class`` traversing ``hops`` links."""
        cells = self.class_cells.get(msg_class)
        if cells is None:
            cells = self.bind_class(msg_class)
        msgs, hop_count, flit_hops, flits, total_msgs, total_flit_hops = cells
        fh = hops * flits
        msgs.value += 1
        hop_count.value += hops
        flit_hops.value += fh
        total_msgs.value += 1
        total_flit_hops.value += fh

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
