"""Network façade used by the protocol engine.

``send`` is the single entry point: it returns the latency of one message
and records its traffic.  ``broadcast`` models the discovery probe fan-out —
one probe per destination tile plus the replies, with the *latency* of the
round trip being the slowest leg (probes travel in parallel).

Both are pure table lookups: :class:`~repro.noc.topology.Mesh2D` precomputes
the per-tile-pair hop and latency tables once (≤ 64×64 ints), and the
traffic accounting increments two bound
:class:`~repro.common.stats.StatCounter` cells per message (its class's
``msgs`` and ``hops``), shared with the
:class:`~repro.noc.traffic.TrafficMeter`, which derives every flit-hop
count and total from them — no route arithmetic and no string-keyed
stats writes on the per-message path.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..common.config import NoCConfig
from ..common.stats import StatGroup
from .contention import LinkTracker
from .topology import Mesh2D
from .traffic import MessageClass, TrafficMeter


class Network:
    """Hop-latency mesh network with per-class traffic metering.

    With ``NoCConfig(track_links=True)`` every message's flits are also
    attributed to the links of its XY route (see
    :class:`~repro.noc.contention.LinkTracker`, exposed as ``links``).
    """

    def __init__(self, config: NoCConfig, stats: StatGroup) -> None:
        self.mesh = Mesh2D(config)
        self.traffic = TrafficMeter(stats)
        self.links: Optional[LinkTracker] = (
            LinkTracker(self.mesh) if config.track_links else None
        )
        # Hot-path aliases: the mesh's precomputed N x N tables (list rows,
        # indexed [src][dst]) and the meter's per-class cell dict (same
        # objects — accounting stays observable through ``traffic``).
        self._hops = self.mesh.hop_table()
        self._latencies = self.mesh.latency_table()
        self._class_cells = self.traffic.class_cells
        self._bind_class = self.traffic.bind_class

    def send(self, src: int, dst: int, msg_class: MessageClass) -> int:
        """Deliver one message; returns its latency in cycles."""
        if src < 0 or dst < 0:
            self.mesh.hops(src, dst)  # raises ConfigError
        try:
            hops = self._hops[src][dst]
            latency = self._latencies[src][dst]
        except IndexError:
            self.mesh.hops(src, dst)  # raises ConfigError
            raise  # pragma: no cover - unreachable
        cells = self._class_cells.get(msg_class)
        if cells is None:
            cells = self._bind_class(msg_class)
        msgs, hop_count, flits = cells
        msgs.value += 1
        hop_count.value += hops
        if self.links is not None:
            self.links.record(src, dst, flits)
        return latency

    def broadcast(
        self,
        src: int,
        dsts: Iterable[int],
        probe_class: MessageClass,
        reply_class: MessageClass,
    ) -> Tuple[int, int]:
        """Probe every tile in ``dsts`` and collect one reply from each.

        Returns ``(round_trip_latency, fanout)``: probes are sent in
        parallel, so the round-trip latency is that of the farthest
        destination; traffic is recorded for every probe and every reply.
        An empty destination set costs nothing.
        """
        worst = 0
        fanout = 0
        p_msgs = None
        hop_rows = self._hops
        lat_rows = self._latencies
        hop_row = hop_rows[src]
        lat_row = lat_rows[src]
        links = self.links
        for dst in dsts:
            if p_msgs is None:
                # Bind lazily so an empty destination set creates no counters.
                p_msgs, p_hops, p_flits = self._class_cells.get(
                    probe_class
                ) or self._bind_class(probe_class)
                r_msgs, r_hops, r_flits = self._class_cells.get(
                    reply_class
                ) or self._bind_class(reply_class)
            fanout += 1
            p_msgs.value += 1
            p_hops.value += hop_row[dst]
            r_msgs.value += 1
            r_hops.value += hop_rows[dst][src]
            if links is not None:
                links.record(src, dst, p_flits)
                links.record(dst, src, r_flits)
            round_trip = lat_row[dst] + lat_rows[dst][src]
            if round_trip > worst:
                worst = round_trip
        return worst, fanout
