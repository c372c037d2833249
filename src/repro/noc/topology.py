"""2-D mesh topology: tile coordinates and minimal-route hop counts.

One tile per core; LLC banks and directory slices are co-located with tiles
(bank *b* lives on tile *b*).  Routing is dimension-ordered (XY), so the hop
count between two tiles is their Manhattan distance — all the latency model
needs.
"""

from __future__ import annotations

from operator import add
from typing import Tuple

from ..common.config import NoCConfig
from ..common.errors import ConfigError


class Mesh2D:
    """Coordinate math for a ``width x height`` mesh of tiles."""

    def __init__(self, config: NoCConfig) -> None:
        self.config = config
        self.width = config.mesh_width
        self.height = config.mesh_height
        # Hop counts and latencies are looked up on every message: precompute
        # the full N x N tables once.  At 1024 cores that is 1,048,576
        # entries each, so rows are built with C-level maps: a hop row is
        # the x-distance row of the source column plus the y-distance row
        # of its mesh row, and a latency row maps hop counts through a
        # per-distance table.
        width, n = self.width, self.width * self.height
        xdist = [[abs(sx - d % width) for d in range(n)] for sx in range(width)]
        ydist = [
            [abs(sy - d // width) for d in range(n)] for sy in range(self.height)
        ]
        self._hops = [
            list(map(add, xdist[s % width], ydist[s // width])) for s in range(n)
        ]
        hop, router = config.hop_cycles, config.router_cycles
        lat_of = [
            h * hop + router for h in range(self.width + self.height - 1)
        ]
        self._latencies = [list(map(lat_of.__getitem__, row)) for row in self._hops]

    @property
    def nodes(self) -> int:
        """Number of tiles."""
        return self.width * self.height

    def coords(self, tile: int) -> Tuple[int, int]:
        """(x, y) coordinates of a tile id (row-major)."""
        if not 0 <= tile < self.nodes:
            raise ConfigError(f"tile {tile} outside mesh of {self.nodes} nodes")
        return tile % self.width, tile // self.width

    def tile(self, x: int, y: int) -> int:
        """Tile id at coordinates (x, y)."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ConfigError(f"coords ({x},{y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two tiles (XY routing)."""
        if src < 0 or dst < 0:
            raise ConfigError(f"negative tile id ({src}, {dst})")
        try:
            return self._hops[src][dst]
        except IndexError:
            raise ConfigError(
                f"tile pair ({src}, {dst}) outside mesh of {self.nodes} nodes"
            ) from None

    def latency(self, src: int, dst: int) -> int:
        """Cycles for one message: hops * hop_cycles + router overhead.

        A self-send (src == dst, e.g. a core whose tile hosts the home bank)
        still pays the router overhead once.
        """
        if src < 0 or dst < 0:
            raise ConfigError(f"negative tile id ({src}, {dst})")
        try:
            return self._latencies[src][dst]
        except IndexError:
            raise ConfigError(
                f"tile pair ({src}, {dst}) outside mesh of {self.nodes} nodes"
            ) from None

    def hop_table(self):
        """The precomputed ``[src][dst]`` hop-count table (do not mutate).

        :class:`~repro.noc.network.Network` aliases this so its per-message
        path is a pure table lookup.
        """
        return self._hops

    def latency_table(self):
        """The precomputed ``[src][dst]`` latency table (do not mutate)."""
        return self._latencies
