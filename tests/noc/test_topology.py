"""Unit tests for the 2-D mesh topology."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import NoCConfig
from repro.common.errors import ConfigError
from repro.noc.topology import Mesh2D


def mesh(w=4, h=4, hop=2, router=1):
    return Mesh2D(NoCConfig(mesh_width=w, mesh_height=h, hop_cycles=hop, router_cycles=router))


class TestCoordinates:
    def test_row_major_ids(self):
        m = mesh(4, 4)
        assert m.coords(0) == (0, 0)
        assert m.coords(3) == (3, 0)
        assert m.coords(4) == (0, 1)
        assert m.coords(15) == (3, 3)

    def test_tile_inverse_of_coords(self):
        m = mesh(4, 2)
        for tile in range(m.nodes):
            assert m.tile(*m.coords(tile)) == tile

    def test_out_of_range_tile(self):
        with pytest.raises(ConfigError):
            mesh(2, 2).coords(4)

    def test_out_of_range_coords(self):
        with pytest.raises(ConfigError):
            mesh(2, 2).tile(2, 0)


class TestHops:
    def test_self_distance_zero(self):
        assert mesh().hops(5, 5) == 0

    def test_manhattan(self):
        m = mesh(4, 4)
        assert m.hops(0, 3) == 3
        assert m.hops(0, 12) == 3
        assert m.hops(0, 15) == 6

    def test_symmetric(self):
        m = mesh(4, 4)
        for a in range(16):
            for b in range(16):
                assert m.hops(a, b) == m.hops(b, a)

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    def test_triangle_inequality(self, a, b, c):
        m = mesh(4, 4)
        assert m.hops(a, c) <= m.hops(a, b) + m.hops(b, c)


class TestLatency:
    def test_latency_formula(self):
        m = mesh(4, 4, hop=2, router=1)
        assert m.latency(0, 3) == 3 * 2 + 1

    def test_self_send_pays_router(self):
        assert mesh(4, 4, hop=2, router=1).latency(5, 5) == 1


class TestTables:
    @pytest.mark.parametrize("w,h", [(1, 1), (2, 8), (4, 4), (32, 32)])
    def test_tables_match_manhattan_formula(self, w, h):
        m = mesh(w, h, hop=3, router=2)
        n = w * h
        hops, latencies = m.hop_table(), m.latency_table()
        assert len(hops) == len(latencies) == n
        for s in range(n):
            expected = [
                abs(s % w - d % w) + abs(s // w - d // w) for d in range(n)
            ]
            assert hops[s] == expected
            assert latencies[s] == [hop * 3 + 2 for hop in expected]
