"""Unit tests for per-link traffic attribution."""

import pytest

from repro.common.config import NoCConfig
from repro.common.stats import StatGroup
from repro.noc.contention import LinkTracker
from repro.noc.network import Network
from repro.noc.topology import Mesh2D
from repro.noc.traffic import DATA_FLITS, MessageClass


def make_tracker(w=4, h=4):
    return LinkTracker(Mesh2D(NoCConfig(mesh_width=w, mesh_height=h)))


class TestRoutes:
    def test_self_route_empty(self):
        assert make_tracker().xy_route(5, 5) == []

    def test_x_then_y(self):
        # Tile 0 -> tile 5 on a 4x4 mesh: east to 1, then south to 5.
        assert make_tracker().xy_route(0, 5) == [(0, 1), (1, 5)]

    def test_route_length_is_hop_count(self):
        tracker = make_tracker()
        for src in range(16):
            for dst in range(16):
                assert len(tracker.xy_route(src, dst)) == tracker.mesh.hops(src, dst)

    def test_links_are_adjacent(self):
        tracker = make_tracker()
        for a, b in tracker.xy_route(0, 15):
            assert tracker.mesh.hops(a, b) == 1


class TestRecording:
    def test_flits_attributed_per_link(self):
        tracker = make_tracker()
        tracker.record(0, 2, flits=5)
        assert tracker.link_flits() == {(0, 1): 5, (1, 2): 5}

    def test_total_matches_flit_hops(self):
        tracker = make_tracker()
        tracker.record(0, 5, flits=1)   # 2 hops
        tracker.record(3, 0, flits=5)   # 3 hops
        assert tracker.total_flit_hops() == 2 * 1 + 3 * 5

    def test_hottest_links(self):
        tracker = make_tracker()
        tracker.record(0, 1, flits=10)
        tracker.record(0, 2, flits=1)
        assert tracker.hottest_links(1)[0] == ((0, 1), 11)

    def test_utilization_and_queueing(self):
        tracker = make_tracker()
        tracker.record(0, 1, flits=50)
        assert tracker.utilization((0, 1), elapsed_cycles=100) == 0.5
        assert tracker.estimated_queueing_delay((0, 1), 100) == pytest.approx(1.0)

    def test_queueing_capped_below_saturation(self):
        tracker = make_tracker()
        tracker.record(0, 1, flits=1000)
        assert tracker.estimated_queueing_delay((0, 1), 100) == pytest.approx(0.99 / 0.01)

    def test_max_utilization_empty(self):
        assert make_tracker().max_utilization(100) == 0.0

    def test_heatmap_renders_grid(self):
        tracker = make_tracker(2, 2)
        tracker.record(0, 3, flits=4)
        text = tracker.heatmap(elapsed_cycles=100)
        assert len(text.splitlines()) == 3  # title + 2 rows


class TestNetworkIntegration:
    def test_disabled_by_default(self):
        net = Network(NoCConfig(), StatGroup("noc"))
        assert net.links is None

    def test_enabled_records_sends(self):
        net = Network(NoCConfig(track_links=True), StatGroup("noc"))
        net.send(0, 2, MessageClass.DATA_RESPONSE)
        assert net.links.total_flit_hops() == 2 * DATA_FLITS

    def test_tracker_agrees_with_meter(self):
        net = Network(NoCConfig(track_links=True), StatGroup("noc"))
        net.send(0, 5, MessageClass.REQUEST)
        net.send(5, 0, MessageClass.DATA_RESPONSE)
        net.broadcast(0, [1, 2, 3], MessageClass.DISCOVERY_PROBE,
                      MessageClass.DISCOVERY_REPLY)
        assert net.links.total_flit_hops() == net.traffic.total_flit_hops()
