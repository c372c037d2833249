"""Unit tests for the LLC-delegated discovery engine."""

import pytest

from repro.cache.l1 import L1Cache
from repro.common.config import CacheConfig, NoCConfig
from repro.common.errors import ProtocolError
from repro.common.mesi import MesiState
from repro.common.stats import StatGroup
from repro.core.discovery import DiscoveryDemand, DiscoveryEngine
from repro.noc.network import Network
from repro.noc.traffic import MessageClass


def make_engine(num_cores=4):
    stats = StatGroup("root")
    network = Network(NoCConfig(mesh_width=2, mesh_height=2), stats.child("noc"))
    l1s = [
        L1Cache(core, CacheConfig(sets=2, ways=2), stats.child(f"l1.{core}"))
        for core in range(num_cores)
    ]
    engine = DiscoveryEngine(network, l1s, stats.child("discovery"))
    return engine, l1s, network, stats


class TestDiscoveryFinds:
    def test_finds_clean_hider_read_downgrades(self):
        engine, l1s, _, _ = make_engine()
        l1s[2].fill(0x40, MesiState.EXCLUSIVE, version=1)
        result = engine.discover(0, 0x40, DiscoveryDemand.READ)
        assert result.found and result.hider == 2
        assert result.hider_state is MesiState.EXCLUSIVE
        assert result.dirty_version is None
        assert l1s[2].state_of(0x40) is MesiState.SHARED

    def test_finds_dirty_hider_read_collects_data(self):
        engine, l1s, network, _ = make_engine()
        l1s[1].fill(0x40, MesiState.MODIFIED, version=9)
        result = engine.discover(0, 0x40, DiscoveryDemand.READ)
        assert result.dirty_version == 9
        assert l1s[1].state_of(0x40) is MesiState.SHARED
        assert network.traffic.messages(MessageClass.WRITEBACK) == 1

    def test_write_demand_invalidates_hider(self):
        engine, l1s, _, _ = make_engine()
        l1s[3].fill(0x40, MesiState.MODIFIED, version=5)
        result = engine.discover(0, 0x40, DiscoveryDemand.WRITE)
        assert result.dirty_version == 5
        assert l1s[3].state_of(0x40) is MesiState.INVALID

    def test_evict_demand_invalidates_hider(self):
        engine, l1s, _, _ = make_engine()
        l1s[0].fill(0x40, MesiState.SHARED, version=0)
        result = engine.discover(1, 0x40, DiscoveryDemand.EVICT)
        assert result.found and result.hider == 0
        assert l1s[0].state_of(0x40) is MesiState.INVALID


class TestDiscoveryMisses:
    def test_false_discovery_counted(self):
        engine, _, _, stats = make_engine()
        result = engine.discover(0, 0x40, DiscoveryDemand.READ)
        assert not result.found
        assert stats.child("discovery").get("false_discoveries") == 1
        assert engine.false_rate() == 1.0

    def test_exclude_core_is_not_probed(self):
        engine, l1s, _, _ = make_engine()
        l1s[2].fill(0x40, MesiState.SHARED, version=0)
        result = engine.discover(0, 0x40, DiscoveryDemand.READ, exclude_core=2)
        assert not result.found
        assert result.fanout == 3  # 4 cores minus the excluded one
        # The excluded core's copy survives untouched.
        assert l1s[2].state_of(0x40) is MesiState.SHARED


class TestDiscoveryInvariants:
    def test_two_hiders_is_a_protocol_bug(self):
        engine, l1s, _, _ = make_engine()
        l1s[0].fill(0x40, MesiState.SHARED, version=0)
        l1s[1].fill(0x40, MesiState.SHARED, version=0)
        with pytest.raises(ProtocolError):
            engine.discover(2, 0x40, DiscoveryDemand.READ)

    def test_traffic_accounting(self):
        engine, _, network, _ = make_engine()
        engine.discover(0, 0x40, DiscoveryDemand.READ)
        assert network.traffic.messages(MessageClass.DISCOVERY_PROBE) == 4
        assert network.traffic.messages(MessageClass.DISCOVERY_REPLY) == 4

    def test_broadcast_counters(self):
        engine, l1s, _, stats = make_engine()
        l1s[1].fill(0x40, MesiState.EXCLUSIVE, version=0)
        engine.discover(0, 0x40, DiscoveryDemand.READ)
        engine.discover(0, 0x80, DiscoveryDemand.READ)
        assert engine.broadcasts() == 2
        assert stats.child("discovery").get("successful_discoveries") == 1
        assert stats.child("discovery").get("false_discoveries") == 1
        assert engine.false_rate() == 0.5


class TestCandidateLists:
    def test_candidates_restrict_probes(self):
        engine, l1s, network, _ = make_engine()
        l1s[2].fill(0x40, MesiState.EXCLUSIVE, version=1)
        result = engine.discover(
            0, 0x40, DiscoveryDemand.READ, candidates=[2, 3]
        )
        assert result.found and result.hider == 2
        assert result.fanout == 2
        assert network.traffic.messages(MessageClass.DISCOVERY_PROBE) == 2

    def test_empty_candidates_is_instant_false_discovery(self):
        engine, _, _, stats = make_engine()
        result = engine.discover(0, 0x40, DiscoveryDemand.READ, candidates=[])
        assert not result.found
        assert result.latency == 0 and result.fanout == 0
        assert stats.child("discovery").get("false_discoveries") == 1

    def test_none_candidates_probe_everyone(self):
        engine, _, network, _ = make_engine()
        engine.discover(0, 0x40, DiscoveryDemand.READ, candidates=None)
        assert network.traffic.messages(MessageClass.DISCOVERY_PROBE) == 4
