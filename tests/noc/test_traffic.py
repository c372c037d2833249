"""Unit tests for message classes and traffic metering."""

from repro.common.stats import StatGroup
from repro.noc.traffic import (
    DATA_CLASSES,
    DATA_FLITS,
    MessageClass,
    TrafficMeter,
    flits_of,
)


class TestFlits:
    def test_data_classes_weighted(self):
        for cls in DATA_CLASSES:
            assert flits_of(cls) == DATA_FLITS

    def test_control_classes_single_flit(self):
        assert flits_of(MessageClass.REQUEST) == 1
        assert flits_of(MessageClass.INV_ACK) == 1
        assert flits_of(MessageClass.DISCOVERY_PROBE) == 1

    def test_writeback_carries_data(self):
        assert MessageClass.WRITEBACK in DATA_CLASSES


class TestMeter:
    def test_record_counts_messages_and_hops(self):
        meter = TrafficMeter(StatGroup("noc"))
        meter.record(MessageClass.REQUEST, hops=3)
        meter.record(MessageClass.REQUEST, hops=1)
        assert meter.messages(MessageClass.REQUEST) == 2
        assert meter.flit_hops(MessageClass.REQUEST) == 4

    def test_data_flit_weighting(self):
        meter = TrafficMeter(StatGroup("noc"))
        meter.record(MessageClass.DATA_RESPONSE, hops=2)
        assert meter.flit_hops(MessageClass.DATA_RESPONSE) == 2 * DATA_FLITS

    def test_totals(self):
        meter = TrafficMeter(StatGroup("noc"))
        meter.record(MessageClass.REQUEST, hops=2)
        meter.record(MessageClass.DATA_RESPONSE, hops=1)
        assert meter.total_messages() == 2
        assert meter.total_flit_hops() == 2 + DATA_FLITS

    def test_zero_hop_message_counts(self):
        meter = TrafficMeter(StatGroup("noc"))
        meter.record(MessageClass.REQUEST, hops=0)
        assert meter.total_messages() == 1
        assert meter.total_flit_hops() == 0
