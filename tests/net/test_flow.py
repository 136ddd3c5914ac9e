"""Tests for flow keys and flow assembly."""

import pytest

from repro.net.flow import Flow, FlowKey, assemble_flows
from repro.net.hashing import flow_hash
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
)


def _packet(sport, ts=0.0, payload=b"", flags=FLAG_ACK, proto=6):
    if proto == 6:
        transport = TcpHeader(src_port=sport, dst_port=80, flags=flags)
    else:
        transport = UdpHeader(src_port=sport, dst_port=80)
    return Packet(
        ip=Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=proto),
        transport=transport,
        payload=payload,
        timestamp=ts,
    )


class TestFlowKey:
    def test_of_packet(self):
        key = FlowKey.of_packet(_packet(1234))
        assert key == FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, 6)

    def test_to_bytes_is_13_bytes_and_unique(self):
        a = FlowKey("10.0.0.1", 1, "10.0.0.2", 2, 6)
        b = FlowKey("10.0.0.1", 1, "10.0.0.2", 2, 17)
        assert len(a.to_bytes()) == 13
        assert a.to_bytes() != b.to_bytes()

    def test_reversed(self):
        key = FlowKey("1.1.1.1", 10, "2.2.2.2", 20, 6)
        assert key.reversed() == FlowKey("2.2.2.2", 20, "1.1.1.1", 10, 6)
        assert key.reversed().reversed() == key

    def test_validation(self):
        with pytest.raises(ValueError, match="port"):
            FlowKey("1.1.1.1", 70000, "2.2.2.2", 20, 6)
        with pytest.raises(ValueError, match="protocol"):
            FlowKey("1.1.1.1", 1, "2.2.2.2", 2, 300)

    def test_bad_address_in_to_bytes(self):
        with pytest.raises(ValueError, match="invalid address"):
            FlowKey("nonsense", 1, "2.2.2.2", 2, 6).to_bytes()

    @pytest.mark.parametrize("alias", ["10.1", "10.0.1", "010.0.0.1", "10.0.0.01"])
    def test_non_canonical_address_rejected_not_aliased(self, alias):
        # inet_aton read "10.1" as 10.0.0.1 (and "010..." as octal), so
        # two unequal keys used to share one flow ID.
        with pytest.raises(ValueError, match="invalid address"):
            FlowKey(alias, 1, "10.0.0.2", 2, 17).to_bytes()
        with pytest.raises(ValueError, match="invalid address"):
            flow_hash(FlowKey("10.0.0.2", 2, alias, 1, 17))

    def test_from_bytes_inverts_to_bytes(self):
        key = FlowKey("192.168.7.1", 443, "10.0.0.254", 51000, 6)
        assert key.to_bytes() == bytes(
            [192, 168, 7, 1, 1, 187, 10, 0, 0, 254, 199, 56, 6]
        )
        assert FlowKey.from_bytes(key.to_bytes()) == key

    def test_hashable(self):
        assert len({FlowKey("1.1.1.1", 1, "2.2.2.2", 2, 6)} | {
            FlowKey("1.1.1.1", 1, "2.2.2.2", 2, 6)
        }) == 1


class TestFlow:
    def test_payload_concatenation_in_order(self):
        flow = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, 0.0, b"ab"), _packet(1, 1.0, b"cd")],
        )
        assert flow.payload == b"abcd"
        assert flow.start_time == 0.0

    def test_inter_arrival_times(self):
        flow = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, 0.0), _packet(1, 0.5), _packet(1, 2.0)],
        )
        assert flow.inter_arrival_times() == [0.5, 1.5]

    def test_fin_rst_detection(self):
        clean = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, flags=FLAG_ACK), _packet(1, flags=FLAG_ACK | FLAG_FIN)],
        )
        reset = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, flags=FLAG_RST)],
        )
        silent = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, flags=FLAG_ACK)],
        )
        assert clean.saw_fin_or_rst
        assert reset.saw_fin_or_rst
        assert not silent.saw_fin_or_rst

    def test_udp_never_fin(self):
        flow = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 17),
            packets=[_packet(1, proto=17)],
        )
        assert not flow.saw_fin_or_rst

    def test_empty_flow_start_time_raises(self):
        flow = Flow(key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6))
        with pytest.raises(ValueError, match="no packets"):
            flow.start_time


class TestAssembleFlows:
    def test_groups_by_five_tuple(self):
        packets = [_packet(1, 0.0, b"a"), _packet(2, 0.1, b"b"), _packet(1, 0.2, b"c")]
        flows = assemble_flows(packets)
        assert len(flows) == 2
        key1 = FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6)
        assert flows[key1].payload == b"ac"

    def test_preserves_arrival_order(self):
        packets = [_packet(1, 1.0, b"1"), _packet(1, 0.5, b"0")]
        flows = assemble_flows(packets)
        key = FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6)
        # assemble_flows keeps *list* order (caller sorts the trace).
        assert flows[key].payload == b"10"
