"""Flow identity of decoded packets matches the eager header path (hypothesis).

The decoder reads the canonical 13-byte flow key and the TCP flags
straight off the wire and parses header objects only on demand. These
properties pin that fast path to the string path it replaces: same key
bytes as ``FlowKey.of_packet(p).to_bytes()``, same SHA-1 flow ID, same
5-tuple, protocol, FIN/RST and equality as a packet built from parsed
headers — with and without IP and TCP options.
"""

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from repro.net.flow import FlowKey
from repro.net.hashing import flow_hash, packet_flow_hash
from repro.net.packet import (
    FLAG_FIN,
    FLAG_RST,
    PROTO_TCP,
    PROTO_UDP,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
)

ip_addresses = st.tuples(
    st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
).map(lambda t: ".".join(map(str, t)))

ports = st.integers(0, 65535)

#: IP options: 0-40 bytes in whole 32-bit words.
ip_options = st.integers(0, 10).flatmap(lambda n: st.binary(min_size=4 * n, max_size=4 * n))


@st.composite
def wire_packets(draw):
    """``(wire bytes, timestamp)`` of a TCP or UDP packet, options optional."""
    protocol = draw(st.sampled_from([PROTO_TCP, PROTO_UDP]))
    if protocol == PROTO_TCP:
        transport = TcpHeader(
            src_port=draw(ports),
            dst_port=draw(ports),
            seq=draw(st.integers(0, 2**32 - 1)),
            flags=draw(st.integers(0, 63)),
            options=draw(st.binary(max_size=40)),
        )
    else:
        transport = UdpHeader(src_port=draw(ports), dst_port=draw(ports))
    packet = Packet(
        ip=Ipv4Header(
            src=draw(ip_addresses), dst=draw(ip_addresses), protocol=protocol,
            identification=draw(st.integers(0, 65535)),
        ),
        transport=transport,
        payload=draw(st.binary(max_size=64)),
    )
    wire = bytearray(packet.to_bytes())
    options = draw(ip_options)
    if options:
        wire[0] = (4 << 4) | (5 + len(options) // 4)
        wire[2:4] = (len(wire) + len(options)).to_bytes(2, "big")
        wire[20:20] = options
    timestamp = draw(st.floats(0, 1e6, allow_nan=False))
    return bytes(wire), timestamp


def _eager(wire: bytes, timestamp: float) -> Packet:
    """The packet the header parsers build from ``wire`` (the string path)."""
    ip = Ipv4Header.from_bytes(wire)
    body = wire[ip.ihl_bytes : ip.total_length]
    if ip.protocol == PROTO_TCP:
        transport = TcpHeader.from_bytes(body)
        payload = body[transport.data_offset_bytes() :]
    else:
        transport = UdpHeader.from_bytes(body)
        payload = body[UdpHeader.HEADER_LEN :]
    return Packet(ip=ip, transport=transport, payload=payload, timestamp=timestamp)


class TestDecodedFlowIdentity:
    @given(wire_packets())
    def test_key_hash_and_flags_match_string_path(self, case):
        wire, timestamp = case
        decoded = Packet.from_bytes(wire, timestamp=timestamp)
        eager = _eager(wire, timestamp)
        key = FlowKey.of_packet(eager)
        # Read the raw fast path before anything parses the headers.
        assert decoded.key_bytes == key.to_bytes()
        assert packet_flow_hash(decoded) == flow_hash(key)
        assert decoded.fin_or_rst == eager.fin_or_rst == (
            eager.is_tcp and bool(eager.transport.flags & (FLAG_FIN | FLAG_RST))
        )
        assert decoded.is_tcp == eager.is_tcp
        assert decoded.five_tuple == eager.five_tuple
        assert FlowKey.of_packet(decoded) == key
        assert decoded.payload == eager.payload
        assert decoded.timestamp == timestamp

    @given(wire_packets())
    def test_equality_matches_parsed_headers(self, case):
        wire, timestamp = case
        eager = _eager(wire, timestamp)
        assert Packet.from_bytes(wire, timestamp=timestamp) == eager
        assert eager == Packet.from_bytes(wire, timestamp=timestamp)
        assert Packet.from_bytes(wire, timestamp=timestamp) == Packet.from_bytes(
            wire, timestamp=timestamp
        )
        assert Packet.from_bytes(wire, timestamp=timestamp + 1.0) != eager
        decoded = Packet.from_bytes(wire, timestamp=timestamp)
        assert (decoded.ip, decoded.transport) == (eager.ip, eager.transport)
        # Parsed headers leave the identity where the wire put it.
        assert decoded.key_bytes == eager.key_bytes
        assert decoded.fin_or_rst == eager.fin_or_rst

    @given(wire_packets())
    def test_replace_payload_keeps_identity(self, case):
        wire, timestamp = case
        decoded = Packet.from_bytes(wire, timestamp=timestamp)
        flow_id = packet_flow_hash(decoded)
        cut = replace(decoded, payload=decoded.payload[:3])
        assert packet_flow_hash(cut) == flow_id
        assert cut.fin_or_rst == decoded.fin_or_rst
        assert cut.payload == bytes(decoded.payload[:3])

    @given(wire_packets(), ip_addresses, ports)
    def test_rekeying_replace_changes_flow_id(self, case, src, src_port):
        wire, timestamp = case
        decoded = Packet.from_bytes(wire, timestamp=timestamp)
        old = FlowKey.of_packet(decoded)
        rekeyed = replace(
            decoded,
            ip=replace(decoded.ip, src=src),
            transport=replace(decoded.transport, src_port=src_port),
        )
        new = FlowKey(src, src_port, old.dst, old.dst_port, old.protocol)
        assert FlowKey.of_packet(rekeyed) == new
        assert packet_flow_hash(rekeyed) == flow_hash(new)
        assert (packet_flow_hash(rekeyed) == flow_hash(old)) == (new == old)

    @given(wire_packets(), ip_addresses)
    def test_mutated_header_never_leaves_a_stale_key(self, case, dst):
        wire, timestamp = case
        decoded = Packet.from_bytes(wire, timestamp=timestamp)
        decoded.ip.dst = dst
        assert decoded.key_bytes == FlowKey.of_packet(decoded).to_bytes()
        assert decoded.five_tuple[2] == dst
        if decoded.is_tcp:
            decoded.transport.flags = FLAG_RST
            assert decoded.fin_or_rst
