"""IPv4 / TCP / UDP packet model with wire-format serialization.

Implements the header fields Iustitia consumes — the 5-tuple, TCP flags
(FIN/RST drive CDB purging), lengths — plus enough of the rest (checksums,
TTL, sequence numbers) that serialized packets survive a round-trip through
the pcap reader/writer and external tools would parse them.

Decoding (:meth:`Packet.from_bytes`) reads only what the per-packet fast
path needs straight off the wire: the 13-byte canonical flow key
(:func:`encode_flow_key`'s layout), the TCP flags, the payload view and
the timestamp. Header objects and dotted-quad strings are parsed on first
access.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from socket import AF_INET, inet_ntoa, inet_pton

__all__ = [
    "Ipv4Header",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "TcpHeader",
    "UdpHeader",
    "decode_flow_key",
    "encode_flow_key",
    "internet_checksum",
]

PROTO_TCP = 6
PROTO_UDP = 17

# TCP flag bits.
FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum over ``data`` (odd lengths padded)."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


#: Canonical flow-key layout: src address, src port, dst address, dst
#: port, protocol — big-endian, no padding. Its bytes are the SHA-1 input
#: of a flow ID (Section 4.5).
_FLOW_KEY = struct.Struct("!4sH4sHB")


def _address_bytes(address: str) -> bytes:
    """Strict dotted-quad parse: shorthand or zero-padded forms are rejected."""
    try:
        return inet_pton(AF_INET, address)
    except OSError:
        raise ValueError(f"invalid IPv4 address {address!r}") from None


def encode_flow_key(
    src: str, src_port: int, dst: str, dst_port: int, protocol: int
) -> bytes:
    """The canonical 13-byte flow key ``src‖sport‖dst‖dport‖proto``.

    The one owner of the encoding: the decoder packs the same layout
    straight from the wire, and :meth:`repro.net.flow.FlowKey.to_bytes`
    and every flow hash go through here. Addresses parse strictly, so a
    key built from strings and one decoded from bytes agree byte for
    byte.
    """
    try:
        return _FLOW_KEY.pack(
            inet_pton(AF_INET, src), src_port, inet_pton(AF_INET, dst),
            dst_port, protocol,
        )
    except OSError:
        raise ValueError(f"invalid address in flow key ({src!r}, {dst!r})") from None
    except struct.error as exc:
        raise ValueError(f"invalid flow key field: {exc}") from None


def decode_flow_key(key: bytes) -> tuple[str, int, str, int, int]:
    """The 5-tuple ``(src, sport, dst, dport, proto)`` of a canonical key."""
    src, src_port, dst, dst_port, protocol = _FLOW_KEY.unpack(key)
    return (inet_ntoa(src), src_port, inet_ntoa(dst), dst_port, protocol)


#: Fixed-offset IPv4 fields: version/IHL, total length, protocol, src, dst.
_IPV4_FIELDS = struct.Struct("!BxH5xB2x4s4s")
#: TCP ports, data offset and flags; UDP ports.
_TCP_FIELDS = struct.Struct("!HH8xBB")
_UDP_PORTS = struct.Struct("!HH")


def _ipv4_fields(data, offset: int) -> tuple:
    """Validated ``(ihl, total length, protocol, src, dst)`` at ``data[offset:]``.

    The single home of the IPv4 header checks, shared by
    :meth:`Ipv4Header.from_bytes` and the packet decoder.
    """
    size = len(data) - offset
    if size < 20:
        raise ValueError(f"IPv4 header needs 20 bytes, got {size}")
    version_ihl, total_length, protocol, src, dst = _IPV4_FIELDS.unpack_from(
        data, offset
    )
    if version_ihl >> 4 != 4:
        raise ValueError(f"not an IPv4 packet (version {version_ihl >> 4})")
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20:
        raise ValueError(f"invalid IPv4 IHL {ihl}")
    if size < ihl:
        raise ValueError(f"IPv4 header claims {ihl} bytes, got {size}")
    return ihl, total_length, protocol, src, dst


def _tcp_fields(data, start: int, size: int) -> tuple:
    """Validated ``(sport, dport, data offset, flags)`` of the ``size``-byte
    TCP segment at ``data[start:]`` (shared like :func:`_ipv4_fields`)."""
    if size < 20:
        raise ValueError(f"TCP header needs 20 bytes, got {size}")
    src_port, dst_port, data_offset, flags = _TCP_FIELDS.unpack_from(data, start)
    data_offset = (data_offset >> 4) * 4
    if data_offset < 20:
        raise ValueError(f"invalid TCP data offset {data_offset}")
    if size < data_offset:
        raise ValueError(f"TCP header claims {data_offset} bytes, got {size}")
    return src_port, dst_port, data_offset, flags


@dataclass
class Ipv4Header:
    """IPv4 header.

    Serialization always emits the 20-byte optionless form; parsing
    accepts headers with options (IHL > 5) and records the real header
    length in ``ihl_bytes`` so callers slice the payload correctly.
    """

    src: str
    dst: str
    protocol: int
    total_length: int = 0
    identification: int = 0
    ttl: int = 64
    ihl_bytes: int = 20

    HEADER_LEN = 20

    def to_bytes(self) -> bytes:
        """Serialize with a correct header checksum."""
        version_ihl = (4 << 4) | 5
        head = struct.pack(
            "!BBHHHBBH4s4s",
            version_ihl,
            0,
            self.total_length,
            self.identification,
            0,  # flags/fragment offset
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            _address_bytes(self.src),
            _address_bytes(self.dst),
        )
        checksum = internet_checksum(head)
        return head[:10] + struct.pack("!H", checksum) + head[12:]

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv4Header":
        """Parse the IPv4 header at the start of ``data`` (options skipped)."""
        ihl_bytes, total_length, protocol, src_raw, dst_raw = _ipv4_fields(data, 0)
        identification, ttl = struct.unpack_from("!4xH2xB", data)
        return cls(
            src=inet_ntoa(src_raw),
            dst=inet_ntoa(dst_raw),
            protocol=protocol,
            total_length=total_length,
            identification=identification,
            ttl=ttl,
            ihl_bytes=ihl_bytes,
        )


@dataclass
class TcpHeader:
    """TCP header.

    Options are preserved as raw bytes: real captures carry MSS/SACK/
    timestamp options, and the payload boundary depends on the data
    offset. Serialization pads options to a 4-byte multiple.
    """

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = FLAG_ACK
    window: int = 65535
    options: bytes = b""

    HEADER_LEN = 20
    MAX_OPTIONS = 40

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    def to_bytes(self) -> bytes:
        """Serialize (checksum left zero; Iustitia never verifies it)."""
        if len(self.options) > self.MAX_OPTIONS:
            raise ValueError(
                f"TCP options limited to {self.MAX_OPTIONS} bytes, "
                f"got {len(self.options)}"
            )
        padding = (-len(self.options)) % 4
        options = self.options + b"\x00" * padding
        data_offset = ((self.HEADER_LEN + len(options)) // 4) << 4
        return struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            data_offset,
            self.flags,
            self.window,
            0,
            0,
        ) + options

    @classmethod
    def from_bytes(cls, data: bytes) -> "TcpHeader":
        src_port, dst_port, offset_bytes, flags = _tcp_fields(data, 0, len(data))
        seq, ack, window = struct.unpack_from("!4xII2xH", data)
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            options=bytes(data[cls.HEADER_LEN : offset_bytes]),
        )

    def data_offset_bytes(self) -> int:
        """Header length in bytes, options (padded) included."""
        return self.HEADER_LEN + len(self.options) + (-len(self.options)) % 4


@dataclass
class UdpHeader:
    """UDP header."""

    src_port: int
    dst_port: int
    length: int = 8

    HEADER_LEN = 8

    def to_bytes(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, 0)

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpHeader":
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"UDP header needs 8 bytes, got {len(data)}")
        src_port, dst_port, length, _cs = struct.unpack("!HHHH", data[: cls.HEADER_LEN])
        return cls(src_port=src_port, dst_port=dst_port, length=length)


_FIN_OR_RST = FLAG_FIN | FLAG_RST


class _LazyHeader:
    """A :class:`Packet` header field parsed from the wire on first read.

    Eagerly built packets store the header they were given. Decoded
    packets store None and keep the wire buffer plus the IPv4 header's
    offset in it; the first read parses the header and caches it, so a
    header a caller mutates (or assigns) is the one every later read —
    and the packet's flow key — sees.
    """

    def __init__(self, parse) -> None:
        self._parse = parse

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, packet, owner=None):
        if packet is None:
            # No class-level value: the dataclass field has no default.
            raise AttributeError(self._slot[1:])
        value = getattr(packet, self._slot)
        if value is None:
            value = self._parse(memoryview(packet._wire)[packet._ip_at :])
            setattr(packet, self._slot, value)
        return value

    def __set__(self, packet, value) -> None:
        setattr(packet, self._slot, value)


def _parse_transport(view: memoryview) -> "TcpHeader | UdpHeader":
    """The (already validated) transport header of the IPv4 packet ``view``."""
    header = TcpHeader if view[9] == PROTO_TCP else UdpHeader
    return header.from_bytes(view[(view[0] & 0x0F) * 4 :])


@dataclass
class Packet:
    """A full IP packet: IPv4 header, TCP or UDP header, payload, timestamp.

    ``payload`` may be ``bytes`` or a ``memoryview``: the pcap ingest
    path hands out zero-copy views over the capture record, which the
    extractor fold path consumes without ever materializing intermediate
    ``bytes``. Views compare equal to equivalent ``bytes`` and serialize
    identically.

    A packet decoded by :meth:`from_bytes` carries its flow key and TCP
    flags as read off the wire (:attr:`key_bytes`, :attr:`fin_or_rst`);
    ``ip`` and ``transport`` are parsed on first access. Once either
    header has been read or assigned, the key and flags come from the
    header objects, so editing them (or ``dataclasses.replace``) never
    leaves a stale key behind.
    """

    ip: Ipv4Header = _LazyHeader(Ipv4Header.from_bytes)
    transport: "TcpHeader | UdpHeader" = _LazyHeader(_parse_transport)
    payload: "bytes | memoryview" = b""
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        expected = PROTO_TCP if isinstance(self.transport, TcpHeader) else PROTO_UDP
        if self.ip.protocol != expected:
            raise ValueError(
                f"IP protocol {self.ip.protocol} does not match transport "
                f"{type(self.transport).__name__}"
            )

    @property
    def key_bytes(self) -> bytes:
        """The canonical 13-byte flow key (see :func:`encode_flow_key`)."""
        if self._ip is None and self._transport is None:
            return self._key
        ip, transport = self.ip, self.transport
        return encode_flow_key(
            ip.src, transport.src_port, ip.dst, transport.dst_port, ip.protocol
        )

    @property
    def fin_or_rst(self) -> bool:
        """Whether this is a TCP packet carrying FIN or RST (CDB purge trigger)."""
        transport = self._transport
        if transport is None:
            return bool(self._flags & _FIN_OR_RST)
        return isinstance(transport, TcpHeader) and bool(
            transport.flags & _FIN_OR_RST
        )

    @property
    def is_tcp(self) -> bool:
        transport = self._transport
        if transport is None:
            return self._key[-1] == PROTO_TCP
        return isinstance(transport, TcpHeader)

    @property
    def five_tuple(self) -> tuple[str, int, str, int, int]:
        """(src ip, src port, dst ip, dst port, protocol)."""
        if self._ip is None and self._transport is None:
            return decode_flow_key(self._key)
        return (
            self.ip.src,
            self.transport.src_port,
            self.ip.dst,
            self.transport.dst_port,
            self.ip.protocol,
        )

    def to_bytes(self) -> bytes:
        """Serialize the whole packet (IP total length fixed up)."""
        transport_bytes = self.transport.to_bytes()
        total = Ipv4Header.HEADER_LEN + len(transport_bytes) + len(self.payload)
        header = Ipv4Header(
            src=self.ip.src,
            dst=self.ip.dst,
            protocol=self.ip.protocol,
            total_length=total,
            identification=self.ip.identification,
            ttl=self.ip.ttl,
        )
        if isinstance(self.transport, UdpHeader):
            transport_bytes = UdpHeader(
                src_port=self.transport.src_port,
                dst_port=self.transport.dst_port,
                length=UdpHeader.HEADER_LEN + len(self.payload),
            ).to_bytes()
        return header.to_bytes() + transport_bytes + bytes(self.payload)

    @classmethod
    def from_bytes(
        cls, data: "bytes | memoryview", timestamp: float = 0.0, offset: int = 0
    ) -> "Packet":
        """Parse the serialized IPv4 packet (TCP or UDP) at ``data[offset:]``.

        Validates everything the header parsers do — version, IHL bounds,
        TCP data-offset bounds, header lengths — but builds no header
        object: one ``struct`` read of the fixed-offset IPv4 fields and
        one of the ports/flags yield the flow key and flags, and the
        packet keeps a reference to ``data`` plus the header offset for
        the lazy ``ip``/``transport`` parse. IP options are skipped.

        The payload is a zero-copy ``memoryview`` slice of ``data``: no
        byte of the packet body is copied between the capture buffer and
        the extractor fold path. Callers that outlive ``data`` (or
        mutate it) should ``bytes()`` the payload themselves.
        """
        ihl, total_length, protocol, src, dst = _ipv4_fields(data, offset)
        size = len(data) - offset
        start = offset + ihl
        end = offset + min(total_length or size, size)
        body = max(end - start, 0)
        if protocol == PROTO_TCP:
            src_port, dst_port, data_offset, flags = _tcp_fields(data, start, body)
            start += data_offset
        elif protocol == PROTO_UDP:
            if body < UdpHeader.HEADER_LEN:
                raise ValueError(f"UDP header needs 8 bytes, got {body}")
            src_port, dst_port = _UDP_PORTS.unpack_from(data, start)
            flags = 0
            start += UdpHeader.HEADER_LEN
        else:
            raise ValueError(f"unsupported IP protocol {protocol}")
        packet = cls.__new__(cls)
        packet._ip = None
        packet._transport = None
        packet.payload = memoryview(data)[start:end]
        packet.timestamp = timestamp
        packet._wire = data
        packet._ip_at = offset
        packet._key = _FLOW_KEY.pack(src, src_port, dst, dst_port, protocol)
        packet._flags = flags
        return packet
