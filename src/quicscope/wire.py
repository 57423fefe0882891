"""QUIC long-header wire format: parsing, encoding, and datagram classification.

Only the unencrypted long header is interpreted. Everything after the header
(packet number + protected payload) is carried as opaque bytes; short-header
packets are recognized by their form bit but never parsed further.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

MAX_CID_LENGTH = 20

FORM_BIT = 0x80
FIXED_BIT = 0x40
TYPE_MASK = 0x30

# Greased version numbers reserved to force negotiation (pattern 0x?a?a?a?a).
GREASE_MASK = 0x0F0F0F0F
GREASE_PATTERN = 0x0A0A0A0A


class WireError(ValueError):
    """Base class for long-header parse/encode failures."""


class TruncatedPacket(WireError):
    """Payload ended in the middle of a header field or declared length."""


class InvalidCidLength(WireError):
    """Declared connection-ID length exceeds 20 octets."""


class NotLongHeader(WireError):
    """First octet does not have the long-header form bit set."""


class PacketType(Enum):
    INITIAL = "initial"
    ZERO_RTT = "0rtt"
    HANDSHAKE = "handshake"
    RETRY = "retry"
    VERSION_NEGOTIATION = "version_negotiation"

    def __str__(self) -> str:
        return self.value


_TYPE_BITS = {
    0: PacketType.INITIAL,
    1: PacketType.ZERO_RTT,
    2: PacketType.HANDSHAKE,
    3: PacketType.RETRY,
}
_BITS_FOR_TYPE = {v: k for k, v in _TYPE_BITS.items()}

# Display names used in packet-type and length tables.
TYPE_LABELS = {
    PacketType.INITIAL: "Initial",
    PacketType.ZERO_RTT: "0-RTT",
    PacketType.HANDSHAKE: "Handshake",
    PacketType.RETRY: "Retry",
    PacketType.VERSION_NEGOTIATION: "VersionNegotiation",
}


class Direction(Enum):
    REQUEST = "request"
    RESPONSE = "response"
    NON_QUIC = "non_quic"


@dataclass(frozen=True)
class ConnectionId:
    """A QUIC connection identifier, 0-20 octets."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) > MAX_CID_LENGTH:
            raise InvalidCidLength(f"CID of {len(self.data)} octets exceeds {MAX_CID_LENGTH}")

    @property
    def length(self) -> int:
        return len(self.data)

    def hex(self) -> str:
        return self.data.hex()

    def __bytes__(self) -> bytes:
        return self.data

    def __len__(self) -> int:
        return len(self.data)


def encode_varint(value: int) -> bytes:
    """Shortest 2-bit-prefix variable-length integer encoding."""
    if value < 0:
        raise ValueError("varint cannot be negative")
    if value < 1 << 6:
        return bytes([value])
    if value < 1 << 14:
        return struct.pack(">H", value | 0x4000)
    if value < 1 << 30:
        return struct.pack(">I", value | 0x80000000)
    if value < 1 << 62:
        return struct.pack(">Q", value | 0xC000000000000000)
    raise ValueError(f"{value} exceeds the 62-bit varint range")


def decode_varint(buf: bytes, offset: int) -> tuple[int, int]:
    """Return (value, octets consumed) for the varint at `offset`."""
    if offset >= len(buf):
        raise TruncatedPacket("varint starts past end of buffer")
    length = 1 << (buf[offset] >> 6)
    if offset + length > len(buf):
        raise TruncatedPacket("buffer ends inside varint")
    value = buf[offset] & 0x3F
    for i in range(1, length):
        value = (value << 8) | buf[offset + i]
    return value, length


def varint_length(value: int) -> int:
    return len(encode_varint(value))


@dataclass(frozen=True)
class LongHeader:
    """A decoded QUIC long-header packet.

    `payload` carries the opaque region after the header: packet number plus
    protected payload for Initial/0-RTT/Handshake, the supported-version list
    for VersionNegotiation, and the token/tag region for Retry. `wire_length`
    is the total number of octets the packet occupies in its datagram.
    """

    packet_type: PacketType
    version: int
    dcid: ConnectionId
    scid: ConnectionId
    token: bytes = b""
    payload: bytes = b""
    first_byte: int = FORM_BIT | FIXED_BIT
    wire_length: int = 0

    @property
    def token_length(self) -> int:
        return len(self.token)

    @property
    def payload_length(self) -> Optional[int]:
        """Value of the wire Length field; absent for Retry/VersionNegotiation."""
        if self.packet_type in (PacketType.RETRY, PacketType.VERSION_NEGOTIATION):
            return None
        return len(self.payload)

    @classmethod
    def build(
        cls,
        packet_type: PacketType,
        version: int,
        dcid: ConnectionId | bytes,
        scid: ConnectionId | bytes,
        token: bytes = b"",
        payload: bytes = b"",
    ) -> "LongHeader":
        """Construct a canonical header (fixed bit set, low type bits zero)."""
        if isinstance(dcid, bytes):
            dcid = ConnectionId(dcid)
        if isinstance(scid, bytes):
            scid = ConnectionId(scid)
        if (packet_type == PacketType.VERSION_NEGOTIATION) != (version == 0):
            raise WireError("version 0 is reserved for (and required by) version negotiation")
        if token and packet_type != PacketType.INITIAL:
            raise WireError("only Initial packets carry a token")
        if packet_type == PacketType.VERSION_NEGOTIATION:
            first = FORM_BIT | FIXED_BIT
        else:
            first = FORM_BIT | FIXED_BIT | (_BITS_FOR_TYPE[packet_type] << 4)
        wire = 1 + 4 + 1 + dcid.length + 1 + scid.length
        if packet_type == PacketType.INITIAL:
            wire += varint_length(len(token)) + len(token)
        if packet_type in (PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE):
            wire += varint_length(len(payload))
        wire += len(payload)
        return cls(packet_type, version, dcid, scid, token, payload, first, wire)


def parse_long_header(payload: bytes, offset: int = 0) -> LongHeader:
    """Decode one long-header packet starting at `offset`.

    Raises NotLongHeader if the form bit is clear, InvalidCidLength for a
    declared CID length above 20, and TruncatedPacket when the buffer ends
    inside any field.
    """
    if offset >= len(payload):
        raise TruncatedPacket("offset past end of payload")
    first = payload[offset]
    if not first & FORM_BIT:
        raise NotLongHeader(f"form bit clear in first octet 0x{first:02x}")
    pos = offset + 1
    if pos + 4 > len(payload):
        raise TruncatedPacket("payload ends inside version field")
    version = struct.unpack_from(">I", payload, pos)[0]
    pos += 4

    cids = []
    for name in ("DCID", "SCID"):
        if pos >= len(payload):
            raise TruncatedPacket(f"payload ends before {name} length octet")
        cid_len = payload[pos]
        pos += 1
        if cid_len > MAX_CID_LENGTH:
            raise InvalidCidLength(f"{name} length {cid_len} exceeds {MAX_CID_LENGTH}")
        if pos + cid_len > len(payload):
            raise TruncatedPacket(f"payload ends inside {name}")
        cids.append(ConnectionId(payload[pos : pos + cid_len]))
        pos += cid_len
    dcid, scid = cids

    token = b""
    if version == 0:
        packet_type = PacketType.VERSION_NEGOTIATION
        body = payload[pos:]
        pos = len(payload)
    else:
        packet_type = _TYPE_BITS[(first & TYPE_MASK) >> 4]
        if packet_type == PacketType.INITIAL:
            token_len, consumed = decode_varint(payload, pos)
            pos += consumed
            if pos + token_len > len(payload):
                raise TruncatedPacket("payload ends inside Initial token")
            token = payload[pos : pos + token_len]
            pos += token_len
        if packet_type == PacketType.RETRY:
            body = payload[pos:]
            pos = len(payload)
        else:
            length, consumed = decode_varint(payload, pos)
            pos += consumed
            if pos + length > len(payload):
                raise TruncatedPacket("payload ends inside declared packet length")
            body = payload[pos : pos + length]
            pos += length

    return LongHeader(
        packet_type=packet_type,
        version=version,
        dcid=dcid,
        scid=scid,
        token=token,
        payload=body,
        first_byte=first,
        wire_length=pos - offset,
    )


def encode_long_header(header: LongHeader, payload: Optional[bytes] = None) -> bytes:
    """Serialize a long-header packet; inverse of parse_long_header for
    canonically built headers. `payload` overrides header.payload when given."""
    body = header.payload if payload is None else payload
    if header.dcid.length > MAX_CID_LENGTH or header.scid.length > MAX_CID_LENGTH:
        raise InvalidCidLength("CID exceeds 20 octets")
    out = bytearray()
    out.append(header.first_byte | FORM_BIT)
    out += struct.pack(">I", header.version)
    out.append(header.dcid.length)
    out += header.dcid.data
    out.append(header.scid.length)
    out += header.scid.data
    if header.packet_type == PacketType.INITIAL:
        out += encode_varint(len(header.token))
        out += header.token
    if header.packet_type in (PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE):
        out += encode_varint(len(body))
    out += body
    return bytes(out)


def split_coalesced(datagram_payload: bytes) -> list[LongHeader]:
    """Parse the sequence of coalesced long-header packets in one datagram.

    Scanning stops at the first 0x00 octet on a packet boundary (padding; a
    zero octet cannot start a valid packet) or at the first parse failure.
    Best effort: an empty list means the payload is not parseable QUIC.
    """
    packets: list[LongHeader] = []
    offset = 0
    while offset < len(datagram_payload):
        if datagram_payload[offset] == 0x00:
            break
        try:
            pkt = parse_long_header(datagram_payload, offset)
        except WireError:
            break
        packets.append(pkt)
        offset += pkt.wire_length
    return packets


@dataclass(frozen=True)
class Datagram:
    """One captured UDP datagram."""

    timestamp: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    payload: bytes

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"port {port} out of range")


def classify_direction(d: Datagram) -> Direction:
    """Source port 443 marks a server response (backscatter); destination port
    443 marks a client request (scan). When both are 443 the datagram counts
    as a response: in telescope traffic the source port identifies the
    reflecting server."""
    if d.src_port == 443:
        return Direction.RESPONSE
    if d.dst_port == 443:
        return Direction.REQUEST
    return Direction.NON_QUIC


def is_greased_version(version: int) -> bool:
    return (version & GREASE_MASK) == GREASE_PATTERN


class VersionRegistry:
    """Known QUIC version numbers and their display labels.

    Loaded from a text file with one `hex_version<TAB>label` line per entry;
    `#` starts a comment. Editing the file is the supported way to track new
    version allocations.
    """

    def __init__(self, entries: dict[int, str]):
        self._entries = dict(entries)

    @classmethod
    def load(cls, path: str | Path) -> "VersionRegistry":
        entries: dict[int, str] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            version_text, _, label = line.partition("\t")
            entries[int(version_text, 16)] = label.strip()
        return cls(entries)

    @classmethod
    def default(cls) -> "VersionRegistry":
        ref = resources.files("quicscope").joinpath("data/version_registry.tsv")
        with resources.as_file(ref) as path:
            return cls.load(path)

    def known(self, version: int) -> bool:
        return version in self._entries

    def label(self, version: int) -> Optional[str]:
        return self._entries.get(version)


@dataclass(frozen=True)
class PlausibilityConfig:
    """Controls which versions pass the payload plausibility check."""

    registry: VersionRegistry = field(default_factory=VersionRegistry.default)
    allow_greased: bool = False
    allow_unknown: bool = False


def is_plausible_quic(
    packets: Sequence[LongHeader], config: Optional[PlausibilityConfig] = None
) -> bool:
    """True iff at least one of a datagram's packets (as returned by
    split_coalesced) carries version 0 (negotiation), a registered version, or
    one permitted by config. CID bounds are enforced by the parser itself."""
    if config is None:
        config = PlausibilityConfig()
    for pkt in packets:
        if pkt.version == 0 or config.registry.known(pkt.version):
            return True
        if config.allow_greased and is_greased_version(pkt.version):
            return True
        if config.allow_unknown:
            return True
    return False
