"""QUIC long-header wire format: parsing, encoding, and datagram classification.

Only the unencrypted long header is interpreted. Everything after the header
(packet number + protected payload) is carried as opaque bytes; short-header
packets are recognized by their form bit but never parsed further.
"""

from __future__ import annotations

import struct
from enum import Enum
from importlib import resources
from typing import NamedTuple, Optional, Sequence

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

    # Members compare by identity, so they may hash by it too: Enum's own
    # __hash__ runs in Python on every lookup of a member-keyed table. No
    # output iterates a set of members, whose order this would change.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# long-header type bits (first octet, bits 4-5) -> type
_TYPE_BITS = (PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE, PacketType.RETRY)
# canonical first octet per type: form and fixed bits set, low bits zero
_FIRST_BYTE = {t: FORM_BIT | FIXED_BIT | (bits << 4) for bits, t in enumerate(_TYPE_BITS)}
_FIRST_BYTE[PacketType.VERSION_NEGOTIATION] = FORM_BIT | FIXED_BIT
# the members the codec tests on every packet: reading an Enum member as a
# class attribute goes through the metaclass and costs about 0.1 us
_INITIAL, _RETRY, _VERSION_NEGOTIATION = PacketType.INITIAL, PacketType.RETRY, PacketType.VERSION_NEGOTIATION

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


# classify_direction returns one per datagram
_REQUEST, _RESPONSE, _NON_QUIC = Direction.REQUEST, Direction.RESPONSE, Direction.NON_QUIC


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
    first = buf[offset]
    if first < 0x40:
        return first, 1
    length = 1 << (first >> 6)
    if offset + length > len(buf):
        raise TruncatedPacket("buffer ends inside varint")
    value = first & 0x3F
    for i in range(1, length):
        value = (value << 8) | buf[offset + i]
    return value, length


class LongHeader(NamedTuple):
    """A decoded QUIC long-header packet; its CIDs are plain bytes.

    `payload` carries the opaque region after the header: packet number plus
    protected payload for Initial/0-RTT/Handshake, the supported-version list
    for VersionNegotiation, and the token/tag region for Retry. `wire_length`
    is the total number of octets the packet occupies in its datagram.
    """

    packet_type: PacketType
    version: int
    dcid: bytes
    scid: bytes
    token: bytes = b""
    payload: bytes = b""
    first_byte: int = FORM_BIT | FIXED_BIT
    wire_length: int = 0


# the first octet, the version and the DCID length, in one read
_PREFIX = struct.Struct(">BIB").unpack_from
_HEAD = struct.Struct(">BIB").pack
_U16 = struct.Struct(">H").pack
# each octet value as a one-octet bytes object
_OCTETS = tuple(bytes((n,)) for n in range(256))
# LongHeader's own __new__ is a Python function; its fields are checked here
_new_header = tuple.__new__


def parse_long_header(payload: bytes, offset: int = 0) -> LongHeader:
    """Decode one long-header packet starting at `offset`.

    Raises NotLongHeader if the form bit is clear, InvalidCidLength for a
    declared CID length above 20, and TruncatedPacket when the buffer ends
    inside any field. The varints a handshake carries (a 1-octet token
    length, a 1- or 2-octet Length) are read in place.
    """
    end = len(payload)
    if offset + 6 > end:
        # too short for the fixed prefix: name the field it ends in
        if offset >= end:
            raise TruncatedPacket("offset past end of payload")
        if not payload[offset] & FORM_BIT:
            raise NotLongHeader(f"form bit clear in first octet 0x{payload[offset]:02x}")
        if offset + 5 > end:
            raise TruncatedPacket("payload ends inside version field")
        raise TruncatedPacket("payload ends before DCID length octet")
    first, version, cid_len = _PREFIX(payload, offset)
    if not first & FORM_BIT:
        raise NotLongHeader(f"form bit clear in first octet 0x{first:02x}")
    if cid_len > MAX_CID_LENGTH:
        raise InvalidCidLength(f"DCID length {cid_len} exceeds {MAX_CID_LENGTH}")
    pos = offset + 6 + cid_len
    if pos > end:
        raise TruncatedPacket("payload ends inside DCID")
    dcid = payload[offset + 6 : pos]
    if pos >= end:
        raise TruncatedPacket("payload ends before SCID length octet")
    cid_len = payload[pos]
    if cid_len > MAX_CID_LENGTH:
        raise InvalidCidLength(f"SCID length {cid_len} exceeds {MAX_CID_LENGTH}")
    pos += 1
    if pos + cid_len > end:
        raise TruncatedPacket("payload ends inside SCID")
    scid = payload[pos : pos + cid_len]
    pos += cid_len

    # Version Negotiation and Retry run to the end of the datagram
    if version == 0:
        return _new_header(LongHeader, (_VERSION_NEGOTIATION, 0, dcid, scid, b"", payload[pos:], first, end - offset))
    packet_type = _TYPE_BITS[(first & TYPE_MASK) >> 4]
    if packet_type is _RETRY:
        return _new_header(LongHeader, (packet_type, version, dcid, scid, b"", payload[pos:], first, end - offset))
    token = b""
    if packet_type is _INITIAL:
        if pos < end and payload[pos] < 0x40:
            token_len = payload[pos]
            pos += 1
        else:
            token_len, consumed = decode_varint(payload, pos)
            pos += consumed
        if token_len:
            if pos + token_len > end:
                raise TruncatedPacket("payload ends inside Initial token")
            token = payload[pos : pos + token_len]
            pos += token_len
    if pos + 1 < end and payload[pos] >> 6 == 1:
        length = (payload[pos] & 0x3F) << 8 | payload[pos + 1]
        pos += 2
    elif pos < end and payload[pos] < 0x40:
        length = payload[pos]
        pos += 1
    else:
        length, consumed = decode_varint(payload, pos)
        pos += consumed
    if pos + length > end:
        raise TruncatedPacket("payload ends inside declared packet length")
    return _new_header(
        LongHeader, (packet_type, version, dcid, scid, token, payload[pos : pos + length], first, pos + length - offset)
    )


def check_cid_lengths(dcid: bytes, scid: bytes) -> None:
    """Raise InvalidCidLength when either CID is longer than 20 octets."""
    if len(dcid) > MAX_CID_LENGTH or len(scid) > MAX_CID_LENGTH:
        raise InvalidCidLength(f"CID of {max(len(dcid), len(scid))} octets exceeds {MAX_CID_LENGTH}")


def encode_long_header(
    packet_type: PacketType,
    version: int,
    dcid: bytes,
    scid: bytes,
    payload: bytes = b"",
    token: bytes = b"",
    first_byte: Optional[int] = None,
) -> bytes:
    """Serialize one long-header packet; the inverse of parse_long_header.

    Without `first_byte` the header is canonical: fixed bit set, low type
    bits zero. Pass a parsed header's first_byte to keep its reserved and
    packet-number-length bits. Raises InvalidCidLength for a CID above 20
    octets, and WireError when the version is 0 on anything but Version
    Negotiation (or not 0 on it), or when a packet other than Initial
    carries a token.
    """
    dcid_length, scid_length = len(dcid), len(scid)
    if dcid_length > MAX_CID_LENGTH or scid_length > MAX_CID_LENGTH:
        check_cid_lengths(dcid, scid)  # raises, naming the longer CID
    if (packet_type is _VERSION_NEGOTIATION) != (version == 0):
        raise WireError("version 0 is reserved for (and required by) version negotiation")
    if token and packet_type is not _INITIAL:
        raise WireError("only Initial packets carry a token")
    if first_byte is None:
        first_byte = _FIRST_BYTE[packet_type]
    head = _HEAD(first_byte | FORM_BIT, version, dcid_length)
    if packet_type is _RETRY or packet_type is _VERSION_NEGOTIATION:
        return b"".join((head, dcid, _OCTETS[scid_length], scid, payload))
    # the Length varint, its 1- and 2-octet forms built in place
    n = len(payload)
    length = _OCTETS[n] if n < 0x40 else _U16(n | 0x4000) if n < 0x4000 else encode_varint(n)
    if packet_type is _INITIAL:
        token_length = encode_varint(len(token)) if token else b"\x00"
        return b"".join((head, dcid, _OCTETS[scid_length], scid, token_length, token, length, payload))
    return b"".join((head, dcid, _OCTETS[scid_length], scid, length, payload))


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


class _DatagramFields(NamedTuple):
    timestamp: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    payload: bytes


class Datagram(_DatagramFields):
    """One captured UDP datagram: an immutable tuple whose ports are checked."""

    __slots__ = ()

    def __new__(cls, timestamp: float, src_ip: str, dst_ip: str, src_port: int, dst_port: int, payload: bytes):
        if not 0 <= src_port <= 65535:
            raise ValueError(f"port {src_port} out of range")
        if not 0 <= dst_port <= 65535:
            raise ValueError(f"port {dst_port} out of range")
        return tuple.__new__(cls, (timestamp, src_ip, dst_ip, src_port, dst_port, payload))


def classify_direction(d: Datagram) -> Direction:
    """Source port 443 marks a server response (backscatter); destination port
    443 marks a client request (scan). When both are 443 the datagram counts
    as a response: in telescope traffic the source port identifies the
    reflecting server."""
    if d.src_port == 443:
        return _RESPONSE
    if d.dst_port == 443:
        return _REQUEST
    return _NON_QUIC


def is_greased_version(version: int) -> bool:
    return (version & GREASE_MASK) == GREASE_PATTERN


def registry_entry(line: str) -> Optional[tuple[int, str]]:
    """(version, label) from one `hex_version<TAB>label` registry line; None
    for a blank line or a `#` comment."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    version_text, _, label = line.partition("\t")
    return int(version_text, 16), label.strip()


class VersionRegistry:
    """Known QUIC version numbers and their display labels.

    Read from a text file with one `hex_version<TAB>label` line per entry
    (see registry_entry; `tables.load_version_registry` reads a user's file).
    Editing the file is the supported way to track new version allocations.
    """

    def __init__(self, entries: dict[int, str]):
        self._entries = dict(entries)

    @classmethod
    def default(cls) -> "VersionRegistry":
        text = resources.files("quicscope").joinpath("data/version_registry.tsv").read_text()
        return cls(dict(filter(None, map(registry_entry, text.splitlines()))))

    def known(self, version: int) -> bool:
        return version in self._entries

    def label(self, version: int) -> Optional[str]:
        return self._entries.get(version)


class PlausibilityConfig(NamedTuple):
    """Controls which versions pass the payload plausibility check."""

    registry: VersionRegistry
    allow_greased: bool = False
    allow_unknown: bool = False


def is_plausible_quic(packets: Sequence[LongHeader], config: PlausibilityConfig) -> bool:
    """True iff at least one of a datagram's packets (as returned by
    split_coalesced) carries version 0 (negotiation), a registered version, or
    one permitted by config. CID bounds are enforced by the parser itself."""
    for pkt in packets:
        if pkt.version == 0 or config.registry.known(pkt.version):
            return True
        if config.allow_greased and is_greased_version(pkt.version):
            return True
        if config.allow_unknown:
            return True
    return False
