"""Telescope capture ingestion: filtering, sanitization, AS mapping, sessions.

The pipeline is ingest -> Sessionizer. ingest() is one lazy pass that
filters, sanitizes and labels each datagram and yields it as a finished,
immutable record; the Sessionizer is a fold fed one record at a time that
keeps per-session state, so a capture streams through without being held.
The analyses group records with one fold, group_traits.
Input captures are expected in timestamp order (standard for single-vantage
telescope files); ordering is not re-checked.
"""

from __future__ import annotations

import ipaddress
import struct
from bisect import bisect_right
from collections.abc import Collection
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional

# _socket holds the converter; the socket module around it adds about 8 ms
# to every stage's start-up
from _socket import inet_aton

from .wire import (
    TYPE_LABELS,
    Datagram,
    Direction,
    LongHeader,
    PacketType,
    PlausibilityConfig,
    VersionRegistry,
    classify_direction,
    is_plausible_quic,
    split_coalesced,
)

DEFAULT_IDLE_GAP = 60.0


class CaptureRecord(NamedTuple):
    """One QUIC datagram with its parsed long-header packets.

    `ingest()` builds each one once, complete, and `tables.load_datagrams`
    builds one per store row; a loaded packet keeps only its type, version
    and CIDs. `operator`/`asn` identify the server side (source of a
    response, destination of a request), None where no prefix names it.
    """

    timestamp: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    direction: Direction
    datagram_length: int
    packets: list[LongHeader]
    operator: Optional[str] = None
    asn: Optional[int] = None

    @property
    def types(self) -> tuple[str, ...]:
        """Display labels of the packet types, in datagram order."""
        return tuple([TYPE_LABELS[p.packet_type] for p in self.packets])


class IngestCounters:
    total = 0
    non_quic_port = 0
    implausible = 0
    short_header_only = 0
    emitted = 0
    requests_dropped = 0
    responses_seen = 0
    requests_seen = 0

    def removed_fraction(self) -> float:
        seen = self.emitted
        if seen == 0:
            return 0.0
        return self.requests_dropped / seen

    def as_dict(self) -> dict[str, float]:
        return {
            "total_datagrams": self.total,
            "non_quic_port": self.non_quic_port,
            "implausible_payload": self.implausible,
            "short_header_only": self.short_header_only,
            "records_emitted": self.emitted,
            "responses": self.responses_seen,
            "requests": self.requests_seen,
            "requests_dropped_by_sanitization": self.requests_dropped,
            "sanitization_removed_fraction": round(self.removed_fraction(), 6),
        }


class ScannerList:
    """Acknowledged scan-project source prefixes and exact addresses, held as
    sorted, merged (first, last) address ranges."""

    def __init__(self, networks: Iterable[ipaddress.IPv4Network] = ()):
        ranges: list[list[int]] = []
        for first, last in sorted((int(n.network_address), int(n.broadcast_address)) for n in networks):
            if ranges and first <= ranges[-1][1] + 1:
                ranges[-1][1] = max(ranges[-1][1], last)
            else:
                ranges.append([first, last])
        self._firsts = [first for first, _ in ranges]
        self._lasts = [last for _, last in ranges]

    def __contains__(self, ip: str) -> bool:
        addr = int.from_bytes(inet_aton(ip), "big")
        i = bisect_right(self._firsts, addr) - 1
        return i >= 0 and addr <= self._lasts[i]


class PrefixTable:
    """Longest-prefix-match table mapping IPv4 addresses to (ASN, operator)."""

    def __init__(self, entries: Iterable[tuple[ipaddress.IPv4Network, int, str]] = ()):
        by_length: dict[int, dict[int, tuple[int, str]]] = {}
        for network, asn, label in entries:
            by_length.setdefault(network.prefixlen, {})[int(network.network_address)] = (asn, label)
        # (netmask, network address -> entry), longest prefix first
        self._buckets = [
            ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF, by_length[length])
            for length in sorted(by_length, reverse=True)
        ]

    def lookup(self, ip: str) -> Optional[tuple[int, str]]:
        addr = int.from_bytes(inet_aton(ip), "big")
        for mask, bucket in self._buckets:
            hit = bucket.get(addr & mask)
            if hit is not None:
                return hit
        return None


def ingest(
    datagrams: Iterable[Datagram],
    config: Optional[PlausibilityConfig] = None,
    counters: Optional[IngestCounters] = None,
    scanners: Optional[ScannerList] = None,
    prefixes: Optional[PrefixTable] = None,
) -> Iterator[CaptureRecord]:
    """Yield the plausible QUIC records among `datagrams`, each built once
    with the (asn, operator) that `prefixes` gives its server-side address;
    with no config, the shipped version registry decides.

    Non-QUIC ports and implausible payloads are counted, never emitted. A
    request whose source is in `scanners` is counted as emitted and as
    dropped, and yields no record. Responses are never dropped: the
    sanitization target is client-side scan traffic, and backscatter sources
    are the measurement signal. The server side is the source of a response
    and the destination of a request.
    """
    if counters is None:
        counters = IngestCounters()
    if config is None:
        config = PlausibilityConfig(VersionRegistry.default())
    new = tuple.__new__
    non_quic, response = Direction.NON_QUIC, Direction.RESPONSE
    for d in datagrams:
        counters.total += 1
        direction = classify_direction(d)
        if direction is non_quic:
            counters.non_quic_port += 1
            continue
        packets = split_coalesced(d.payload)
        if not is_plausible_quic(packets, config):
            # short-header traffic is counted separately; it is valid QUIC
            # but carries nothing the long-header analyses consume
            if not packets and d.payload and d.payload[0] and not d.payload[0] & 0x80:
                counters.short_header_only += 1
            else:
                counters.implausible += 1
            continue
        counters.emitted += 1
        if direction is response:
            counters.responses_seen += 1
            server_ip = d.src_ip
        else:
            counters.requests_seen += 1
            if scanners is not None and d.src_ip in scanners:
                counters.requests_dropped += 1
                continue
            server_ip = d.dst_ip
        hit = None if prefixes is None else prefixes.lookup(server_ip)
        asn, operator = (None, None) if hit is None else hit
        # tuple.__new__ skips the Python-level call of CaptureRecord(...)
        yield new(
            CaptureRecord,
            (d.timestamp, d.src_ip, d.dst_ip, d.src_port, d.dst_port, direction, len(d.payload), packets, operator, asn),
        )


class SessionKey(NamedTuple):
    """Sessions group packets with the same SCID, DCID, and address pair."""

    src_ip: str
    dst_ip: str
    scid: bytes
    dcid: bytes


_PACKET_TYPES = tuple(PacketType)
_PACKET_TYPE_CODES = {t: code for code, t in enumerate(_PACKET_TYPES)}


class Timeline:
    """A session's timeline: one (offset, packet type, datagram length,
    coalesced) entry per packet, packed 14 bytes each into one buffer.

    Held as a tuple with its own float and int, an entry takes about 150
    bytes, and a session's memory grows with its datagrams; packed, the
    session's fixed fields dominate it."""

    __slots__ = ("_packed",)
    _ENTRY = struct.Struct("<dBI?")

    def __init__(self) -> None:
        self._packed = bytearray()

    def add(self, offset: float, packet_type: PacketType, datagram_length: int, coalesced: bool) -> None:
        try:
            self._packed += self._ENTRY.pack(offset, _PACKET_TYPE_CODES[packet_type], datagram_length, coalesced)
        except struct.error as exc:  # a session store row can hold any JSON value
            raise ValueError(f"timeline entry [{offset!r}, {packet_type}, {datagram_length!r}]: {exc}") from None

    def __iter__(self) -> Iterator[tuple[float, PacketType, int, bool]]:
        types = _PACKET_TYPES
        return ((o, types[c], n, b) for o, c, n, b in self._ENTRY.iter_unpack(self._packed))

    def offsets(self, packet_types: Collection[PacketType]) -> list[float]:
        """The offsets of the entries of `packet_types`, in timeline order,
        read without building an entry each."""
        codes = {_PACKET_TYPE_CODES[t] for t in packet_types}
        return [offset for offset, code, _, _ in self._ENTRY.iter_unpack(self._packed) if code in codes]


class Session(NamedTuple):
    """Ordered per-key packet timeline, offsets relative to the first packet."""

    key: SessionKey
    timeline: Timeline
    direction: Direction = Direction.RESPONSE
    version: int = 0
    operator: Optional[str] = None
    asn: Optional[int] = None
    start_ts: float = 0.0


class Traits(NamedTuple):
    """What the analyses read of one group of records: the datagrams per
    shape, a shape being the (packet-type labels, datagram length) pair,
    and the SCIDs of the group's responses."""

    shapes: dict[tuple[tuple[str, ...], int], int]
    scids: set[bytes]

    def type_counts(self) -> dict[str, int]:
        """Datagrams per packet-type combination over all lengths; a
        coalesced combination such as `Initial & Handshake` is its own
        category."""
        counts: dict[str, int] = {}
        for (types, _), n in self.shapes.items():
            category = " & ".join(types)
            counts[category] = counts.get(category, 0) + n
        return counts

    def top_shapes(self, k: int) -> list[tuple[tuple[str, ...], int, int]]:
        """The k most common (types, length, datagrams), ties by shape."""
        ranked = sorted(self.shapes.items(), key=lambda item: (-item[1], item[0]))
        return [(types, length, n) for (types, length), n in ranked[:k]]

    @property
    def coalescence(self) -> bool:
        """True iff some datagram carries two or more packets."""
        return any(len(types) > 1 for types, _ in self.shapes)


def group_traits(
    records: Iterable[CaptureRecord], key: Callable[[CaptureRecord], Hashable], shapes: bool = True
) -> dict[Hashable, Traits]:
    """Fold records into the Traits of each key(record), in one pass.
    `shapes=False` leaves every shape count empty, for callers that read
    only SCIDs."""
    groups: dict[Hashable, Traits] = {}
    response = Direction.RESPONSE
    for record in records:
        k = key(record)
        traits = groups.get(k)
        if traits is None:
            traits = groups[k] = Traits({}, set())
        if shapes:
            shape = (record.types, record.datagram_length)
            traits.shapes[shape] = traits.shapes.get(shape, 0) + 1
        if record.direction is response:
            traits.scids.update([p.scid for p in record.packets])
    return groups


class Sessionizer:
    """The session rule as a fold: add() timestamp-ordered records one at a
    time, then read sessions().

    Every long-header packet lands in exactly one session; a coalesced
    datagram contributes one timeline entry per inner packet at the same
    offset. A gap of `idle_gap` seconds or more closes the session and a
    later packet under the same key opens a new one. Records may come live
    from ingest() or loaded from a datagram store. The fold keeps the
    sessions, not the records.
    """

    def __init__(self, idle_gap: float = DEFAULT_IDLE_GAP):
        # a gap of 0, below it or NaN makes every packet a session of its own
        if not 0 < idle_gap < float("inf"):
            raise ValueError(f"idle gap must be positive and finite, got {idle_gap}")
        self.idle_gap = idle_gap
        self._finished: list[Session] = []
        self._open: dict[SessionKey, tuple[Session, float]] = {}

    def add(self, record: CaptureRecord) -> CaptureRecord:
        """Fold one record in; returns it, so the fold can sit in a stream
        that another consumer drains, as in `map(sessionizer.add, records)`."""
        ts = record.timestamp
        length = record.datagram_length
        coalesced = len(record.packets) > 1
        open_sessions = self._open
        src_ip, dst_ip = record.src_ip, record.dst_ip
        for packet in record.packets:
            # tuple.__new__ skips the Python-level calls of SessionKey(...) and Session(...)
            key = tuple.__new__(SessionKey, (src_ip, dst_ip, packet.scid, packet.dcid))
            entry = open_sessions.get(key)
            if entry is not None and ts - entry[1] < self.idle_gap:
                session = entry[0]
            else:
                if entry is not None:
                    self._finished.append(entry[0])
                session = tuple.__new__(
                    Session, (key, Timeline(), record.direction, packet.version, record.operator, record.asn, ts)
                )
            session.timeline.add(ts - session.start_ts, packet.packet_type, length, coalesced)
            open_sessions[key] = (session, ts)
        return record

    def sessions(self) -> list[Session]:
        """Every session folded so far, ordered by (start_ts, key)."""
        sessions = self._finished + [session for session, _ in self._open.values()]
        sessions.sort(key=lambda s: (s.start_ts, s.key))
        return sessions
