"""Telescope capture ingestion: filtering, sanitization, operator labels,
and the folds the analyses read.

fold_capture() is one pass over a capture's IP datagrams that decodes,
filters, sanitizes and labels each one and folds it in at once, so a
capture streams through without being held: each (direction, source
address, operator) key keeps its datagrams per shape and its response
SCIDs, and each session the offsets of its resend rounds. What they keep is
all the analyses read: the datagram store holds one KeyRow per key, with
the key's sessions, and the analyses sum its rows under their own keys with
sum_traits; no analysis reads a datagram.
Input captures are expected in timestamp order (standard for single-vantage
telescope files); ordering is not re-checked.
"""

from __future__ import annotations

import ipaddress
import struct
from array import array
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, NamedTuple, Optional, Sequence

# _socket holds the converter; the socket module around it adds about 8 ms
# to every stage's start-up
from _socket import inet_ntoa

from . import InputError
from .wire import (
    TYPE_LABELS,
    Direction,
    PacketType,
    PlausibilityConfig,
    VersionRegistry,
    classify_direction,
    is_plausible_quic,
    split_coalesced,
)

# pcap is imported where fold_capture() counts into a CaptureCounters of its own,
# so the stages that read only stores do not load it
if TYPE_CHECKING:
    from .pcap import CaptureCounters

DEFAULT_IDLE_GAP = 60.0


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

    def __contains__(self, addr: int) -> bool:
        """Whether the IPv4 address `addr`, as an integer, is listed."""
        i = bisect_right(self._firsts, addr) - 1
        return i >= 0 and addr <= self._lasts[i]


class PrefixTable:
    """Longest-prefix-match table mapping IPv4 addresses to operators."""

    def __init__(self, entries: Iterable[tuple[ipaddress.IPv4Network, str]] = ()):
        by_length: dict[int, dict[int, str]] = {}
        for network, label in entries:
            by_length.setdefault(network.prefixlen, {})[int(network.network_address)] = label
        # (netmask, network address -> operator), longest prefix first
        self._buckets = [
            ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF, by_length[length])
            for length in sorted(by_length, reverse=True)
        ]

    def lookup(self, addr: int) -> Optional[str]:
        """The operator of the longest prefix holding the IPv4 address
        `addr`, as an integer; None where no prefix holds it."""
        for mask, bucket in self._buckets:
            label = bucket.get(addr & mask)
            if label is not None:
                return label
        return None


# The IPv4 and UDP header fields ingest reads, from a header without
# options: version and IHL, flags and fragment offset, protocol, the two
# addresses, and the UDP ports and length.
_IPV4_UDP = struct.Struct(">B5xHxB2x4s4sHHH").unpack_from
# the UDP header read in place of one the datagram cuts short: its length,
# 0, is below the 8 octets of any UDP datagram
_NO_UDP_HEADER = bytes(8)
# server addresses whose prefix hit ingest keeps at a time
_PREFIX_HITS = 1 << 16


# the packet types whose offsets a session keeps: its resend rounds
_ROUND_TYPES = frozenset((PacketType.INITIAL, PacketType.HANDSHAKE))


class Session(NamedTuple):
    """What the analyses read of one session: its source address, operator,
    direction and version, and, in arrival order, the offsets of its Initial
    and Handshake packets from its first packet."""

    src_ip: str
    operator: Optional[str]
    direction: Direction
    version: int
    offsets: Sequence[float]


class Traits(NamedTuple):
    """What the analyses read of one group of datagrams: the datagrams per
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


class KeyRow(NamedTuple):
    """One row of the datagram store: the traits of the datagrams under one
    (direction, source address, operator) key, and its sessions, which all
    share the key. fold_capture's rows hold each Session; a row read back
    holds what its reader keeps of each one's offsets
    (tables.read_key_rows)."""

    direction: Direction
    src_ip: str
    operator: Optional[str]
    traits: Traits
    sessions: list


def sum_traits(rows: Iterable[KeyRow], key: Callable[[KeyRow], Hashable]) -> dict[Hashable, Traits]:
    """The Traits of each key(row), summed over the store rows under it."""
    groups: dict[Hashable, Traits] = {}
    for row in rows:
        k = key(row)
        traits = groups.get(k)
        if traits is None:
            traits = groups[k] = Traits({}, set())
        for shape, n in row.traits.shapes.items():
            traits.shapes[shape] = traits.shapes.get(shape, 0) + n
        traits.scids.update(row.traits.scids)
    return groups


def fold_capture(
    datagrams: Iterable[tuple[float, bytes]],
    config: Optional[PlausibilityConfig] = None,
    counters: Optional[IngestCounters] = None,
    scanners: Optional[ScannerList] = None,
    prefixes: Optional[PrefixTable] = None,
    capture: Optional[CaptureCounters] = None,
    idle_gap: float = DEFAULT_IDLE_GAP,
) -> tuple[list[KeyRow], list[Session]]:
    """Fold the plausible QUIC datagrams among the (timestamp, IPv4 datagram)
    pairs of `datagrams`, as PcapReader.datagrams yields them, into what the
    stores hold: one KeyRow per (direction, source address, operator) key
    in the order it was first seen, and every Session in the order it
    opened. The operator is what `prefixes` gives the server-side address;
    with no config, the shipped version registry decides.

    An IP datagram that is not IPv4, a fragment after the first, not UDP, or
    too short for its headers is counted in `capture` and skipped. Non-QUIC
    ports and implausible payloads are counted, never folded. A request
    whose source is in `scanners` is counted as emitted and as dropped, and
    is not folded. Responses are never dropped: the sanitization target is
    client-side scan traffic, and backscatter sources are the measurement
    signal. The server side is the source of a response and the destination
    of a request.

    A session groups the long-header packets of one direction with the same
    address pair, SCID and DCID. Every packet lands in exactly one session,
    and the packets of a coalesced datagram share its offset. A gap of
    `idle_gap` seconds or more closes the session, and a later packet under
    the same key opens a new one. A session keeps its offsets packed, 8
    bytes each, and no datagram is kept.
    """
    # a gap of 0, below it or NaN makes every packet a session of its own
    if not 0 < idle_gap < float("inf"):
        raise InputError(f"idle gap must be positive and finite, got {idle_gap}")
    if counters is None:
        counters = IngestCounters()
    if capture is None:
        from .pcap import CaptureCounters

        capture = CaptureCounters()
    if config is None:
        config = PlausibilityConfig(VersionRegistry.default())
    new = tuple.__new__
    non_quic, response = Direction.NON_QUIC, Direction.RESPONSE
    labels, round_types = TYPE_LABELS, _ROUND_TYPES
    operators: dict[bytes, Optional[str]] = {}
    rows: dict[tuple[Direction, bytes, Optional[str]], KeyRow] = {}
    sessions: list[Session] = []
    # per (direction, source, destination, SCID, DCID) of an open session:
    # [its offsets, its start, its last packet's time]
    open_sessions: dict[tuple[Direction, bytes, bytes, bytes, bytes], list] = {}
    for timestamp, packet in datagrams:
        if len(packet) < 20 or packet[0] >> 4 != 4:
            capture.non_ipv4 += 1
            continue
        ihl = (packet[0] & 0x0F) * 4
        if ihl != 20:
            if ihl < 20 or len(packet) < ihl:
                capture.malformed += 1
                continue
            packet = packet[:20] + packet[ihl:]  # the options are not read
        _, flags_frag, protocol, src, dst, src_port, dst_port, udp_len = _IPV4_UDP(
            packet if len(packet) >= 28 else packet[:20] + _NO_UDP_HEADER
        )
        if flags_frag & 0x1FFF:
            capture.fragmented += 1
            continue
        if protocol != 17:
            capture.non_udp += 1
            continue
        if udp_len < 8:
            capture.malformed += 1
            continue
        capture.datagrams += 1
        counters.total += 1
        direction = classify_direction(src_port, dst_port)
        if direction is non_quic:
            counters.non_quic_port += 1
            continue
        payload = packet[28 : 20 + udp_len]
        packets = split_coalesced(payload)
        if not is_plausible_quic(packets, config):
            # short-header traffic is counted separately; it is valid QUIC
            # but carries nothing the long-header analyses consume
            if not packets and payload and payload[0] and not payload[0] & 0x80:
                counters.short_header_only += 1
            else:
                counters.implausible += 1
            continue
        counters.emitted += 1
        if direction is response:
            counters.responses_seen += 1
            server = src
        else:
            counters.requests_seen += 1
            if scanners is not None and int.from_bytes(src, "big") in scanners:
                counters.requests_dropped += 1
                continue
            server = dst
        try:
            operator = operators[server]
        except KeyError:
            if len(operators) >= _PREFIX_HITS:
                operators.clear()
            address = int.from_bytes(server, "big")
            operator = operators[server] = None if prefixes is None else prefixes.lookup(address)
        row = rows.get((direction, src, operator))
        if row is None:
            # tuple.__new__ skips the Python-level calls of KeyRow(...) and Session(...)
            row = rows[direction, src, operator] = new(
                KeyRow, (direction, inet_ntoa(src), operator, Traits({}, set()), [])
            )
        shapes = row.traits.shapes
        shape = (tuple([labels[p.packet_type] for p in packets]), len(payload))
        shapes[shape] = shapes.get(shape, 0) + 1
        if direction is response:
            row.traits.scids.update([p.scid for p in packets])
        for p in packets:
            key = (direction, src, dst, p.scid, p.dcid)
            state = open_sessions.get(key)
            if state is None or not timestamp - state[2] < idle_gap:
                offsets = array("d")
                session = new(Session, (row.src_ip, operator, direction, p.version, offsets))
                sessions.append(session)
                row.sessions.append(session)
                state = open_sessions[key] = [offsets, timestamp, timestamp]
            if p.packet_type in round_types:
                state[0].append(timestamp - state[1])
            state[2] = timestamp
    return list(rows.values()), sessions
