"""Shared builders for synthetic datagrams and captures, the reference
builder and decoder of a capture's datagrams, the reference record stream
and folds that ingest.fold_capture must equal, and the reference
sessionizer and store writers of the per-datagram stores that ingest wrote
before it wrote its folds; and the reference Facebook SCID packer that
scid.facebook_scid_packer must equal."""

import ipaddress
import json
import os
import socket
import struct
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

import pytest

from quicscope import tables
from quicscope.ingest import (
    DEFAULT_IDLE_GAP, IngestCounters, KeyRow, PrefixTable, Session, Traits, fold_capture,
)
from quicscope.pcap import CaptureCounters, PcapReader, PcapWriter, _ip_checksum
from quicscope.probe import HostIdHarvest
from quicscope.scid import _FB_CODECS, FACEBOOK_SCID_OCTETS, FacebookScidFields, FieldOverflow
from quicscope.sim import DeploymentConfig, DeploymentSimulator, SessionTruth, client_initial_payload
from quicscope.wire import (
    TYPE_LABELS, Direction, LongHeader, PacketType, PlausibilityConfig, VersionRegistry, classify_direction,
    encode_long_header, is_plausible_quic, split_coalesced,
)


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` with this checkout's src on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=60, **kwargs
    )


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


def build_ipv4_udp(d: Datagram) -> bytes:
    """The reference builder: a Datagram as an IPv4+UDP packet, its whole
    payload written (deterministic fields). pcap.build_ipv4_udp builds the
    same packet from the fields and leaves its zero padding to the writer."""
    src = socket.inet_aton(d.src_ip)
    dst = socket.inet_aton(d.dst_ip)
    udp_len = 8 + len(d.payload)
    total_len = 20 + udp_len
    header = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0, 64, 17, 0, src, dst)
    header = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0, 64, 17, _ip_checksum(header), src, dst)
    pseudo = struct.pack(">4s4sBBH", src, dst, 0, 17, udp_len)
    # a computed 0 is sent as 0xFFFF; 0 means no checksum
    checksum = _ip_checksum(pseudo + struct.pack(">HHHH", d.src_port, d.dst_port, udp_len, 0) + d.payload) or 0xFFFF
    return header + struct.pack(">HHHH", d.src_port, d.dst_port, udp_len, checksum) + d.payload


def write_pcap(path: Path, datagrams) -> int:
    """Write all datagrams to `path` through the reference builder; returns the record count."""
    with Path(path).open("wb") as fh:
        writer = PcapWriter(fh)
        for d in datagrams:
            writer.write(d.timestamp, build_ipv4_udp(d))
    return writer.records


def parse_ipv4_udp(packet: bytes, timestamp: float, counters: CaptureCounters) -> Optional[Datagram]:
    """The reference decoder of one IP datagram: a Datagram, or None (and
    counts why) for anything that is not a complete first-fragment UDP
    packet. ingest.fold_capture decodes the same fields its own way."""
    if len(packet) < 20 or packet[0] >> 4 != 4:
        counters.non_ipv4 += 1
        return None
    ihl = (packet[0] & 0x0F) * 4
    if ihl < 20 or len(packet) < ihl:
        counters.malformed += 1
        return None
    flags_frag = struct.unpack_from(">H", packet, 6)[0]
    if flags_frag & 0x1FFF:
        counters.fragmented += 1
        return None
    if packet[9] != 17:
        counters.non_udp += 1
        return None
    if len(packet) < ihl + 8:
        counters.malformed += 1
        return None
    src_port, dst_port, udp_len = struct.unpack_from(">HHH", packet, ihl)
    if udp_len < 8:
        counters.malformed += 1
        return None
    counters.datagrams += 1
    payload = packet[ihl + 8 : ihl + udp_len]
    src_ip, dst_ip = socket.inet_ntoa(packet[12:16]), socket.inet_ntoa(packet[16:20])
    return Datagram(timestamp, src_ip, dst_ip, src_port, dst_port, payload)


def read_datagrams(path: Path, counters: Optional[CaptureCounters] = None) -> list[Datagram]:
    """The UDP datagrams of the capture at `path`, decoded by the reference
    decoder; the reader and the decoder count into `counters`, if given."""
    reader = PcapReader(path)
    if counters is not None:
        reader.counters = counters
    decoded = (parse_ipv4_udp(packet, timestamp, reader.counters) for timestamp, packet in reader.datagrams())
    return [d for d in decoded if d is not None]


def packets_of(datagrams) -> list[tuple[float, bytes]]:
    """Each datagram as the (timestamp, IPv4 datagram) pair ingest reads."""
    return [(d.timestamp, build_ipv4_udp(d)) for d in datagrams]


def simulate_to_pcap(config: DeploymentConfig, path: Path) -> tuple[list[SessionTruth], list[Datagram]]:
    """Run `config`'s flood with its capture streamed to the pcap at `path`;
    returns the truth rows and the capture's datagrams read back."""
    truth = []
    with Path(path).open("wb") as fh:
        DeploymentSimulator(config, PcapWriter(fh), truth).run_flood()
    return truth, read_datagrams(path)


def written_datagrams(buffer, path: Path) -> list[Datagram]:
    """The datagrams a PcapWriter wrote to the BytesIO `buffer`, read back
    through a file at `path`."""
    path.write_bytes(buffer.getvalue())
    return read_datagrams(path)


class CaptureRecord(NamedTuple):
    """One QUIC datagram with its parsed long-header packets, as ingest
    yielded it before it folded each datagram as it decoded it.
    `operator`/`asn` identify the server side (source of a response,
    destination of a request), None where no prefix names it."""

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


def prefix_rows(path: Path) -> list[tuple[ipaddress.IPv4Network, int, str]]:
    """The (prefix, ASN, operator) rows of a prefix table file, ASN
    included, which tables.load_prefix_table does not keep."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            prefix, asn, label = line.strip().split("\t")
            rows.append((ipaddress.IPv4Network(prefix), int(asn), label))
    return rows


def reference_lookup(rows, address: str) -> tuple[Optional[int], Optional[str]]:
    """The (ASN, operator) of the longest prefix among the (prefix, ASN,
    operator) `rows` that holds the dotted `address`, a later row winning
    for the same prefix; (None, None) where none holds it. The oracle of
    PrefixTable.lookup, which keeps only the operator."""
    ip = ipaddress.IPv4Address(address)
    best = None
    for network, asn, label in rows:
        if ip in network and (best is None or network.prefixlen >= best[0]):
            best = network.prefixlen, asn, label
    return (None, None) if best is None else best[1:]


def reference_ingest(
    datagrams, config=None, counters: Optional[IngestCounters] = None, scanners=None, prefixes=()
) -> Iterator[CaptureRecord]:
    """The records of decoded Datagrams as ingest yielded them, parsed with
    split_coalesced: the oracle of the decoding, filtering, sanitization
    and labels of fold_capture, each server address labelled by
    reference_lookup over the (prefix, ASN, operator) rows `prefixes`."""
    config = config or PlausibilityConfig(VersionRegistry.default())
    counters = counters or IngestCounters()
    for d in datagrams:
        counters.total += 1
        direction = classify_direction(d.src_port, d.dst_port)
        if direction is Direction.NON_QUIC:
            counters.non_quic_port += 1
            continue
        packets = split_coalesced(d.payload)
        if not is_plausible_quic(packets, config):
            if not packets and d.payload and d.payload[0] and not d.payload[0] & 0x80:
                counters.short_header_only += 1
            else:
                counters.implausible += 1
            continue
        counters.emitted += 1
        if direction is Direction.RESPONSE:
            counters.responses_seen += 1
            server_ip = d.src_ip
        else:
            counters.requests_seen += 1
            if scanners is not None and int.from_bytes(socket.inet_aton(d.src_ip), "big") in scanners:
                counters.requests_dropped += 1
                continue
            server_ip = d.dst_ip
        asn, operator = reference_lookup(prefixes, server_ip)
        yield CaptureRecord(
            d.timestamp, d.src_ip, d.dst_ip, d.src_port, d.dst_port, direction, len(d.payload), packets, operator, asn
        )


def group_traits(records, key) -> dict:
    """The reference fold of records into the Traits of each key(record)."""
    groups = {}
    for record in records:
        traits = groups.setdefault(key(record), Traits({}, set()))
        shape = (record.types, record.datagram_length)
        traits.shapes[shape] = traits.shapes.get(shape, 0) + 1
        if record.direction is Direction.RESPONSE:
            traits.scids.update([p.scid for p in record.packets])
    return groups


def store_key(record):
    """The key of a record's or a session's row in the datagram store."""
    return record.direction, record.src_ip, record.operator


def reference_folds(records, idle_gap: float = DEFAULT_IDLE_GAP) -> tuple[list[KeyRow], list[Session]]:
    """ingest's two folds as they were over timestamp-ordered `records`, the
    oracle of fold_capture: the sessionizer's sessions in the order they
    opened, each keyed by direction, address pair, SCID and DCID and closed
    by a gap of `idle_gap` or more, and group_traits' traits of each
    store_key in first-seen order, each a KeyRow holding the sessions of
    its key, as the store writer regrouped them."""
    sessions, open_sessions = [], {}

    def sessionize(record):
        for p in record.packets:
            key = (record.direction, record.src_ip, record.dst_ip, p.scid, p.dcid)
            state = open_sessions.get(key)
            if state is None or not record.timestamp - state[2] < idle_gap:
                offsets = array("d")
                sessions.append(Session(record.src_ip, record.operator, record.direction, p.version, offsets))
                state = open_sessions[key] = [offsets, record.timestamp, record.timestamp]
            if p.packet_type in (PacketType.INITIAL, PacketType.HANDSHAKE):
                state[0].append(record.timestamp - state[1])
            state[2] = record.timestamp
        return record

    traits = group_traits(map(sessionize, records), store_key)
    by_key = {}
    for s in sessions:
        by_key.setdefault(store_key(s), []).append(s)
    return [KeyRow(*key, t, by_key.get(key, [])) for key, t in traits.items()], sessions


def fold(datagrams, **options) -> tuple[list[KeyRow], list[Session]]:
    """fold_capture's rows and sessions of Datagrams, each built as an IPv4 packet."""
    return fold_capture(packets_of(datagrams), **options)


def every_server_as(operator: str) -> PrefixTable:
    """A prefix table that labels every server address `operator`."""
    return PrefixTable([(ipaddress.IPv4Network("0.0.0.0/0"), operator)])


def save_folds(directory: Path, folded) -> tuple[Path, Path]:
    """datagrams.jsonl and sessions.jsonl in `directory`, written as ingest
    writes the (rows, sessions) of `folded`."""
    paths = directory / "datagrams.jsonl", directory / "sessions.jsonl"
    tables.save_stores(*paths, *folded)
    return paths


class ReferenceSession(NamedTuple):
    """A session as the session store kept it before ingest wrote its
    folds: its (source, destination, SCID, DCID) key and a full timeline of
    (offset, packet type, datagram length, coalesced) entries."""

    key: tuple[str, str, bytes, bytes]
    timeline: list[tuple[float, PacketType, int, bool]]
    direction: object
    version: int
    operator: Optional[str]
    asn: Optional[int]
    start_ts: float


def reference_sessions(records, idle_gap: float = DEFAULT_IDLE_GAP) -> list[ReferenceSession]:
    """The reference sessionizer: the sessions of timestamp-ordered
    `records` under a key without the direction, ordered by (start, key).
    A gap of `idle_gap` or more closes a session, as in reference_folds."""
    finished, open_sessions = [], {}
    for r in records:
        for p in r.packets:
            key = (r.src_ip, r.dst_ip, p.scid, p.dcid)
            state = open_sessions.get(key)
            if state is None or not r.timestamp - state[1] < idle_gap:
                if state is not None:
                    finished.append(state[0])
                session = ReferenceSession(key, [], r.direction, p.version, r.operator, r.asn, r.timestamp)
                state = open_sessions[key] = [session, r.timestamp]
            session = state[0]
            session.timeline.append((r.timestamp - session.start_ts, p.packet_type, r.datagram_length, len(r.packets) > 1))
            state[1] = r.timestamp
    sessions = finished + [state[0] for state in open_sessions.values()]
    return sorted(sessions, key=lambda s: (s.start_ts, s.key))


def old_datagram_store(records) -> bytes:
    """The per-datagram store that ingest wrote: one sorted-key JSON row per record."""
    return "".join(
        json.dumps(
            {
                "asn": r.asn, "direction": r.direction.value, "dport": r.dst_port, "dst": r.dst_ip,
                "length": r.datagram_length, "operator": r.operator,
                "packets": [[p.packet_type.value, p.version, p.scid.hex(), p.dcid.hex()] for p in r.packets],
                "sport": r.src_port, "src": r.src_ip, "ts": r.timestamp,
            },
            sort_keys=True,
        )
        + "\n"
        for r in records
    ).encode()


def old_session_store(sessions: list[ReferenceSession]) -> bytes:
    """The session store that ingest wrote: one sorted-key JSON row per reference session."""
    return "".join(
        json.dumps(
            {
                "asn": s.asn, "dcid": s.key[3].hex(), "direction": s.direction.value, "dst": s.key[1],
                "operator": s.operator, "scid": s.key[2].hex(), "src": s.key[0], "start_ts": s.start_ts,
                "timeline": [[offset, t.value, length, coalesced] for offset, t, length, coalesced in s.timeline],
                "version": s.version,
            },
            sort_keys=True,
        )
        + "\n"
        for s in sessions
    ).encode()


def old_stores(capture: Path, prefixes: Optional[Path] = None, scanners=None) -> dict[str, bytes]:
    """datagrams.jsonl and sessions.jsonl as ingest wrote them per datagram,
    serialized from the reference record stream over `capture`, with the
    ASNs and operators of the prefix table file `prefixes`."""
    rows = prefix_rows(prefixes) if prefixes else ()
    records = list(reference_ingest(read_datagrams(capture), scanners=scanners, prefixes=rows))
    return {
        "datagrams.jsonl": old_datagram_store(records),
        "sessions.jsonl": old_session_store(reference_sessions(records)),
    }


def make_response(
    ts: float,
    src: str = "198.51.100.1",
    dst: str = "172.16.5.5",
    dst_port: int = 50000,
    scid: bytes = b"\xbb" * 8,
    dcid: bytes = b"\xaa" * 8,
    version: int = 1,
    types: tuple[PacketType, ...] = (PacketType.INITIAL,),
    pad_to: int = 0,
    payload: bytes = b"\x11" * 40,
) -> Datagram:
    """Server->telescope datagram holding one or more coalesced packets."""
    body = b"".join(encode_long_header(t, version, dcid, scid, payload) for t in types)
    if pad_to and len(body) < pad_to:
        body += b"\x00" * (pad_to - len(body))
    return Datagram(ts, src, dst, 443, dst_port, body)


def make_request(
    ts: float,
    src: str = "172.16.5.5",
    dst: str = "198.51.100.1",
    src_port: int = 50000,
    scid: bytes = b"\xcc" * 8,
    dcid: bytes = b"\xdd" * 8,
    version: int = 1,
) -> Datagram:
    body = encode_long_header(PacketType.INITIAL, version, dcid, scid, b"\x22" * 30)
    return Datagram(ts, src, dst, src_port, 443, body)


# Datagram payloads whose first packet does not parse, by name: an empty
# payload, a client Initial whose first octet is 0x00 (padding), and one cut
# inside its SCID (octets 15 to 22 of an Initial with two 8-octet CIDs).
_CLIENT_INITIAL = client_initial_payload(b"\x10" * 8, b"\x20" * 8)
NO_PACKET_PAYLOADS = {
    "empty": b"",
    "zero-first-octet": b"\x00" + _CLIENT_INITIAL[1:],
    "cut-inside-scid": _CLIENT_INITIAL[:20],
}


def reference_encode_facebook_scid(fields: FacebookScidFields, random_bits: Optional[int] = None) -> bytes:
    """encode_facebook_scid as it was before it packed through
    facebook_scid_packer: every field checked and packed on each call."""
    packers, _, runs = _FB_CODECS.get(fields.scid_version) or _FB_CODECS[1]
    acc = 0
    for value, (shift, limit, width, name) in zip(fields, packers):
        if value < 0 or value >= limit:
            raise FieldOverflow(f"{name} {value} does not fit in {width} bits")
        acc |= value << shift
    if random_bits is not None:
        for drop, mask, shift in runs:
            acc |= (random_bits >> drop & mask) << shift
    return acc.to_bytes(FACEBOOK_SCID_OCTETS, "big")


def harvest_from_ids(vip: str, host_ids) -> HostIdHarvest:
    """A complete harvest of a known instance set, one handshake per host ID
    in ascending order: ground truth for clustering over many VIPs."""
    harvest = HostIdHarvest(vip=vip)
    for index, host_id in enumerate(sorted(set(host_ids))):
        harvest.observations.append((index, host_id))
        harvest.attempts += 1
    return harvest


@pytest.fixture
def fake_socket(monkeypatch):
    """socket.socket replaced by a fake whose recvfrom returns the class's
    `reply` (or raises it, if an exception) from the address last sent to, so
    no packet leaves the host; and time.monotonic and time.sleep replaced by
    a clock that only sleeps move. Returns (the fake class, the clock as a
    one-item list, the sleeps)."""

    class FakeSocket:
        opened = []
        reply = b""  # the payload recvfrom returns, or an exception it raises

        def __init__(self, family, kind):
            self.kind = (family, kind)
            self.sent, self.bound, self.timeout, self.closed = [], None, None, False
            FakeSocket.opened.append(self)

        def bind(self, address):
            self.bound = address

        def settimeout(self, timeout):
            self.timeout = timeout

        def sendto(self, payload, address):
            self.sent.append((payload, address))

        def recvfrom(self, size):
            if isinstance(self.reply, Exception):
                raise self.reply
            return self.reply, self.sent[-1][1]

        def close(self):
            self.closed = True

    clock, sleeps = [100.0], []
    monkeypatch.setattr(socket, "socket", FakeSocket)
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return FakeSocket, clock, sleeps


@pytest.fixture
def response_factory():
    return make_response


@pytest.fixture
def request_factory():
    return make_request
