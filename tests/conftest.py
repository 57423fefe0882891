"""Shared builders for synthetic datagrams, records, and captures, the
reference decoder of a capture's datagrams and the reference read of a
datagram store."""

import os
import socket
import struct
import subprocess
import sys
import time
from itertools import repeat
from pathlib import Path
from typing import Optional

import pytest

from quicscope import tables
from quicscope.ingest import DEFAULT_IDLE_GAP, PACKET_TYPES, CaptureRecord, Session, Sessionizer, Timeline, group_traits
from quicscope.pcap import CaptureCounters, PcapReader, PcapWriter, build_ipv4_udp
from quicscope.probe import HostIdHarvest
from quicscope.sim import DeploymentConfig, SessionTruth, client_initial_payload, simulate_flood
from quicscope.wire import Datagram, PacketType, encode_long_header


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` with this checkout's src on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=60, **kwargs
    )


def parse_ipv4_udp(packet: bytes, timestamp: float, counters: CaptureCounters) -> Optional[Datagram]:
    """The reference decoder of one IP datagram: a Datagram, or None (and
    counts why) for anything that is not a complete first-fragment UDP
    packet. ingest.ingest decodes the same fields its own way."""
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


def datagram_rows(path: Path) -> list[CaptureRecord]:
    """The reference read of a datagram store: every row, one at a time, as
    the store's row decoder makes it; a bad row raises the InputError that
    names its line. tables.fold_datagrams must agree with it."""
    return list(tables.load_lines(path, tables._datagram_row()))


def packets_of(datagrams) -> list[tuple[float, bytes]]:
    """Each datagram as the (timestamp, IPv4 datagram) pair ingest reads."""
    return [(d.timestamp, build_ipv4_udp(d)) for d in datagrams]


def timeline_entries(timeline: Timeline) -> list[tuple[float, PacketType, int, bool]]:
    """A timeline's (offset, packet type, datagram length, coalesced) entries."""
    return [(o, PACKET_TYPES[c], n, b) for o, c, n, b in Timeline.ENTRY.iter_unpack(timeline.packed)]


def simulate_to_pcap(config: DeploymentConfig, path: Path) -> tuple[list[SessionTruth], list[Datagram]]:
    """Run `config`'s flood with its capture streamed to the pcap at `path`;
    returns the truth rows and the capture's datagrams read back."""
    with Path(path).open("wb") as fh:
        truth = simulate_flood(config, PcapWriter(fh))
    return truth, read_datagrams(path)


def written_datagrams(buffer, path: Path) -> list[Datagram]:
    """The datagrams a PcapWriter wrote to the BytesIO `buffer`, read back
    through a file at `path`."""
    path.write_bytes(buffer.getvalue())
    return read_datagrams(path)


def sessions_of(records, idle_gap: float = DEFAULT_IDLE_GAP) -> list[Session]:
    """The sessions of `records`, folded one at a time."""
    sessionizer = Sessionizer(idle_gap)
    for record in records:
        sessionizer.add(record)
    return sessionizer.sessions()


def traits_of(records, key, shapes: bool = True) -> dict:
    """group_traits of `records`, each standing for one datagram."""
    return group_traits(zip(records, repeat(1)), key, shapes)


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
