"""Shared builders for synthetic datagrams, records, and captures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from quicscope.ingest import DEFAULT_IDLE_GAP, Session, Sessionizer
from quicscope.pcap import PcapReader, PcapWriter
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


def simulate_to_pcap(config: DeploymentConfig, path: Path) -> tuple[list[SessionTruth], list[Datagram]]:
    """Run `config`'s flood with its capture streamed to the pcap at `path`;
    returns the truth rows and the capture's datagrams read back."""
    with Path(path).open("wb") as fh:
        truth = simulate_flood(config, PcapWriter(fh))
    return truth, list(PcapReader(path).datagrams())


def written_datagrams(buffer, path: Path) -> list[Datagram]:
    """The datagrams a PcapWriter wrote to the BytesIO `buffer`, read back
    through a file at `path`."""
    path.write_bytes(buffer.getvalue())
    return list(PcapReader(path).datagrams())


def sessions_of(records, idle_gap: float = DEFAULT_IDLE_GAP) -> list[Session]:
    """The sessions of `records`, folded one at a time."""
    sessionizer = Sessionizer(idle_gap)
    for record in records:
        sessionizer.add(record)
    return sessionizer.sessions()


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
def response_factory():
    return make_response


@pytest.fixture
def request_factory():
    return make_request
