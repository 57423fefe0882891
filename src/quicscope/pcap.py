"""Classic pcap reading and writing for IPv4/UDP telescope captures.

Reading supports both byte orders, microsecond and nanosecond magics, and
link types Ethernet (1) and raw IP (101). Writing always produces
little-endian microsecond files with raw-IP framing, which keeps simulator
output minimal and byte-reproducible.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator

# _socket holds the two converters; the socket module around it adds about
# 8 ms to every stage's start-up
from _socket import inet_aton, inet_ntoa

from .wire import Datagram

MAGIC_USEC_LE = 0xA1B2C3D4
MAGIC_NSEC_LE = 0xA1B23C4D

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

# libpcap's MAXIMUM_SNAPLEN: no capture tool writes a longer record
MAXIMUM_SNAPLEN = 262_144
# the snapshot length PcapWriter declares: the largest IPv4 packet
WRITER_SNAPLEN = 65535

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_IPV4_HEADER = struct.Struct(">BBHHHBBH4s4s")
_UDP_HEADER = struct.Struct(">HHHH")
_UDP_PSEUDO_HEADER = struct.Struct(">4s4sBBH")


class UnreadableCapture(ValueError):
    """The capture file cannot be opened or is not a classic pcap file."""


class CaptureCounters:
    """Per-read accounting for everything that was skipped."""

    records = 0
    malformed = 0
    non_ipv4 = 0
    non_udp = 0
    fragmented = 0
    datagrams = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "records": self.records,
            "malformed": self.malformed,
            "non_ipv4": self.non_ipv4,
            "non_udp": self.non_udp,
            "fragmented": self.fragmented,
            "datagrams": self.datagrams,
        }


def _ip_checksum(data: bytes) -> int:
    """RFC 1071 checksum. As 2**16 is 1 mod 0xFFFF, the ones' complement sum
    of the 16-bit words is the buffer read as one integer, mod 0xFFFF, except
    that a nonzero sum folds to 0xFFFF, never to 0."""
    value = int.from_bytes(data, "big")
    if len(data) % 2:
        value <<= 8  # an odd trailing octet is padded with zero
    total = value % 0xFFFF
    if total == 0 and value:
        total = 0xFFFF
    return 0xFFFF - total


def build_ipv4_udp(d: Datagram) -> bytes:
    """Serialize a Datagram as an IPv4+UDP packet (deterministic fields)."""
    src = inet_aton(d.src_ip)
    dst = inet_aton(d.dst_ip)
    payload = d.payload
    udp_len = 8 + len(payload)
    total_len = 20 + udp_len
    header = _IPV4_HEADER.pack(0x45, 0, total_len, 0, 0, 64, 17, 0, src, dst)
    header = _IPV4_HEADER.pack(0x45, 0, total_len, 0, 0, 64, 17, _ip_checksum(header), src, dst)
    pseudo = _UDP_PSEUDO_HEADER.pack(src, dst, 0, 17, udp_len)
    # a computed 0 is sent as 0xFFFF; 0 means no checksum
    checksum = _ip_checksum(pseudo + _UDP_HEADER.pack(d.src_port, d.dst_port, udp_len, 0) + payload) or 0xFFFF
    return header + _UDP_HEADER.pack(d.src_port, d.dst_port, udp_len, checksum) + payload


def parse_ipv4_udp(packet: bytes, timestamp: float, counters: CaptureCounters) -> Datagram | None:
    """Decode an IPv4 packet into a Datagram; returns None (and counts why)
    for anything that is not a complete first-fragment UDP packet."""
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
    src_ip = inet_ntoa(packet[12:16])
    dst_ip = inet_ntoa(packet[16:20])
    src_port, dst_port, udp_len = struct.unpack_from(">HHH", packet, ihl)
    if udp_len < 8:
        counters.malformed += 1
        return None
    payload = packet[ihl + 8 : ihl + udp_len]
    # 16-bit ports are always in range, so Datagram's check is skipped
    return tuple.__new__(Datagram, (timestamp, src_ip, dst_ip, src_port, dst_port, payload))


def _strip_ethernet(frame: bytes, counters: CaptureCounters) -> bytes | None:
    if len(frame) < 14:
        counters.malformed += 1
        return None
    ethertype = struct.unpack_from(">H", frame, 12)[0]
    offset = 14
    if ethertype == 0x8100:  # single 802.1Q tag
        if len(frame) < 18:
            counters.malformed += 1
            return None
        ethertype = struct.unpack_from(">H", frame, 16)[0]
        offset = 18
    if ethertype != 0x0800:
        counters.non_ipv4 += 1
        return None
    return frame[offset:]


class PcapReader:
    """Iterate UDP/IPv4 datagrams out of a classic pcap file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.counters = CaptureCounters()
        try:
            with self.path.open("rb") as fh:
                header = fh.read(24)
        except OSError as exc:
            raise UnreadableCapture(f"cannot open {self.path}: {exc}") from exc
        if len(header) < 24:
            raise UnreadableCapture(f"{self.path}: too short for a pcap global header")
        magic_le = struct.unpack("<I", header[:4])[0]
        magic_be = struct.unpack(">I", header[:4])[0]
        if magic_le in (MAGIC_USEC_LE, MAGIC_NSEC_LE):
            self._endian = "<"
            magic = magic_le
        elif magic_be in (MAGIC_USEC_LE, MAGIC_NSEC_LE):
            self._endian = ">"
            magic = magic_be
        else:
            raise UnreadableCapture(f"{self.path}: not a classic pcap file (magic {header[:4].hex()})")
        self._ts_divisor = 1e6 if magic == MAGIC_USEC_LE else 1e9
        fields = struct.unpack(self._endian + "HHiIII", header[4:24])
        self.linktype = fields[5]
        if self.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
            raise UnreadableCapture(f"{self.path}: unsupported link type {self.linktype}")

    def datagrams(self) -> Iterator[Datagram]:
        record = struct.Struct(self._endian + "IIII")
        with self.path.open("rb") as fh:
            fh.seek(24)
            while True:
                head = fh.read(16)
                if not head:
                    break
                if len(head) < 16:
                    self.counters.malformed += 1
                    break
                ts_sec, ts_frac, incl_len, _orig = record.unpack(head)
                self.counters.records += 1
                # a damaged length is not read: read() allocates what it asks for
                if incl_len > MAXIMUM_SNAPLEN:
                    self.counters.malformed += 1
                    break
                data = fh.read(incl_len)
                if len(data) < incl_len:
                    self.counters.malformed += 1
                    break
                timestamp = ts_sec + ts_frac / self._ts_divisor
                if self.linktype == LINKTYPE_ETHERNET:
                    packet = _strip_ethernet(data, self.counters)
                    if packet is None:
                        continue
                else:
                    packet = data
                d = parse_ipv4_udp(packet, timestamp, self.counters)
                if d is None:
                    continue
                self.counters.datagrams += 1
                yield d


class PcapWriter:
    """Write IPv4 packets into a little-endian microsecond raw-IP pcap, one
    record per write, in call order; `records` counts the records written."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self.records = 0
        fh.write(_GLOBAL_HEADER.pack(MAGIC_USEC_LE, 2, 4, 0, 0, WRITER_SNAPLEN, LINKTYPE_RAW_IP))

    def write(self, timestamp: float, packet: bytes) -> None:
        sec, usec = divmod(int(round(timestamp * 1e6)), 1_000_000)
        self._fh.write(_RECORD_HEADER.pack(sec, usec, len(packet), len(packet)))
        self._fh.write(packet)
        self.records += 1


def write_pcap(path: str | Path, datagrams: Iterator[Datagram] | list[Datagram]) -> int:
    """Write all datagrams to `path`; returns the record count."""
    with Path(path).open("wb") as fh:
        writer = PcapWriter(fh)
        for d in datagrams:
            writer.write(d.timestamp, build_ipv4_udp(d))
    return writer.records
