"""Classic pcap reading and writing for IPv4/UDP telescope captures.

Reading supports both byte orders, microsecond and nanosecond magics, and
link types Ethernet (1) and raw IP (101); it yields each record's IP
datagram, which `ingest.fold_capture` decodes. Writing always produces
little-endian microsecond files with raw-IP framing, which keeps simulator
output minimal and byte-reproducible.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator

# _socket holds the converter; the socket module around it adds about 8 ms
# to every stage's start-up
from _socket import inet_aton

from . import InputError

MAGIC_USEC_LE = 0xA1B2C3D4
MAGIC_NSEC_LE = 0xA1B23C4D

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

# libpcap's MAXIMUM_SNAPLEN: no capture tool writes a longer record
MAXIMUM_SNAPLEN = 262_144
# the snapshot length PcapWriter declares: the largest IPv4 packet
WRITER_SNAPLEN = 65535
# the octets PcapReader reads at a time, at least a record header's 16
READ_BLOCK = 1 << 16

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_IPV4_HEADER = struct.Struct(">BBHHHBBH4s4s")
_UDP_HEADER = struct.Struct(">HHHH")
_UDP_PSEUDO_HEADER = struct.Struct(">4s4sBBH")


class CaptureCounters:
    """Per-read accounting for everything that was skipped: PcapReader
    counts the records and what their link layer rules out,
    `ingest.fold_capture` what the IPv4 and UDP headers do, and the
    datagrams it decodes."""

    records = 0
    malformed = 0
    non_ipv4 = 0
    non_udp = 0
    fragmented = 0
    datagrams = 0

    def as_dict(self) -> dict[str, int]:
        names = ("records", "malformed", "non_ipv4", "non_udp", "fragmented", "datagrams")
        return {name: getattr(self, name) for name in names}


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


def build_ipv4_udp(src_ip: str, dst_ip: str, src_port: int, dst_port: int, payload: bytes, padding: int = 0) -> bytes:
    """The IPv4+UDP packet (deterministic fields) of `payload` followed by
    `padding` zero octets, the zeros left off: the IPv4 and UDP lengths count
    them, and zero octets add nothing to the UDP checksum."""
    src = inet_aton(src_ip)
    dst = inet_aton(dst_ip)
    udp_len = 8 + len(payload) + padding
    total_len = 20 + udp_len
    header = _IPV4_HEADER.pack(0x45, 0, total_len, 0, 0, 64, 17, 0, src, dst)
    header = _IPV4_HEADER.pack(0x45, 0, total_len, 0, 0, 64, 17, _ip_checksum(header), src, dst)
    pseudo = _UDP_PSEUDO_HEADER.pack(src, dst, 0, 17, udp_len)
    # a computed 0 is sent as 0xFFFF; 0 means no checksum
    checksum = _ip_checksum(pseudo + _UDP_HEADER.pack(src_port, dst_port, udp_len, 0) + payload) or 0xFFFF
    return header + _UDP_HEADER.pack(src_port, dst_port, udp_len, checksum) + payload


class PcapReader:
    """Iterate the IP datagrams of a classic pcap file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.counters = CaptureCounters()
        try:
            with self.path.open("rb") as fh:
                header = fh.read(24)
        except OSError as exc:
            raise InputError(f"cannot open {self.path}: {exc}") from exc
        if len(header) < 24:
            raise InputError(f"{self.path}: too short for a pcap global header")
        for endian in "<>":
            (magic,) = struct.unpack(endian + "I", header[:4])
            if magic in (MAGIC_USEC_LE, MAGIC_NSEC_LE):
                break
        else:
            raise InputError(f"{self.path}: not a classic pcap file (magic {header[:4].hex()})")
        self._endian = endian
        self._ts_divisor = 1e6 if magic == MAGIC_USEC_LE else 1e9
        fields = struct.unpack(self._endian + "HHiIII", header[4:24])
        self.linktype = fields[5]
        if self.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
            raise InputError(f"{self.path}: unsupported link type {self.linktype}")

    def datagrams(self) -> Iterator[tuple[float, bytes]]:
        """Yield (timestamp, IP datagram) for each record, its link-layer
        header stripped; `ingest.fold_capture` decodes the IPv4 and UDP
        headers.

        The file is read READ_BLOCK octets at a time, and each datagram is a
        slice of the block. A cut or damaged record ends the read and counts
        as malformed, as does an Ethernet frame too short for its header; a
        frame whose EtherType is not IPv4 counts as non-IPv4."""
        counters = self.counters
        unpack_record = struct.Struct(self._endian + "IIII").unpack_from
        divisor = self._ts_divisor
        ethernet = self.linktype == LINKTYPE_ETHERNET
        with self.path.open("rb") as fh:
            fh.seek(24)
            block = b""
            start = 0
            while True:
                if start + 16 > len(block):
                    block = block[start:] + fh.read(READ_BLOCK)
                    start = 0
                    if len(block) < 16:
                        if block:
                            counters.malformed += 1
                        return
                ts_sec, ts_frac, incl_len, _orig = unpack_record(block, start)
                counters.records += 1
                # a damaged length is not read: read() allocates what it asks for
                if incl_len > MAXIMUM_SNAPLEN:
                    counters.malformed += 1
                    return
                start += 16
                end = start + incl_len
                if end > len(block):
                    block = block[start:] + fh.read(max(READ_BLOCK, incl_len))
                    start, end = 0, incl_len
                    if end > len(block):
                        counters.malformed += 1
                        return
                frame, start = start, end
                if ethernet:
                    if incl_len < 14:
                        counters.malformed += 1
                        continue
                    ethertype = block[frame + 12] << 8 | block[frame + 13]
                    frame += 14
                    if ethertype == 0x8100:  # single 802.1Q tag
                        if incl_len < 18:
                            counters.malformed += 1
                            continue
                        ethertype = block[frame + 2] << 8 | block[frame + 3]
                        frame += 4
                    if ethertype != 0x0800:
                        counters.non_ipv4 += 1
                        continue
                yield ts_sec + ts_frac / divisor, block[frame:end]


class PcapWriter:
    """Write IPv4 packets into a little-endian microsecond raw-IP pcap, one
    record per write, in call order, each with the zero padding its write
    names appended; `records` counts the records written."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self.records = 0
        fh.write(_GLOBAL_HEADER.pack(MAGIC_USEC_LE, 2, 4, 0, 0, WRITER_SNAPLEN, LINKTYPE_RAW_IP))

    def write(self, timestamp: float, packet: bytes, padding: int = 0) -> None:
        """Write one record: `packet` followed by `padding` zero octets."""
        sec, usec = divmod(int(round(timestamp * 1e6)), 1_000_000)
        length = len(packet) + padding
        self._fh.write(_RECORD_HEADER.pack(sec, usec, length, length))
        self._fh.write(packet)
        if padding:
            self._fh.write(bytes(padding))
        self.records += 1
