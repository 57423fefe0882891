"""pcap round trips plus reader behavior on ethernet framing and bad input.

The datagrams read back are decoded by conftest's reference decoder; the
counters are those of the reader and ingest.fold_capture, which decodes the
IPv4 and UDP headers in the pipeline."""

import gc
import io
import random
import struct
import sys
import warnings

import pytest

from quicscope import InputError, pcap
from quicscope.ingest import fold_capture
from quicscope.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    MAXIMUM_SNAPLEN,
    CaptureCounters,
    PcapReader,
    PcapWriter,
    _ip_checksum,
)
from quicscope.sim import MAX_UDP_PAYLOAD

from conftest import Datagram, build_ipv4_udp, read_datagrams, run_python, write_pcap


def read_back(path) -> tuple[list[Datagram], CaptureCounters]:
    """The datagrams of the capture at `path`, and the counters that the
    reader and fold_capture keep over it, which the reference decoder's equal."""
    reader = PcapReader(path)
    fold_capture(reader.datagrams(), capture=reader.counters)
    reference = CaptureCounters()
    datagrams = read_datagrams(path, reference)
    assert reference.as_dict() == reader.counters.as_dict()
    return datagrams, reader.counters


def make_datagrams():
    return [
        Datagram(1641024000.0, "198.51.100.7", "172.16.0.9", 443, 50001, b"\xc0payload-one"),
        Datagram(1641024000.25, "198.51.100.7", "172.16.0.10", 443, 50002, b"two"),
        Datagram(1641024001.5, "10.0.0.1", "172.16.0.9", 53000, 443, b""),
    ]


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "t.pcap"
    originals = make_datagrams()
    assert write_pcap(path, originals) == 3
    got, counters = read_back(path)
    assert got == originals
    assert counters.datagrams == 3
    assert counters.malformed == 0


def test_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.pcap", tmp_path / "b.pcap"
    write_pcap(a, make_datagrams())
    write_pcap(b, make_datagrams())
    assert a.read_bytes() == b.read_bytes()


def test_ethernet_linktype(tmp_path):
    # Hand-build an ethernet-framed capture.
    d = Datagram(5.0, "192.0.2.1", "192.0.2.2", 443, 40000, b"hi")
    ip_packet = build_ipv4_udp(d)
    frame = b"\x00" * 12 + struct.pack(">H", 0x0800) + ip_packet
    path = tmp_path / "eth.pcap"
    with path.open("wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET))
        fh.write(struct.pack("<IIII", 5, 0, len(frame), len(frame)))
        fh.write(frame)
    got, _ = read_back(path)
    assert got == [d]


def test_vlan_tag_stripped(tmp_path):
    d = Datagram(5.0, "192.0.2.1", "192.0.2.2", 443, 40000, b"hi")
    frame = b"\x00" * 12 + struct.pack(">HHH", 0x8100, 0, 0x0800) + build_ipv4_udp(d)
    path = tmp_path / "vlan.pcap"
    with path.open("wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET))
        fh.write(struct.pack("<IIII", 5, 0, len(frame), len(frame)))
        fh.write(frame)
    assert read_back(path)[0] == [d]


def test_non_udp_counted(tmp_path):
    d = Datagram(1.0, "192.0.2.1", "192.0.2.2", 443, 40000, b"x")
    packet = bytearray(build_ipv4_udp(d))
    packet[9] = 6  # claim TCP
    path = tmp_path / "tcp.pcap"
    with path.open("wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
        fh.write(struct.pack("<IIII", 1, 0, len(packet), len(packet)))
        fh.write(bytes(packet))
    datagrams, counters = read_back(path)
    assert datagrams == []
    assert counters.non_udp == 1


def test_fragment_skipped(tmp_path):
    d = Datagram(1.0, "192.0.2.1", "192.0.2.2", 443, 40000, b"x")
    packet = bytearray(build_ipv4_udp(d))
    packet[6:8] = struct.pack(">H", 0x0002)  # fragment offset 2
    path = tmp_path / "frag.pcap"
    with path.open("wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
        fh.write(struct.pack("<IIII", 1, 0, len(packet), len(packet)))
        fh.write(bytes(packet))
    datagrams, counters = read_back(path)
    assert datagrams == []
    assert counters.fragmented == 1


def test_truncated_record_counted(tmp_path):
    path = tmp_path / "cut.pcap"
    write_pcap(path, make_datagrams())
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    got, counters = read_back(path)
    assert len(got) == 2
    assert counters.malformed == 1


def test_record_longer_than_any_snaplen_is_not_read(tmp_path):
    # one record claiming 0xFFFFFFF0 bytes, followed by 16: read() would
    # allocate the claimed length before reading, about 4 GB, so the child
    # caps its address space at 3 GB to make such an allocation fail
    path = tmp_path / "huge.pcap"
    path.write_bytes(
        struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        + struct.pack("<IIII", 0, 0, 0xFFFFFFF0, 0xFFFFFFF0)
        + b"\x45" * 16
    )
    assert path.stat().st_size == 56
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3_000_000_000, 3_000_000_000))\n"
        "from quicscope.cli import main\n"
        "from quicscope.pcap import PcapReader\n"
        "reader = PcapReader(sys.argv[1])\n"
        "datagrams = list(reader.datagrams())\n"
        "print(len(datagrams), reader.counters.records, reader.counters.malformed)\n"
        "sys.exit(main(['ingest', '--capture', sys.argv[1], '--out-dir', sys.argv[2]]))\n"
    )
    out = run_python("-c", script, path, tmp_path / "ing")
    assert "Traceback" not in out.stderr
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "0 1 1"
    assert (tmp_path / "ing" / "datagrams.jsonl").read_text() == ""


def test_record_of_maximum_snaplen_is_read_and_a_longer_one_ends_the_read(tmp_path):
    # whole records of MAXIMUM_SNAPLEN, MAXIMUM_SNAPLEN + 1 and 20 octets
    path = tmp_path / "snaplen.pcap"
    with path.open("wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, MAXIMUM_SNAPLEN, 101))
        for ts, length in enumerate([MAXIMUM_SNAPLEN, MAXIMUM_SNAPLEN + 1, 20]):
            fh.write(struct.pack("<IIII", ts, 0, length, length) + bytes([ts + 1]) * length)
    reader = PcapReader(path)
    datagrams = list(reader.datagrams())
    assert [(ts, len(packet), packet[0]) for ts, packet in datagrams] == [(0.0, MAXIMUM_SNAPLEN, 1)]
    assert (reader.counters.records, reader.counters.malformed) == (2, 1)


def test_not_a_pcap(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"this is not a capture file, promise")
    with pytest.raises(InputError):
        PcapReader(path)


def test_header_read_closes_file(tmp_path, monkeypatch):
    path = tmp_path / "t.pcap"
    write_pcap(path, make_datagrams())
    # a leaked handle raises its ResourceWarning inside the file's finalizer,
    # where Python can only hand it to sys.unraisablehook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        PcapReader(path)
        gc.collect()
    assert unraisable == []


def test_missing_file(tmp_path):
    with pytest.raises(InputError):
        PcapReader(tmp_path / "nope.pcap")


def test_unsupported_linktype(tmp_path):
    path = tmp_path / "dlt.pcap"
    path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 228))
    with pytest.raises(InputError):
        PcapReader(path)


def test_big_endian_and_nanosecond_magic(tmp_path):
    d = Datagram(2.000000333, "192.0.2.1", "192.0.2.2", 443, 40000, b"ns")
    packet = build_ipv4_udp(d)
    path = tmp_path / "ns.pcap"
    with path.open("wb") as fh:
        fh.write(struct.pack(">IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 101))
        fh.write(struct.pack(">IIII", 2, 333, len(packet), len(packet)))
        fh.write(packet)
    got, _ = read_back(path)
    assert len(got) == 1
    assert got[0].payload == b"ns"
    assert abs(got[0].timestamp - 2.000000333) < 1e-9


def read_capture(tmp_path, packets, linktype=101, tail=b""):
    """Read back a hand-built capture: one record per packet, then `tail`.
    Returns the datagrams and the reader's counters."""
    path = tmp_path / "hand.pcap"
    with path.open("wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, linktype))
        for packet in packets:
            fh.write(struct.pack("<IIII", 1, 0, len(packet), len(packet)))
            fh.write(packet)
        fh.write(tail)
    return read_back(path)


UDP_PACKET = build_ipv4_udp(Datagram(1.0, "192.0.2.1", "192.0.2.2", 443, 40000, b"x"))


def overwritten(packet: bytes, at: int, octets: bytes) -> bytes:
    return packet[:at] + octets + packet[at + len(octets) :]


@pytest.mark.parametrize(
    "packet, linktype, counter",
    [
        (overwritten(UDP_PACKET, 0, b"\x65"), LINKTYPE_RAW_IP, "non_ipv4"),  # IP version 6
        (overwritten(UDP_PACKET, 0, b"\x44"), LINKTYPE_RAW_IP, "malformed"),  # IHL 4
        (UDP_PACKET[:24], LINKTYPE_RAW_IP, "malformed"),  # 4 of the UDP header's 8 octets
        (overwritten(UDP_PACKET, 24, b"\x00\x07"), LINKTYPE_RAW_IP, "malformed"),  # UDP length 7
        (b"\x00" * 13, LINKTYPE_ETHERNET, "malformed"),  # one octet short of a header
        (b"\x00" * 12 + b"\x81\x00\x00", LINKTYPE_ETHERNET, "malformed"),  # 802.1Q tag cut short
        (b"\x00" * 12 + b"\x86\xdd" + UDP_PACKET, LINKTYPE_ETHERNET, "non_ipv4"),  # IPv6 EtherType
    ],
    ids=[
        "not-ipv4", "ihl-below-5", "udp-header-cut", "udp-length-below-8", "short-ethernet-frame",
        "tagged-frame-cut", "ethertype-not-ipv4",
    ],
)
def test_undecodable_packet_is_counted(tmp_path, packet, linktype, counter):
    datagrams, counters = read_capture(tmp_path, [packet], linktype)
    assert datagrams == []
    zero = dict.fromkeys(("malformed", "non_ipv4", "non_udp", "fragmented", "datagrams"), 0)
    assert counters.as_dict() == dict(zero, records=1, **{counter: 1})


def test_record_header_cut_short(tmp_path):
    datagrams, counters = read_capture(tmp_path, [UDP_PACKET], tail=b"\x00" * 10)
    assert [d.payload for d in datagrams] == [b"x"]
    assert (counters.records, counters.malformed, counters.datagrams) == (1, 1, 1)


def test_file_shorter_than_the_global_header(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)[:23])
    with pytest.raises(InputError, match="too short for a pcap global header"):
        PcapReader(path)


def reference_checksum(data: bytes) -> int:
    """RFC 1071: the ones' complement of the ones' complement sum of the
    16-bit big-endian words, an odd trailing octet padded with zero."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class TestIpChecksum:
    @pytest.mark.parametrize(
        "data",
        [
            b"", b"\x00", b"\x01", b"\xff", b"\x00" * 20, b"\x00" * 21, b"\xff\xff" * 7, b"\x80\x00\x80\x00",
        ],
    )
    def test_edge_buffers_match_the_word_sum(self, data):
        assert _ip_checksum(data) == reference_checksum(data)

    def test_random_buffers_match_the_word_sum(self):
        rng = random.Random(7)
        for n in [*range(0, 64), 1199, 1200, 1252, 1500]:
            for _ in range(5):
                data = rng.randbytes(n)
                assert _ip_checksum(data) == reference_checksum(data), data.hex()

    def test_a_nonzero_sum_of_zero_mod_ffff_folds_to_ffff(self):
        # each buffer's words sum to a multiple of 0xFFFF without being zero
        for data in (b"\xff\xff", b"\xff\xfe\x00\x01", b"\x80\x00\x7f\xff", b"\xff\xff\xff\xff\x00"):
            assert reference_checksum(data) == 0
            assert _ip_checksum(data) == 0
        assert _ip_checksum(b"\x00\x00\x00") == reference_checksum(b"\x00\x00\x00") == 0xFFFF

    def test_built_headers_verify(self):
        for d in make_datagrams():
            packet = build_ipv4_udp(d)
            assert reference_checksum(packet[:20]) == 0
            pseudo = packet[12:20] + struct.pack(">BBH", 0, 17, len(packet) - 20)
            assert reference_checksum(pseudo + packet[20:]) == 0


class TestDatagramRecord:
    @pytest.mark.parametrize("src_port,dst_port,bad", [(-1, 443, -1), (443, 65536, 65536), (65536, 70000, 65536)])
    def test_out_of_range_port_message(self, src_port, dst_port, bad):
        with pytest.raises(ValueError, match=f"^port {bad} out of range$"):
            Datagram(0.0, "1.1.1.1", "2.2.2.2", src_port, dst_port, b"")

    def test_port_range_ends_accepted(self):
        d = Datagram(1.5, "1.1.1.1", "2.2.2.2", 0, 65535, b"x")
        assert (d.timestamp, d.src_ip, d.dst_ip, d.src_port, d.dst_port, d.payload) == (
            1.5, "1.1.1.1", "2.2.2.2", 0, 65535, b"x",
        )

    @pytest.mark.parametrize("attr", ["src_port", "payload", "extra"])
    def test_immutable(self, attr):
        d = Datagram(0.0, "1.1.1.1", "2.2.2.2", 443, 50000, b"")
        with pytest.raises(AttributeError):
            setattr(d, attr, 1)

    def test_equal_fields_equal_and_hash_equal(self):
        a = Datagram(2.0, "1.1.1.1", "2.2.2.2", 443, 50000, b"abc")
        b = Datagram(2.0, "1.1.1.1", "2.2.2.2", 443, 50000, b"abc")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != Datagram(2.0, "1.1.1.1", "2.2.2.2", 443, 50001, b"abc")

    def test_port_bounds_checked(self):
        with pytest.raises(ValueError):
            Datagram(0.0, "1.1.1.1", "2.2.2.2", 70000, 443, b"")


PAYLOAD_LENGTHS = [0, 1, 2, 121, 146, 1199]
PADDINGS = {"none": 0, "one": 1, "two": 2, "odd": 1053, "even": 1054, "to-the-bound": None}


def padded_case(payload_length: int, padding_name: str) -> tuple[bytes, int]:
    """A seeded payload of `payload_length` octets and its padding; the
    padding to the bound fills the payload up to MAX_UDP_PAYLOAD."""
    payload = random.Random(payload_length).randbytes(payload_length)
    padding = PADDINGS[padding_name]
    return payload, MAX_UDP_PAYLOAD - payload_length if padding is None else padding


class TestPaddedPackets:
    """pcap.build_ipv4_udp and PcapWriter.write leave a packet's zero
    padding off until the record is written; held to the reference builder
    over the padded payload."""

    ADDRESSES = ("198.51.100.7", "172.16.0.9", 443, 50001)

    @pytest.mark.parametrize("padding_name", PADDINGS)
    @pytest.mark.parametrize("payload_length", PAYLOAD_LENGTHS)
    def test_builder_matches_the_reference_over_the_padded_payload(self, payload_length, padding_name):
        payload, padding = padded_case(payload_length, padding_name)
        packet = pcap.build_ipv4_udp(*self.ADDRESSES, payload, padding)
        assert len(packet) == 28 + payload_length
        reference = build_ipv4_udp(Datagram(0.0, *self.ADDRESSES, payload + bytes(padding)))
        assert packet + bytes(padding) == reference

    @pytest.mark.parametrize("padding_name", PADDINGS)
    @pytest.mark.parametrize("payload_length", PAYLOAD_LENGTHS)
    def test_padded_record_matches_the_padded_packet_and_reads_back(self, tmp_path, payload_length, padding_name):
        payload, padding = padded_case(payload_length, padding_name)
        packet = pcap.build_ipv4_udp(*self.ADDRESSES, payload, padding)
        padded, whole = io.BytesIO(), io.BytesIO()
        writer = PcapWriter(padded)
        writer.write(1.25, packet, padding)
        PcapWriter(whole).write(1.25, packet + bytes(padding))
        assert writer.records == 1
        assert padded.getvalue() == whole.getvalue()
        path = tmp_path / "padded.pcap"
        path.write_bytes(padded.getvalue())
        got, counters = read_back(path)
        assert got == [Datagram(1.25, *self.ADDRESSES, payload + bytes(padding))]
        assert (counters.records, counters.datagrams, counters.malformed) == (1, 1, 0)
