"""Ingestion filtering, scanner sanitization, prefix mapping, sessionization."""

import ipaddress
import re
import struct
from pathlib import Path

import pytest

from quicscope import InputError, pcap, tables
from quicscope import ingest as ingest_module
from quicscope.ingest import IngestCounters, PrefixTable, ScannerList, fold_capture
from quicscope.pcap import LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, CaptureCounters, PcapReader
from quicscope.wire import Direction, PacketType, PlausibilityConfig, VersionRegistry

from conftest import (
    Datagram, build_ipv4_udp, fold, make_request, make_response, parse_ipv4_udp, reference_folds, reference_ingest,
    reference_lookup, reference_sessions, write_pcap,
)


def net(s):
    return ipaddress.ip_network(s)


def addr(s):
    """A dotted IPv4 address as the integer the lookups take."""
    return int(ipaddress.IPv4Address(s))


class TestIngest:
    def test_filters_non_quic_and_counts(self, tmp_path):
        datagrams = [
            make_response(0.0),
            make_response(0.5, dst="172.16.5.6"),
            make_response(1.0, dst="172.16.5.7"),
            Datagram(1.5, "9.9.9.9", "172.16.5.5", 53, 53, b"dns"),
        ]
        path = tmp_path / "c.pcap"
        write_pcap(path, datagrams)
        counters = IngestCounters()
        rows, sessions = fold_capture(PcapReader(path).datagrams(), counters=counters)
        assert sum(n for row in rows for n in row.traits.shapes.values()) == 3 and len(sessions) == 3
        assert counters.total == 4
        assert counters.non_quic_port == 1
        assert counters.emitted == 3

    def test_request_and_response_both_pass(self):
        counters = IngestCounters()
        rows, sessions = fold([make_request(0.0), make_response(0.1)], counters=counters)
        assert [r.direction for r in rows] == [s.direction for s in sessions] == [Direction.REQUEST, Direction.RESPONSE]
        assert counters.requests_seen == 1 and counters.responses_seen == 1

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(path, [])
        counters = IngestCounters()
        assert fold_capture(PcapReader(path).datagrams(), counters=counters) == ([], [])
        assert counters.total == 0

    def test_implausible_payload_counted(self):
        junk = Datagram(0.0, "198.51.100.1", "172.16.5.5", 443, 50000, b"\x00" * 100)
        counters = IngestCounters()
        assert fold([junk], counters=counters) == ([], [])
        assert counters.implausible == 1

    def test_coalesced_packets_fold_as_one_datagram(self):
        response = make_response(0.0, types=(PacketType.INITIAL, PacketType.HANDSHAKE))
        (row,), sessions = fold([response])
        assert row.traits.shapes == {(("Initial", "Handshake"), len(response.payload)): 1}
        assert len(sessions) == 1 and list(sessions[0].offsets) == [0.0, 0.0]

    def test_short_header_counted_not_emitted(self):
        # form bit clear, non-zero first octet: a 1-RTT short-header packet
        short = Datagram(0.0, "198.51.100.1", "172.16.5.5", 443, 50000, b"\x41" + b"\x99" * 24)
        counters = IngestCounters()
        assert fold([short], counters=counters) == ([], [])
        assert counters.short_header_only == 1
        assert counters.implausible == 0

    def test_one_dotted_source_per_key(self):
        # every session of a key shares the key row's source string
        rows, sessions = fold([make_response(0.1 * i, dcid=bytes([i]) * 8) for i in range(3)])
        (row,) = rows
        assert row.sessions == sessions and all(s.src_ip is row.src_ip for s in sessions)

    @pytest.mark.parametrize("gap", [0.0, -1.0, float("inf"), float("nan")])
    def test_idle_gap_not_positive_and_finite_rejected_before_reading(self, gap):
        def unread():
            raise AssertionError("the capture was read")
            yield

        with pytest.raises(InputError, match="idle gap must be positive and finite"):
            fold_capture(unread(), idle_gap=gap)


class TestSanitize:
    def test_request_from_listed_prefix_dropped(self):
        scanners = ScannerList([net("172.16.0.0/12")])
        counters = IngestCounters()
        assert fold([make_request(0.0, src="172.16.5.5")], counters=counters, scanners=scanners) == ([], [])
        assert counters.requests_dropped == 1
        # a dropped request was emitted, as counters.tsv has always counted it
        assert counters.emitted == counters.requests_seen == 1

    def test_response_from_listed_prefix_kept(self):
        scanners = ScannerList([net("198.51.100.0/24")])
        counters = IngestCounters()
        kept, _ = fold([make_response(0.0, src="198.51.100.1")], counters=counters, scanners=scanners)
        assert len(kept) == 1
        assert counters.requests_dropped == 0

    def test_empty_scanner_list_is_identity(self):
        datagrams = [make_request(0.0), make_response(0.1)]
        assert fold(datagrams, scanners=ScannerList()) == fold(datagrams)

    def test_nested_and_adjacent_prefixes(self):
        scanners = ScannerList(
            [net("10.0.0.0/8"), net("10.1.0.0/16"), net("10.1.2.3/32"), net("11.0.0.0/8"), net("192.0.2.8/30")]
        )
        for ip in ("10.0.0.0", "10.1.2.3", "10.200.0.1", "11.255.255.255", "192.0.2.8", "192.0.2.11"):
            assert addr(ip) in scanners, ip
        for ip in ("9.255.255.255", "12.0.0.0", "192.0.2.7", "192.0.2.12", "0.0.0.0", "255.255.255.255"):
            assert addr(ip) not in scanners, ip

    def test_drops_only_listed_requests(self):
        scanners = ScannerList([net("172.16.5.0/24"), net("10.1.0.0/16")])
        datagrams = [
            make_request(0.0, src="172.16.5.9"),
            make_request(0.2, src="10.1.2.3"),
            make_request(0.4, src="192.0.2.77"),
            make_response(0.6),
        ]
        kept, _ = fold(datagrams, scanners=scanners)
        assert [(r.direction, r.src_ip) for r in kept] == [
            (Direction.REQUEST, "192.0.2.77"),
            (Direction.RESPONSE, "198.51.100.1"),
        ]

    def test_exact_ip_entry(self, tmp_path):
        listing = tmp_path / "scanners.txt"
        listing.write_text("# well known scanners\n203.0.113.99\n198.18.0.0/15\n")
        scanners = tables.load_scanner_list(listing)
        assert addr("203.0.113.99") in scanners
        assert addr("203.0.113.98") not in scanners
        assert addr("198.18.4.4") in scanners


class TestPrefixTable:
    def test_longest_prefix_wins(self):
        table = PrefixTable([(net("128.0.0.0/9"), "big"), (net("128.64.3.0/24"), "small")])
        assert table.lookup(addr("128.64.3.10")) == "small"
        assert table.lookup(addr("128.64.4.10")) == "big"

    def test_unknown_ip(self):
        table = PrefixTable([(net("198.51.100.0/24"), "ExampleCDN")])
        assert table.lookup(addr("8.8.8.8")) is None

    def test_single_operator_label(self):
        table = PrefixTable([(net("198.51.100.0/24"), "Facebook")])
        assert table.lookup(addr("198.51.100.77")) == "Facebook"

    def test_order_independence(self):
        entries = [(net("10.0.0.0/8"), "a"), (net("10.1.0.0/16"), "b"), (net("10.1.2.0/24"), "c")]
        forward = PrefixTable(entries)
        backward = PrefixTable(entries[::-1])
        for ip in ("10.1.2.3", "10.1.9.9", "10.9.9.9"):
            assert forward.lookup(addr(ip)) == backward.lookup(addr(ip))

    def test_lookup_gives_the_reference_operator(self):
        rows = [
            (net("0.0.0.0/1"), 1, "half"), (net("10.0.0.0/8"), 2, "a"), (net("10.1.0.0/16"), 3, "b"),
            (net("10.1.2.0/24"), 4, "c"), (net("10.1.2.3/32"), 5, "host"), (net("192.0.2.0/28"), 6, "Lab"),
        ]
        table = PrefixTable((network, label) for network, _, label in rows)
        for ip in ("10.1.2.3", "10.1.2.4", "10.1.9.9", "10.9.9.9", "127.0.0.1", "192.0.2.15", "192.0.2.16", "255.255.255.255"):
            assert table.lookup(addr(ip)) == reference_lookup(rows, ip)[1], ip

    def test_load_from_tsv(self, tmp_path):
        f = tmp_path / "prefixes.tsv"
        f.write_text("198.51.100.0/24\t32934\tFacebook\n203.0.113.0/24\t13335\tCloudflare\n")
        table = tables.load_prefix_table(f)
        assert table.lookup(addr("203.0.113.8")) == "Cloudflare"
        assert table.lookup(addr("198.51.100.1")) == "Facebook"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("198.51.100.0/24\tAS32934\tFacebook", "invalid literal for int() with base 10: 'AS32934'"),
            ("198.51.100.0/24\tFacebook", "expected 3 tab-separated fields (prefix, ASN, operator), got 2"),
        ],
    )
    def test_load_still_requires_an_integer_asn(self, tmp_path, line, message):
        f = tmp_path / "prefixes.tsv"
        f.write_text(f"203.0.113.0/24\t13335\tCloudflare\n{line}\n")
        with pytest.raises(InputError, match=f"^{re.escape(f'{f}:2: {message}')}$"):
            tables.load_prefix_table(f)

    def test_ingest_labels_the_server_side(self):
        table = PrefixTable([(net("198.51.100.0/24"), "Facebook")])
        datagrams = [
            make_response(0.0, src="198.51.100.1"),
            make_request(0.1, dst="198.51.100.1"),
            make_response(0.2, src="192.0.2.1", dst="198.51.100.1"),
            make_request(0.3, src="198.51.100.1", dst="192.0.2.1"),
        ]
        rows, sessions = fold(datagrams, prefixes=table)
        assert [r.operator for r in rows] == [s.operator for s in sessions] == ["Facebook"] * 2 + [None] * 2

    def test_prefix_hits_cleared_at_their_bound_label_as_before(self, monkeypatch):
        # ingest keeps at most _PREFIX_HITS server addresses' hits; with a
        # bound of 3, twelve servers, each seen twice, clear the cache often
        table = PrefixTable([(net("198.51.100.0/26"), "Facebook"), (net("198.51.100.0/24"), "Cloudflare")])
        servers = [f"198.51.{100 + i % 2}.{40 * (i % 3) + i}" for i in range(12)]
        datagrams = [make_response(0.1 * i, src=server) for i, server in enumerate(servers + servers[::-1])]
        datagrams += [make_request(5.0 + 0.1 * i, dst=server) for i, server in enumerate(servers)]
        unbounded = fold(datagrams, prefixes=table)
        monkeypatch.setattr(ingest_module, "_PREFIX_HITS", 3)
        lookups = []
        monkeypatch.setattr(table, "lookup", lambda address: lookups.append(address) or PrefixTable.lookup(table, address))
        assert fold(datagrams, prefixes=table) == unbounded
        assert len(lookups) > len(servers)
        assert {r.operator for r in unbounded[0]} == {"Facebook", "Cloudflare", None}


class TestSessionize:
    def test_resend_series_is_one_session(self):
        offsets = [0.0, 0.4, 0.8, 1.6, 3.2, 6.4, 9.0, 11.1, 13.0, 14.5]
        _, sessions = fold([make_response(1000.0 + o) for o in offsets])
        assert len(sessions) == 1
        assert [round(offset, 3) for offset in sessions[0].offsets] == offsets

    def test_idle_gap_splits_sessions(self):
        _, sessions = fold([make_response(0.0), make_response(600.0)], idle_gap=60.0)
        assert len(sessions) == 2
        assert all(list(s.offsets) == [0.0] for s in sessions)

    def test_different_dcid_different_session(self):
        _, sessions = fold([make_response(0.0, dcid=b"\x01" * 8), make_response(0.1, dcid=b"\x02" * 8)])
        assert len(sessions) == 2

    def test_cids_one_octet_apart_are_different_sessions(self):
        datagrams = [make_response(0.0, scid=b"\x01", dcid=b"\x02"), make_response(0.1, scid=b"\x01", dcid=b"\x03")]
        datagrams.append(make_response(0.2, scid=b"\x01", dcid=b"\x02"))
        _, sessions = fold(datagrams)
        assert [list(s.offsets) for s in sessions] == [[0.0, 0.2], [0.0]]

    def test_coalesced_entries_share_offset(self):
        _, sessions = fold([make_response(5.0, types=(PacketType.INITIAL, PacketType.HANDSHAKE))])
        assert len(sessions) == 1
        assert list(sessions[0].offsets) == [0.0, 0.0]

    def test_offsets_of_initial_and_handshake_packets_only(self):
        types = [(PacketType.INITIAL,), (PacketType.ZERO_RTT,), (PacketType.HANDSHAKE,), (PacketType.ZERO_RTT,)]
        datagrams = [make_response(0.1 * i + 0.2, types=t) for i, t in enumerate(types)]
        _, (session,) = fold(datagrams)
        assert list(session.offsets) == [0.0, (0.1 * 2 + 0.2) - 0.2]

    def test_partition_property(self):
        # every parsed packet lands in exactly one session: the reference
        # sessionizer's, in the order they opened, with the Initial and
        # Handshake entries of its timeline as the offsets
        datagrams = []
        t = 0.0
        for i in range(40):
            t += 0.37
            datagrams.append(
                make_response(
                    t,
                    dst=f"172.16.5.{i % 7}",
                    scid=bytes([i % 5]) * 8,
                    types=(PacketType.INITIAL, PacketType.HANDSHAKE) if i % 3 == 0 else (PacketType.INITIAL,),
                )
            )
        datagrams.append(make_request(20.0, src="172.16.5.1", dst="198.51.100.1"))
        records = list(reference_ingest(datagrams))
        total_packets = sum(len(r.packets) for r in records)
        _, sessions = fold(datagrams)
        assert sum(len(s.offsets) for s in sessions) == total_packets
        reference = reference_sessions(records)
        assert [(s.key[0], s.operator, s.direction, s.version, [e[0] for e in s.timeline]) for s in reference] == [
            (s.src_ip, s.operator, s.direction, s.version, list(s.offsets)) for s in sessions
        ]

    def test_request_and_response_under_one_cid_pair_are_two_sessions(self):
        # the reference's key has no direction, so it took them for one session
        response = make_response(0.0, src="198.51.100.1", dst="172.16.5.5", scid=b"\x01" * 8, dcid=b"\x02" * 8)
        request = make_request(0.5, src="198.51.100.1", dst="172.16.5.5", scid=b"\x01" * 8, dcid=b"\x02" * 8)
        records = list(reference_ingest([response, request]))
        assert [r.direction for r in records] == [Direction.RESPONSE, Direction.REQUEST]
        assert [s.direction for s in fold([response, request])[1]] == [Direction.RESPONSE, Direction.REQUEST]
        assert len(reference_sessions(records)) == 1

    def test_offsets_non_decreasing(self):
        _, sessions = fold([make_response(t) for t in (0.0, 0.5, 0.5, 2.0)])
        for s in sessions:
            offsets = list(s.offsets)
            assert offsets == sorted(offsets)
            assert offsets[0] == 0.0

    def test_session_carries_metadata(self):
        table = PrefixTable([(net("198.51.100.0/24"), "Google")])
        _, sessions = fold([make_response(0.0, version=1)], prefixes=table)
        assert sessions[0].operator == "Google"
        assert sessions[0].version == 1
        assert sessions[0].direction == Direction.RESPONSE
        assert sessions[0].src_ip == "198.51.100.1"


def reference_read(path, counters):
    """The records of a little-endian microsecond capture read one at a time,
    each with its link layer stripped and decoded by conftest's reference
    decoder, as PcapReader read them before it read blocks."""
    linktype = PcapReader(path).linktype
    with path.open("rb") as fh:
        fh.seek(24)
        while True:
            head = fh.read(16)
            if not head:
                return
            if len(head) < 16:
                counters.malformed += 1
                return
            ts_sec, ts_usec, incl_len, _ = struct.unpack("<IIII", head)
            counters.records += 1
            data = fh.read(incl_len)
            if len(data) < incl_len:
                counters.malformed += 1
                return
            if linktype == LINKTYPE_ETHERNET:
                if len(data) < 14:
                    counters.malformed += 1
                    continue
                ethertype, offset = struct.unpack_from(">H", data, 12)[0], 14
                if ethertype == 0x8100:
                    if len(data) < 18:
                        counters.malformed += 1
                        continue
                    ethertype, offset = struct.unpack_from(">H", data, 16)[0], 18
                if ethertype != 0x0800:
                    counters.non_ipv4 += 1
                    continue
                data = data[offset:]
            d = parse_ipv4_udp(data, ts_sec + ts_usec / 1e6, counters)
            if d is not None:
                yield d


class TestBlockDecoderOracle:
    """PcapReader's blocks plus fold_capture give the rows, sessions and
    counters of the record-at-a-time reader, the reference IPv4/UDP decoder,
    the reference record stream and its folds, on odd and truncated
    captures."""

    SCANNERS = ScannerList([net("172.16.9.0/24")])
    PREFIX_ROWS = [(net("198.51.100.0/24"), 32934, "Facebook"), (net("192.0.2.0/28"), 64500, "Lab")]
    PREFIXES = PrefixTable((network, label) for network, _, label in PREFIX_ROWS)

    @staticmethod
    def edited(packet: bytes, at: int, octets: bytes) -> bytes:
        return packet[:at] + octets + packet[at + len(octets) :]

    def ip_datagrams(self) -> list[bytes]:
        quic = [
            make_response(0.0),
            make_response(0.0, types=(PacketType.INITIAL, PacketType.HANDSHAKE), pad_to=1200),
            make_response(0.0, src="192.0.2.3", scid=b""),
            make_request(0.0),
            make_request(0.0, src="172.16.9.4"),  # a listed scanner
            make_request(0.0, dst="198.51.100.9"),
            Datagram(0.0, "198.51.100.1", "172.16.5.5", 53, 53, b"dns"),  # no QUIC port
            Datagram(0.0, "198.51.100.1", "172.16.5.5", 443, 5000, b"\x41" + b"\x99" * 24),  # short header
            Datagram(0.0, "198.51.100.1", "172.16.5.5", 443, 5000, b"\x00" * 30),  # implausible
            Datagram(0.0, "198.51.100.1", "172.16.5.5", 443, 5000, b""),
        ]
        packets = [build_ipv4_udp(d) for d in quic]
        plain = packets[0]
        with_options = bytes([0x47]) + plain[1:20] + b"\x01" * 8 + plain[20:]  # IHL 7: 8 octets of NOPs
        return packets + [
            with_options,
            self.edited(with_options, 9, b"\x06"),  # TCP behind options
            self.edited(plain, 6, b"\x20\x01"),  # more fragments, offset 1
            self.edited(plain, 6, b"\x40\x00"),  # don't fragment: kept
            self.edited(plain, 6, b"\x20\x00"),  # the first fragment: kept
            self.edited(plain, 9, b"\x06"),  # TCP
            self.edited(plain, 24, b"\x00\x07"),  # UDP length 7
            self.edited(plain, 24, b"\x07\xd0"),  # UDP length 2000, longer than the packet
            self.edited(plain, 24, b"\x00\x08"),  # UDP length 8: no payload
            self.edited(plain, 0, b"\x65"),  # IP version 6
            self.edited(plain, 0, b"\x44"),  # IHL 4
            self.edited(plain, 0, b"\x4f")[:40],  # IHL 15, longer than the packet
            self.edited(self.edited(plain, 0, b"\x4f"), 9, b"\x06")[:40],  # and TCP
            plain + b"\x00" * 6,  # padding after the UDP datagram, as an Ethernet frame may carry
            plain[:40],
            plain[:28],  # a whole UDP header and no payload
            plain[:27],  # cut inside the UDP header
            with_options[:32],  # cut inside the UDP header, behind options
            plain[:19],
            b"",
        ]

    def frames(self, linktype: int) -> list[bytes]:
        packets = self.ip_datagrams()
        if linktype == LINKTYPE_RAW_IP:
            return packets
        mac = b"\x02" * 12
        return (
            [mac + b"\x08\x00" + p for p in packets]
            + [mac + b"\x81\x00\x00\x05\x08\x00" + p for p in packets]  # 802.1Q tag
            + [mac + b"\x86\xdd" + packets[0], mac + b"\x81\x00\x00\x05\x86\xdd" + packets[0]]  # IPv6
            + [mac, mac + b"\x08", mac + b"\x81\x00", mac + b"\x81\x00\x00\x05\x08"]  # cut in a header or tag
        )

    def capture(self, tmp_path, linktype: int, cut: str) -> Path:
        frames = self.frames(linktype)
        frames.append(frames[0])  # a QUIC datagram last, where a cut falls
        blob = bytearray(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, linktype))
        last_header = 0
        for i, frame in enumerate(frames):
            last_header = len(blob)
            blob += struct.pack("<IIII", 1000 + i // 4, 250_000 * (i % 4), len(frame), len(frame)) + frame
        # one octet short of the last record's header, or of its body
        if cut == "header":
            del blob[last_header + 15 :]
        elif cut == "body":
            del blob[-1:]
        path = tmp_path / f"{linktype}-{cut}.pcap"
        path.write_bytes(bytes(blob))
        return path

    # blocks of one record header, shorter than most records and than the
    # capture, and one that holds it all
    @pytest.mark.parametrize("block", [16, 100, 1500, pcap.READ_BLOCK])
    @pytest.mark.parametrize("cut", ["none", "header", "body"])
    @pytest.mark.parametrize("linktype", [LINKTYPE_RAW_IP, LINKTYPE_ETHERNET])
    def test_same_folds_and_counters(self, tmp_path, monkeypatch, linktype, cut, block):
        path = self.capture(tmp_path, linktype, cut)
        config = PlausibilityConfig(VersionRegistry.default())
        monkeypatch.setattr(pcap, "READ_BLOCK", block)

        reader, counters = PcapReader(path), IngestCounters()
        folded = fold_capture(reader.datagrams(), config, counters, self.SCANNERS, self.PREFIXES, reader.counters)

        reference_capture, reference = CaptureCounters(), IngestCounters()
        datagrams = reference_read(path, reference_capture)
        records = reference_ingest(datagrams, config, reference, self.SCANNERS, self.PREFIX_ROWS)
        assert folded == reference_folds(records)
        assert reader.counters.as_dict() == reference_capture.as_dict()
        assert counters.as_dict() == reference.as_dict()
        # every counter meets a datagram above
        assert all(reference_capture.as_dict().values()) and all(reference.as_dict().values())
