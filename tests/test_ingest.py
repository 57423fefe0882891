"""Ingestion filtering, scanner sanitization, prefix mapping, sessionization."""

import ipaddress

import pytest

from quicscope.ingest import (
    IngestCounters,
    PrefixTable,
    ScannerList,
    SessionKey,
    Timeline,
    ingest,
)
from quicscope import tables
from quicscope.pcap import PcapReader, write_pcap
from quicscope.wire import Datagram, Direction, PacketType

from conftest import make_request, make_response, sessions_of


def net(s):
    return ipaddress.ip_network(s)


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
        records = list(ingest(PcapReader(path).datagrams(), counters=counters))
        assert len(records) == 3
        assert counters.total == 4
        assert counters.non_quic_port == 1
        assert counters.emitted == 3

    def test_request_and_response_both_pass(self):
        counters = IngestCounters()
        records = list(ingest([make_request(0.0), make_response(0.1)], counters=counters))
        assert [r.direction for r in records] == [Direction.REQUEST, Direction.RESPONSE]
        assert counters.requests_seen == 1 and counters.responses_seen == 1

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(path, [])
        counters = IngestCounters()
        assert list(ingest(PcapReader(path).datagrams(), counters=counters)) == []
        assert counters.total == 0

    def test_implausible_payload_counted(self):
        junk = Datagram(0.0, "198.51.100.1", "172.16.5.5", 443, 50000, b"\x00" * 100)
        counters = IngestCounters()
        assert list(ingest([junk], counters=counters)) == []
        assert counters.implausible == 1

    def test_record_packets_nonempty(self):
        for record in ingest([make_response(0.0, types=(PacketType.INITIAL, PacketType.HANDSHAKE))]):
            assert record.packets
            assert len(record.packets) == 2

    def test_record_is_immutable(self):
        (record,) = ingest([make_response(0.0)])
        with pytest.raises(AttributeError):
            record.operator = "Facebook"
        assert record._replace(operator="Facebook").operator == "Facebook" and record.operator is None

    def test_short_header_counted_not_emitted(self):
        # form bit clear, non-zero first octet: a 1-RTT short-header packet
        short = Datagram(0.0, "198.51.100.1", "172.16.5.5", 443, 50000, b"\x41" + b"\x99" * 24)
        counters = IngestCounters()
        assert list(ingest([short], counters=counters)) == []
        assert counters.short_header_only == 1
        assert counters.implausible == 0


class TestSanitize:
    def test_request_from_listed_prefix_dropped(self):
        scanners = ScannerList([net("172.16.0.0/12")])
        counters = IngestCounters()
        assert list(ingest([make_request(0.0, src="172.16.5.5")], counters=counters, scanners=scanners)) == []
        assert counters.requests_dropped == 1
        # a dropped request was emitted, as counters.tsv has always counted it
        assert counters.emitted == counters.requests_seen == 1

    def test_response_from_listed_prefix_kept(self):
        scanners = ScannerList([net("198.51.100.0/24")])
        counters = IngestCounters()
        kept = list(ingest([make_response(0.0, src="198.51.100.1")], counters=counters, scanners=scanners))
        assert len(kept) == 1
        assert counters.requests_dropped == 0

    def test_empty_scanner_list_is_identity(self):
        datagrams = [make_request(0.0), make_response(0.1)]
        assert list(ingest(datagrams, scanners=ScannerList())) == list(ingest(datagrams))

    def test_nested_and_adjacent_prefixes(self):
        scanners = ScannerList(
            [net("10.0.0.0/8"), net("10.1.0.0/16"), net("10.1.2.3/32"), net("11.0.0.0/8"), net("192.0.2.8/30")]
        )
        for ip in ("10.0.0.0", "10.1.2.3", "10.200.0.1", "11.255.255.255", "192.0.2.8", "192.0.2.11"):
            assert ip in scanners, ip
        for ip in ("9.255.255.255", "12.0.0.0", "192.0.2.7", "192.0.2.12", "0.0.0.0", "255.255.255.255"):
            assert ip not in scanners, ip

    def test_drops_only_listed_requests(self):
        scanners = ScannerList([net("172.16.5.0/24"), net("10.1.0.0/16")])
        datagrams = [
            make_request(0.0, src="172.16.5.9"),
            make_request(0.2, src="10.1.2.3"),
            make_request(0.4, src="192.0.2.77"),
            make_response(0.6),
        ]
        kept = list(ingest(datagrams, scanners=scanners))
        assert [(r.direction, r.src_ip) for r in kept] == [
            (Direction.REQUEST, "192.0.2.77"),
            (Direction.RESPONSE, "198.51.100.1"),
        ]

    def test_exact_ip_entry(self, tmp_path):
        listing = tmp_path / "scanners.txt"
        listing.write_text("# well known scanners\n203.0.113.99\n198.18.0.0/15\n")
        scanners = tables.load_scanner_list(listing)
        assert "203.0.113.99" in scanners
        assert "203.0.113.98" not in scanners
        assert "198.18.4.4" in scanners


class TestPrefixTable:
    def test_longest_prefix_wins(self):
        table = PrefixTable(
            [
                (net("128.0.0.0/9"), 65000, "big"),
                (net("128.64.3.0/24"), 65001, "small"),
            ]
        )
        assert table.lookup("128.64.3.10") == (65001, "small")
        assert table.lookup("128.64.4.10") == (65000, "big")

    def test_unknown_ip(self):
        table = PrefixTable([(net("198.51.100.0/24"), 64512, "ExampleCDN")])
        assert table.lookup("8.8.8.8") is None

    def test_single_operator_label(self):
        table = PrefixTable([(net("198.51.100.0/24"), 32934, "Facebook")])
        assert table.lookup("198.51.100.77") == (32934, "Facebook")

    def test_order_independence(self):
        entries = [
            (net("10.0.0.0/8"), 1, "a"),
            (net("10.1.0.0/16"), 2, "b"),
            (net("10.1.2.0/24"), 3, "c"),
        ]
        forward = PrefixTable(entries)
        backward = PrefixTable(entries[::-1])
        for ip in ("10.1.2.3", "10.1.9.9", "10.9.9.9"):
            assert forward.lookup(ip) == backward.lookup(ip)

    def test_load_from_tsv(self, tmp_path):
        f = tmp_path / "prefixes.tsv"
        f.write_text("198.51.100.0/24\t32934\tFacebook\n203.0.113.0/24\t13335\tCloudflare\n")
        table = tables.load_prefix_table(f)
        assert table.lookup("203.0.113.8") == (13335, "Cloudflare")

    def test_ingest_labels_the_server_side(self):
        table = PrefixTable([(net("198.51.100.0/24"), 32934, "Facebook")])
        datagrams = [
            make_response(0.0, src="198.51.100.1"),
            make_request(0.1, dst="198.51.100.1"),
            make_response(0.2, src="192.0.2.1", dst="198.51.100.1"),
            make_request(0.3, src="198.51.100.1", dst="192.0.2.1"),
        ]
        records = list(ingest(datagrams, prefixes=table))
        assert [(r.operator, r.asn) for r in records] == [("Facebook", 32934)] * 2 + [(None, None)] * 2


class TestSessionize:
    def test_resend_series_is_one_session(self):
        offsets = [0.0, 0.4, 0.8, 1.6, 3.2, 6.4, 9.0, 11.1, 13.0, 14.5]
        records = list(ingest([make_response(1000.0 + o) for o in offsets]))
        sessions = sessions_of(records)
        assert len(sessions) == 1
        assert [round(offset, 3) for offset, _, _, _ in sessions[0].timeline] == offsets

    def test_idle_gap_splits_sessions(self):
        records = list(ingest([make_response(0.0), make_response(600.0)]))
        sessions = sessions_of(records, idle_gap=60.0)
        assert len(sessions) == 2
        assert all([offset for offset, _, _, _ in s.timeline] == [0.0] for s in sessions)

    def test_different_dcid_different_session(self):
        records = list(
            ingest([make_response(0.0, dcid=b"\x01" * 8), make_response(0.1, dcid=b"\x02" * 8)])
        )
        sessions = sessions_of(records)
        assert len(sessions) == 2

    def test_coalesced_entries_share_offset(self):
        records = list(
            ingest([make_response(5.0, types=(PacketType.INITIAL, PacketType.HANDSHAKE))])
        )
        sessions = sessions_of(records)
        assert len(sessions) == 1
        assert [(offset, coalesced) for offset, _, _, coalesced in sessions[0].timeline] == [(0.0, True)] * 2

    def test_partition_property(self):
        # every parsed packet lands in exactly one session
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
        records = list(ingest(datagrams))
        total_packets = sum(len(r.packets) for r in records)
        sessions = sessions_of(records)
        assert sum(len(list(s.timeline)) for s in sessions) == total_packets
        keys = [(s.key, s.start_ts) for s in sessions]
        assert len(keys) == len(set(keys))

    def test_offsets_non_decreasing(self):
        records = list(ingest([make_response(t) for t in (0.0, 0.5, 0.5, 2.0)]))
        sessions = sessions_of(records)
        for s in sessions:
            offsets = [offset for offset, _, _, _ in s.timeline]
            assert offsets == sorted(offsets)
            assert offsets[0] == 0.0

    def test_session_carries_metadata(self):
        table = PrefixTable([(net("198.51.100.0/24"), 15169, "Google")])
        records = ingest([make_response(0.0, version=1)], prefixes=table)
        sessions = sessions_of(records)
        assert sessions[0].operator == "Google"
        assert sessions[0].version == 1
        assert sessions[0].direction == Direction.RESPONSE

    def test_key_is_exact_bytes(self):
        key_a = SessionKey("1.1.1.1", "2.2.2.2", b"\x01", b"\x02")
        key_b = SessionKey("1.1.1.1", "2.2.2.2", b"\x01", b"\x03")
        assert key_a != key_b
        assert key_a == SessionKey("1.1.1.1", "2.2.2.2", b"\x01", b"\x02")


class TestTimeline:
    ENTRIES = [
        (0.0, PacketType.INITIAL, 1200, True),
        (0.0, PacketType.HANDSHAKE, 1200, True),
        (0.1 + 0.2, PacketType.ZERO_RTT, 65535, False),
        (1e-07, PacketType.RETRY, 0, False),
    ]

    def timeline(self) -> Timeline:
        timeline = Timeline()
        for entry in self.ENTRIES:
            timeline.add(*entry)
        return timeline

    def test_entries_read_back_exactly(self):
        assert list(self.timeline()) == self.ENTRIES

    def test_offsets_of_packet_types_in_order(self):
        timeline = self.timeline()
        assert timeline.offsets((PacketType.INITIAL, PacketType.ZERO_RTT)) == [0.0, 0.1 + 0.2]
        assert timeline.offsets(()) == []

    @pytest.mark.parametrize("offset, length", [("0.5", 1200), (0.5, -1), (0.5, 1.5), (0.5, 1 << 32)])
    def test_value_no_entry_can_hold_is_value_error(self, offset, length):
        with pytest.raises(ValueError, match=r"^timeline entry \["):
            Timeline().add(offset, PacketType.INITIAL, length, False)

