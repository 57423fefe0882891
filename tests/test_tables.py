"""Datagram store: records loaded back equal the records ingest yielded."""

import ipaddress
import json
import math
import re
from collections import deque
from itertools import repeat

import pytest

from quicscope import InputError, tables
from quicscope.cli import _operator_or_unknown, main
from quicscope.ingest import (
    CaptureRecord,
    PrefixTable,
    Session,
    Sessionizer,
    SessionKey,
    Timeline,
    group_traits,
    ingest,
)
from quicscope.sim import SessionTruth
from quicscope.wire import Direction, LongHeader, PacketType

from conftest import datagram_rows, make_request, make_response, packets_of, sessions_of, timeline_entries, traits_of


def stored_fields(record: CaptureRecord) -> tuple:
    """Every field the store keeps; packets keep type, version and CIDs."""
    return (
        record.timestamp,
        record.src_ip,
        record.dst_ip,
        record.src_port,
        record.dst_port,
        record.direction,
        record.datagram_length,
        [(p.packet_type, p.version, p.dcid, p.scid) for p in record.packets],
        record.operator,
        record.asn,
    )


def live_records() -> list[CaptureRecord]:
    table = PrefixTable([(ipaddress.ip_network("198.51.100.0/24"), 32934, "Facebook")])
    datagrams = [
        make_response(0.0, types=(PacketType.INITIAL, PacketType.HANDSHAKE), pad_to=1200),
        make_response(0.25, scid=b"\x01" * 20, dcid=b""),
        make_response(0.5, src="192.0.2.7", types=(PacketType.HANDSHAKE,), version=0xFF00001D),
        make_request(0.75),
    ]
    return list(ingest(packets_of(datagrams), prefixes=table))


class TestOfType:
    @pytest.mark.parametrize("value, shown", [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
    def test_float_rejects_non_finite_numbers(self, value, shown):
        with pytest.raises(ValueError, match=f"^expected a finite number, got {shown}$"):
            tables.of_type(float)(value)


def every_row(path) -> list[CaptureRecord]:
    """Every row of a datagram store, with its own timestamp, in file order,
    as the store's reader hands them to a fold."""
    rows = []
    deque(tables.fold_datagrams(path, rows.append), maxlen=0)
    return rows


class TestDatagramStore:
    def test_round_trip_keeps_every_stored_field(self, tmp_path):
        live = live_records()
        assert len(live) == 4
        assert {r.direction for r in live} == {Direction.REQUEST, Direction.RESPONSE}
        assert {r.operator for r in live} == {"Facebook", None}
        loaded = every_row(tables.save_datagrams(tmp_path / "datagrams.jsonl", live))
        assert all(isinstance(r, CaptureRecord) for r in loaded)
        assert [stored_fields(r) for r in loaded] == [stored_fields(r) for r in live]
        assert [r.types for r in loaded] == [r.types for r in live]

    def test_stats_agree_on_live_and_loaded_records(self, tmp_path):
        live = live_records()
        loaded = every_row(tables.save_datagrams(tmp_path / "datagrams.jsonl", live))
        for key in (lambda r: r.operator or "Unknown", lambda r: (r.src_ip, r.operator)):
            assert traits_of(loaded, key) == traits_of(live, key)
        assert traits_of(live, lambda r: r.operator)["Facebook"].type_counts()["Initial & Handshake"] == 1

    def test_rows_equal_sorted_json_dumps(self, tmp_path):
        def packet(ptype, version, octet):
            return LongHeader(ptype, version, bytes([octet]) * 8, bytes([octet + 1]) * 20)

        coalesced = [
            packet(PacketType.INITIAL, 1, 0x01),
            packet(PacketType.HANDSHAKE, 1, 0x03),
            packet(PacketType.ZERO_RTT, 0xFF00001D, 0x05),
        ]
        records = [
            CaptureRecord(7, "198.51.100.1", "172.16.5.5", 443, 50000, Direction.RESPONSE, 1200, coalesced,
                          'Say "cheese" \\ co', 32934),
            CaptureRecord(1700000000.123456, "192.0.2.7", "172.16.0.1", 443, 1, Direction.RESPONSE, 42,
                          [packet(PacketType.RETRY, 0xFACEB002, 0x07)], "Café ✓ 東京", 0),
            CaptureRecord(0.1 + 0.2, "172.16.5.5", "198.51.100.1", 50000, 443, Direction.REQUEST, 1200,
                          [LongHeader(PacketType.VERSION_NEGOTIATION, 0, b"", b"")], None, None),
            CaptureRecord(1e-07, "10.0.0.1", "10.0.0.2", 443, 443, Direction.RESPONSE, 0, [], "Facebook", None),
        ]
        # the store's row as json.dumps writes it
        reference = "".join(
            json.dumps(
                {
                    "ts": r.timestamp,
                    "src": r.src_ip,
                    "dst": r.dst_ip,
                    "sport": r.src_port,
                    "dport": r.dst_port,
                    "direction": r.direction.value,
                    "length": r.datagram_length,
                    "operator": r.operator,
                    "asn": r.asn,
                    "packets": [[p.packet_type.value, p.version, p.scid.hex(), p.dcid.hex()] for p in r.packets],
                },
                sort_keys=True,
            )
            + "\n"
            for r in records
        )
        path = tables.save_datagrams(tmp_path / "datagrams.jsonl", records)
        assert path.read_bytes() == reference.encode()
        # ingest never yields a datagram without a packet, and the loader rejects its row
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:4: datagram row has no packets"):
            every_row(path)
        path = tables.save_datagrams(tmp_path / "datagrams.jsonl", records[:3])
        assert [stored_fields(r) for r in every_row(path)] == [stored_fields(r) for r in records[:3]]

    def test_rows_in_any_key_order_or_spacing_load_as_canonical_rows(self, tmp_path):
        live = live_records()
        canonical = tables.save_datagrams(tmp_path / "datagrams.jsonl", live)
        rows = [json.loads(line) for line in canonical.read_text().splitlines()]
        path = tmp_path / "edited.jsonl"
        path.write_text(
            "".join(
                " " * (i % 3)
                + json.dumps(dict(reversed(row.items())), separators=(" ,  ", " :\t"))
                + ("\t \r\n" if i % 2 else "\n")
                for i, row in enumerate(rows)
            )
        )
        assert [stored_fields(r) for r in every_row(path)] == [stored_fields(r) for r in live]

    @pytest.mark.parametrize(
        "bad_row,message",
        [
            ("{not json", "Expecting property name"),
            (json.dumps({"ts": 1.0, "packets": 5}), "not iterable"),
            (json.dumps({"ts": 1.0, "packets": [["X", 1, "", ""]]}), "'X' is not a valid PacketType"),
            (json.dumps({"ts": 1.0, "packets": [[[1], 1, "", ""]]}), "[1] is not a valid PacketType"),
            (json.dumps({"ts": 1.0, "packets": [["initial", 1, "", "zz"]]}), "non-hexadecimal number"),
            (json.dumps({"ts": 1.0, "packets": [["initial", 1, "", "00" * 21]]}), "exceeds 20"),
            # a known packet, then a direction the store does not name
            (json.dumps({"ts": 1.0, "packets": [["initial", 1, "", ""]]}), "missing key 'direction'"),
            (json.dumps({"ts": 1.0, "packets": [["initial", 1, "", ""]], "direction": "sideways"}), "'sideways' is not a valid Direction"),
            (json.dumps({"ts": 1.0, "packets": [["initial", 1, "", ""]], "direction": ["response"]}), "['response'] is not a valid Direction"),
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, bad_row, message):
        path = tables.save_datagrams(tmp_path / "datagrams.jsonl", live_records()[:2])
        with path.open("a") as fh:
            fh.write(bad_row + "\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:3: ") as excinfo:
            every_row(path)
        assert message in str(excinfo.value)


def train_records() -> list[CaptureRecord]:
    """Resend trains, whose rows differ only in their timestamps, next to
    rows of their own: a coalesced response, an unlabeled one and a request."""
    table = PrefixTable([(ipaddress.ip_network("198.51.100.0/24"), 32934, "Facebook")])
    datagrams = [make_response(ts, pad_to=1200) for ts in (0.0, 0.4, 1.2, 2.8, 6.0)]
    datagrams += [make_response(ts, scid=b"\x01" * 8, types=(PacketType.HANDSHAKE,)) for ts in (0.1, 0.5, 1.3)]
    datagrams += [
        make_response(0.2, types=(PacketType.INITIAL, PacketType.HANDSHAKE), scid=b"\x02" * 8),
        make_response(0.3, src="192.0.2.7", scid=b"\x03" * 20),
        make_request(0.6),
    ]
    datagrams.sort(key=lambda d: d.timestamp)
    return list(ingest(packets_of(datagrams), prefixes=table))


def classify_key(record: CaptureRecord) -> tuple:
    return record.src_ip, record.operator


# the one reader's folds: none, as fingerprint and scid read the store, and classify's Sessionizer
FOLDS = ["no-fold", "sessionizer"]


class TestStoreReader:
    """fold_datagrams, the one reader of the datagram store, against the
    row-by-row reference read (conftest.datagram_rows), with no fold as
    fingerprint and scid read it and with classify's Sessionizer fold: the
    same group_traits under fingerprint's, scid's and classify's keys, and
    with the fold, the same rows handed over and the same sessions; on odd
    rows, blank lines, integer timestamps and resend trains across blocks.
    A bad row in any place, or a store that cannot be read, fails with the
    reference's own InputError."""

    @staticmethod
    def traits(pairs) -> dict:
        pairs = list(pairs)
        responses = [pair for pair in pairs if pair[0].direction is Direction.RESPONSE]
        return {
            "fingerprint": group_traits(pairs, _operator_or_unknown),
            "scid": group_traits(responses, _operator_or_unknown, shapes=False),
            "classify": group_traits(responses, classify_key),
        }

    @staticmethod
    def sessions(rows, sessions) -> tuple:
        """Rows and sessions by repr, so that a NaN time equals itself and 3 is not 3.0."""
        return repr(rows), repr([session_fields(s) for s in sessions])

    @classmethod
    def read(cls, path, fold: str) -> tuple:
        if fold == "no-fold":
            return (cls.traits(tables.fold_datagrams(path)),)
        sessionizer = Sessionizer()
        rows = []

        def add(row):
            rows.append(row)
            if row.direction is Direction.RESPONSE:
                sessionizer.add(row)

        return (cls.traits(tables.fold_datagrams(path, add)), *cls.sessions(rows, sessionizer.sessions()))

    @classmethod
    def reference(cls, path, fold: str) -> tuple:
        rows = datagram_rows(path)
        traits = cls.traits(zip(rows, repeat(1)))
        if fold == "no-fold":
            return (traits,)
        return traits, *cls.sessions(rows, sessions_of(r for r in rows if r.direction is Direction.RESPONSE))

    def outcomes(self, path, fold: str) -> tuple:
        """(what the reader gives or its InputError message) and the same of the reference."""
        results = []
        for read in (self.read, self.reference):
            try:
                results.append(read(path, fold))
            except InputError as exc:
                results.append(str(exc))
        return tuple(results)

    @staticmethod
    def counts(path, fold: str) -> list[tuple[CaptureRecord, int]]:
        return list(tables.fold_datagrams(path, None if fold == "no-fold" else lambda row: None))

    @pytest.mark.parametrize("fold", FOLDS)
    def test_resends_count_as_one_row(self, tmp_path, fold):
        path = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records())
        pairs = self.counts(path, fold)
        assert sum(n for _, n in pairs) == 11
        assert sorted(n for _, n in pairs) == [1, 1, 1, 3, 5]
        read, reference = self.outcomes(path, fold)
        assert read == reference
        assert read[0]["fingerprint"]["Facebook"].shapes[(("Initial",), 1200)] == 5

    @pytest.mark.parametrize("fold", FOLDS)
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_a_row_counted_in_parts_across_blocks(self, tmp_path, monkeypatch, block, fold):
        path = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records())
        monkeypatch.setattr(tables, "ROW_BLOCK", block)
        counts = [n for record, n in self.counts(path, fold) if record.datagram_length == 1200]
        assert len(counts) > 1 and sum(counts) == 5
        read, reference = self.outcomes(path, fold)
        assert read == reference

    @pytest.mark.parametrize("fold", FOLDS)
    def test_resend_train_spans_blocks(self, tmp_path, monkeypatch, fold):
        path = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records())
        monkeypatch.setattr(tables, "ROW_BLOCK", 2)
        # with two distinct rows a block, the five-row train of the first response falls in four
        counts = [n for record, n in self.counts(path, fold) if record.datagram_length == 1200]
        assert sorted(counts) == [1, 1, 1, 2]
        read, reference = self.outcomes(path, fold)
        assert isinstance(read, tuple)
        assert read == reference
        assert read[0]["classify"][("198.51.100.1", "Facebook")].shapes[(("Initial",), 1200)] == 5

    # how each kind of odd row is made from a canonical row's line
    ODD_ROWS = {
        "crlf-endings": lambda line: line + "\r",
        "surrounding-whitespace": lambda line: " \t" + line + "  ",
        "nan-ts": lambda line: re.sub(r'"ts": [^}]*}$', '"ts": NaN}', line),
        "overflowing-ts": lambda line: re.sub(r'"ts": [^}]*}$', '"ts": 1e999}', line),
        "negative-zero-ts": lambda line: re.sub(r'"ts": [^}]*}$', '"ts": -0}', line),
        "exponent-ts": lambda line: re.sub(r'"ts": [^}]*}$', '"ts": 2.5E+3}', line),
        "negative-exponent-ts": lambda line: re.sub(r'"ts": [^}]*}$', '"ts": -1e-07}', line),
        "largest-integer-ts": lambda line: re.sub(r'"ts": [^}]*}$', f'"ts": {2**1022}}}', line),
        "smallest-integer-ts": lambda line: re.sub(r'"ts": [^}]*}$', f'"ts": {-(2**1022)}}}', line),
        "non-ascii-digit-ts": lambda line: re.sub(r'"ts": [^}]*}$', '"ts": 1١}', line),
        "leading-zero-ts": lambda line: re.sub(r'"ts": [^}]*}$', '"ts": 01}', line),
        "missing-ts": lambda line: re.sub(r', "ts": [^}]*}$', "}", line),
        "string-ts": lambda line: re.sub(r'"ts": [^}]*}$', '"ts": "x"}', line),
        "duplicated-ts": lambda line: '{"ts": "x", ' + line[1:],
        "duplicated-ts-last-bad": lambda line: line[:-1] + ', "ts": "x"}',
        "no-first-key": lambda line: '{, "ts": 1}',
    }

    @pytest.mark.parametrize("fold", FOLDS)
    @pytest.mark.parametrize("block", [4, tables.ROW_BLOCK], ids=["4-row-blocks", "one-block"])
    @pytest.mark.parametrize("every", [1, 3], ids=["every-row", "every-third-row"])
    @pytest.mark.parametrize("odd", sorted(ODD_ROWS))
    def test_odd_rows_fold_as_every_row_does(self, tmp_path, monkeypatch, odd, every, block, fold):
        monkeypatch.setattr(tables, "ROW_BLOCK", block)
        canonical = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records()).read_text().splitlines()
        lines = [self.ODD_ROWS[odd](line) if (i + 1) % every == 0 else line for i, line in enumerate(canonical)]
        path = tmp_path / "odd.jsonl"
        path.write_text("\n".join(lines) + "\n")
        read, reference = self.outcomes(path, fold)
        assert read == reference

    @pytest.mark.parametrize("fold", FOLDS)
    def test_blank_lines_and_a_last_line_without_newline(self, tmp_path, fold):
        canonical = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records()).read_text().splitlines()
        path = tmp_path / "blank.jsonl"
        path.write_text("\n \t\n" + "\n\n".join(canonical) + "\n\r\n" + canonical[0])
        read, reference = self.outcomes(path, fold)
        assert isinstance(read, tuple)
        assert read == reference
        assert read[0]["fingerprint"]["Facebook"].shapes[(("Initial",), 1200)] == 6

    @pytest.mark.parametrize("fold", FOLDS)
    def test_integer_timestamps_stay_integers(self, tmp_path, fold):
        lines = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records()).read_text().splitlines()
        path = tmp_path / "integers.jsonl"
        path.write_text("".join(re.sub(r'"ts": [^}]*}$', f'"ts": {3 * i}}}\n', line) for i, line in enumerate(lines)))
        read, reference = self.outcomes(path, fold)
        assert read == reference
        rows = every_row(path)
        sessions = sessions_of(r for r in rows if r.direction is Direction.RESPONSE)
        assert {type(row.timestamp) for row in rows} == {type(s.start_ts) for s in sessions} == {int}

    @pytest.mark.parametrize("fold", FOLDS)
    @pytest.mark.parametrize("block", [2, 4, tables.ROW_BLOCK], ids=["2-row-blocks", "4-row-blocks", "one-block"])
    @pytest.mark.parametrize("where", [0, 4, 10], ids=["first-row", "repeated-row", "last-row"])
    @pytest.mark.parametrize(
        "bad",
        [
            lambda row: "{not json",
            lambda row: json.dumps(dict(row, length=-5), sort_keys=True),
            lambda row: json.dumps(dict(row, length=65536), sort_keys=True),
            lambda row: json.dumps(dict(row, ts=None), sort_keys=True),
            lambda row: json.dumps(dict(row, ts=True), sort_keys=True),
            lambda row: json.dumps(row, sort_keys=True) + "}",
            lambda row: json.dumps(dict(row, ts=10**400), sort_keys=True),
            lambda row: json.dumps(dict(row, ts=-(2**1022) - 1), sort_keys=True),
            lambda row: re.sub(r'"ts": [^}]*}$', '"ts": 1' + "0" * 5000 + "}", json.dumps(row, sort_keys=True)),
            lambda row: json.dumps({k: v for k, v in row.items() if k != "direction"}, sort_keys=True),
            lambda row: json.dumps(dict(row, packets=[["initial", 1, "zz", "aa"]]), sort_keys=True),
        ],
        ids=[
            "not-json", "negative-length", "length-above-16-bits", "null-ts", "boolean-ts", "extra-closing-brace",
            "integer-ts-beyond-floats", "integer-ts-below-the-bound", "integer-ts-beyond-str-digits",
            "no-direction", "cid-not-hex",
        ],
    )
    def test_one_bad_row_fails_as_the_reference_does(self, tmp_path, monkeypatch, where, bad, block, fold):
        monkeypatch.setattr(tables, "ROW_BLOCK", block)
        lines = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records()).read_text().splitlines()
        assert lines[4][: lines[4].index('"ts"')] == lines[0][: lines[0].index('"ts"')]  # a resend of row 1
        lines[where] = bad(json.loads(lines[where]))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        read, reference = self.outcomes(path, fold)
        assert isinstance(reference, str) and reference.startswith(f"{path}:{where + 1}: ")
        assert read == reference

    @pytest.mark.parametrize("fold", FOLDS)
    def test_unreadable_store_fails_as_the_reference_does(self, tmp_path, fold):
        path = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records())
        path.write_bytes(path.read_bytes() + b"\xff\n")
        read, reference = self.outcomes(path, fold)
        assert reference.startswith(f"{path}: not utf-8 text")
        assert read == reference
        read, reference = self.outcomes(tmp_path / "missing.jsonl", fold)
        assert reference.startswith("cannot read ")
        assert read == reference

    @pytest.mark.parametrize("where", [0, 4, 10], ids=["first-row", "repeated-row", "last-row"])
    def test_bad_row_exits_2_naming_its_line(self, tmp_path, monkeypatch, capsys, where):
        monkeypatch.setattr(tables, "ROW_BLOCK", 4)
        lines = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records()).read_text().splitlines()
        lines[where] = json.dumps(dict(json.loads(lines[where]), length=-5), sort_keys=True)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        read, reference = self.outcomes(path, "sessionizer")
        assert reference.startswith(f"{path}:{where + 1}: ") and read == reference
        truth = tmp_path / "truth.tsv"
        truth.write_text("198.51.100.1\tFacebook\n192.0.2.7\tNotOperator\n")
        argv = ["classify", "--datagrams", str(path), "--truth", str(truth), "--out-dir", str(tmp_path / "cls")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"quicscope: {reference}\n"

    def test_a_fold_that_fails_keeps_its_error(self, tmp_path):
        # only the rows are input: an error of the fold itself is a bug, not a bad line
        path = tables.save_datagrams(tmp_path / "datagrams.jsonl", train_records())

        def add(row):
            raise ValueError("broken fold")

        with pytest.raises(ValueError, match="^broken fold$"):
            list(tables.fold_datagrams(path, add))


class TestWriteTable:
    def test_every_cell_type_formats_as_before(self, tmp_path):
        class Label(str):
            pass

        class Count(int):
            def __str__(self):
                return f"count:{int(self)}"

        header = ["a", "b", "c", "d", "e", "f"]
        rows = [
            ("Facebook", 0, -7, 10**20, True, False),
            (None, 0.123456789, 2.0, 1e-07, float("inf"), float("nan")),
            ("", Label("sub"), Count(3), PacketType.INITIAL, b"\x01", (1, 2)),
            ("Café ✓", 1 > 0, 3.0 * 1e6, -0.0, 12345678.9, [None]),
        ]
        path = tables.write_table(tmp_path / "t.tsv", header, rows)
        assert path.read_text() == (
            "a\tb\tc\td\te\tf\n"
            "Facebook\t0\t-7\t100000000000000000000\ttrue\tfalse\n"
            "\t0.123457\t2\t1e-07\tinf\tnan\n"
            "\tsub\tcount:3\tinitial\tb'\\x01'\t(1, 2)\n"
            "Café ✓\ttrue\t3e+06\t-0\t1.23457e+07\t[None]\n"
        )


class TestReadTable:
    def test_missing_column_names_file_and_line(self, tmp_path):
        path = tables.write_table(tmp_path / "t.tsv", ["operator"], [("Facebook",), ("Google",)])
        assert tables.read_table(path, columns=("operator",))[1] == {"operator": "Google"}
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:2: missing key 'share'"):
            tables.read_table(path, columns=("operator", "share"))


def session_fields(session: Session) -> tuple:
    return (
        session.key,
        timeline_entries(session.timeline),
        session.direction,
        session.version,
        session.operator,
        session.asn,
        session.start_ts,
    )


def stored_sessions() -> list[Session]:
    def session(src, scid, entries, **fields):
        s = Session(key=SessionKey(src, "172.16.5.5", scid, b"\xaa" * 8), timeline=Timeline(), **fields)
        for entry in entries:
            s.timeline.add(*entry)
        return s

    return [
        session(
            "198.51.100.1",
            b"\xbb" * 20,
            [(0.0, PacketType.INITIAL, 1200, True), (0.0, PacketType.HANDSHAKE, 1200, True),
             (0.1 + 0.2, PacketType.INITIAL, 1200, True), (1e-07, PacketType.HANDSHAKE, 42, False)],
            version=1,
            operator='Say "cheese" \\ co',
            asn=32934,
            start_ts=7,
        ),
        session(
            "192.0.2.7",
            b"",
            [(0.0, PacketType.RETRY, 0, False), (2.5, PacketType.VERSION_NEGOTIATION, 65535, False)],
            direction=Direction.REQUEST,
            version=0xFACEB002,
            operator="Café ✓ 東京",
            asn=None,
            start_ts=1700000000.123456,
        ),
        session("10.0.0.1", b"\x01", [(0.0, PacketType.ZERO_RTT, 1252, False)], start_ts=0.0),
        session("10.0.0.2", b"\x02", []),
    ]


class TestSessionStore:
    def test_rows_equal_sorted_json_dumps(self, tmp_path):
        sessions = stored_sessions()
        reference = "".join(
            json.dumps(
                {
                    "src": s.key.src_ip,
                    "dst": s.key.dst_ip,
                    "scid": s.key.scid.hex(),
                    "dcid": s.key.dcid.hex(),
                    "direction": s.direction.value,
                    "version": s.version,
                    "operator": s.operator,
                    "asn": s.asn,
                    "start_ts": s.start_ts,
                    "timeline": [
                        [offset, ptype.value, length, coalesced]
                        for offset, ptype, length, coalesced in timeline_entries(s.timeline)
                    ],
                },
                sort_keys=True,
            )
            + "\n"
            for s in sessions
        )
        path = tables.save_sessions(tmp_path / "sessions.jsonl", sessions)
        assert path.read_bytes() == reference.encode()
        assert '"start_ts": 7,' in reference and '"asn": null' in reference and "true" in reference

    def test_round_trip_keeps_every_field(self, tmp_path):
        sessions = stored_sessions()
        loaded = tables.load_sessions(tables.save_sessions(tmp_path / "sessions.jsonl", sessions))
        assert [session_fields(s) for s in loaded] == [session_fields(s) for s in sessions]
        assert all(type(s.key) is SessionKey for s in loaded)

    def test_rows_in_any_key_order_or_spacing_load_as_canonical_rows(self, tmp_path):
        sessions = stored_sessions()
        canonical = tables.save_sessions(tmp_path / "sessions.jsonl", sessions)
        rows = [json.loads(line) for line in canonical.read_text().splitlines()]
        path = tmp_path / "edited.jsonl"
        path.write_text(
            "".join(
                "\n" + " " * (i % 3) + json.dumps(dict(reversed(row.items())), indent=1).replace("\n", " ") + " \r\n"
                for i, row in enumerate(rows)
            )
        )
        assert [session_fields(s) for s in tables.load_sessions(path)] == [session_fields(s) for s in sessions]

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda row: row.update(direction="sideways"), "'sideways' is not a valid Direction"),
            (lambda row: row.update(direction=["response"]), "['response'] is not a valid Direction"),
            (lambda row: row["timeline"][0].__setitem__(1, "X"), "'X' is not a valid PacketType"),
            (lambda row: row["timeline"][0].__setitem__(1, {}), "{} is not a valid PacketType"),
            (lambda row: row.pop("scid"), "missing key 'scid'"),
            (lambda row: row.update(scid="zz"), "non-hexadecimal number"),
            (lambda row: row.update(timeline=5), "not iterable"),
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, edit, message):
        path = tables.save_sessions(tmp_path / "sessions.jsonl", stored_sessions()[:2])
        row = json.loads(path.read_text().splitlines()[0])
        edit(row)
        with path.open("a") as fh:
            fh.write(json.dumps(row) + "\n" + "{not json\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:3: ") as excinfo:
            tables.load_sessions(path)
        assert message in str(excinfo.value)
        path.write_text(path.read_text().splitlines()[0] + "\n{not json\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:2: Expecting property name"):
            tables.load_sessions(path)


class TestTruthWriter:
    """simulate's truth and pairs rows against the writers they replaced:
    json.dumps(row, sort_keys=True) and write_table."""

    ROWS = [
        SessionTruth("203.0.113.1", "100.64.0.1", 1024, "Facebook", bytes(range(8)), b"\xff" * 8, b"\x00" * 8, 0, 3),
        SessionTruth("198.51.100.20", "100.64.255.254", 65535, 'a "quoted" op\\', b"\x01" * 20, b"", b"\x02", 99, None),
        SessionTruth("10.0.0.1", "10.0.0.2", 0, "B\u00e4ckerei \u2603", b"\xab", b"\xcd" * 20, b"\xef" * 20, 7, 0),
    ]

    @staticmethod
    def truth_row(t: SessionTruth) -> dict:
        return {
            "vip": t.vip,
            "source": t.source,
            "source_port": t.source_port,
            "operator": t.operator,
            "server_scid": t.server_scid.hex(),
            "client_dcid": t.client_dcid.hex(),
            "client_scid": t.client_scid.hex(),
            "host_id": t.host_id,
            "worker_id": t.worker_id,
        }

    @pytest.mark.parametrize("count", [0, 3])
    def test_rows_equal_sorted_json_dumps_and_write_table(self, tmp_path, count):
        rows = self.ROWS[:count]
        truth_path, pairs_path = tmp_path / "truth.jsonl", tmp_path / "pairs.tsv"
        with truth_path.open("w") as truth_fh, pairs_path.open("w") as pairs_fh:
            writer = tables.TruthWriter(truth_fh, pairs_fh)
            for t in rows:
                writer.append(t)
        assert writer.rows == count
        reference = "".join(json.dumps(self.truth_row(t), sort_keys=True) + "\n" for t in rows)
        assert truth_path.read_bytes() == reference.encode()
        (tmp_path / "ref").mkdir()
        pairs = [(t.operator, t.server_scid.hex(), t.client_dcid.hex()) for t in rows]
        header = ["operator", "server_scid", "client_dcid"]
        written = tables.write_table(tmp_path / "ref" / "pairs.tsv", header, pairs)
        assert pairs_path.read_bytes() == written.read_bytes()
