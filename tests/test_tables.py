"""The stores ingest writes and the table and JSON readers: what is read back
equals what was written, and every bad value names its file and line."""

import enum
import ipaddress
import json
import math
import re
from array import array
from pathlib import Path

import pytest

from quicscope import InputError, tables
from quicscope.ingest import KeyRow, PrefixTable, Session, Traits
from quicscope.sim import SessionTruth
from quicscope.wire import Direction, PacketType

from conftest import fold, make_request, make_response, save_folds


class Name(str):
    pass


class Count(int):
    pass


class Level(enum.IntEnum):
    ONE = 1


def isinstance_rule(kinds: tuple, value):
    """The rule of_type's parser must agree with on every value: JSON types
    checked through isinstance, true and false no numbers, and a float
    finite."""
    accepted = kinds + (int,) if float in kinds else kinds
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in kinds):
        raise TypeError(f"expected {' or '.join(tables._JSON_TYPES[kind] for kind in kinds)}, got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {json.dumps(value)}")
    return value


def outcome(parse, value) -> tuple:
    """What `parse` gives `value`: the very value, or the error's type and text."""
    try:
        result = parse(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    assert result is value
    return "accepted", type(value)


class TestOfType:
    # every kind tuple the package builds, as its source spells it
    KINDS = {
        "dict": (dict,), "list": (list,), "str": (str,), "int": (int,), "float": (float,), "bool": (bool,),
        "str, type(None)": (str, type(None)),
    }
    VALUES = [
        True, False, 1, 0, -7, 2**70, 1.0, 1.5, math.nan, math.inf, None, "", "Facebook", Name("sub"), Count(3),
        Level.ONE, [], [1], {}, {"a": 1},
    ]

    def test_kinds_cover_every_parser_the_package_builds(self):
        source = "".join(path.read_text() for path in sorted(Path(tables.__file__).parent.glob("*.py")))
        built = set(re.findall(r"\bof_type\(([^)*]*\)?)\)", source))
        assert built == set(self.KINDS)

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("kinds", KINDS)
    def test_accepts_exactly_what_the_isinstance_rule_accepts(self, kinds, value):
        kinds = self.KINDS[kinds]
        assert outcome(tables.of_type(*kinds), value) == outcome(lambda v: isinstance_rule(kinds, v), value)

    @pytest.mark.parametrize("value, shown", [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
    def test_float_rejects_non_finite_numbers(self, value, shown):
        with pytest.raises(ValueError, match=f"^expected a finite number, got {shown}$"):
            tables.of_type(float)(value)

    def test_reading_a_store_builds_no_parser_per_row(self, tmp_path, monkeypatch):
        """A 1-row and a 50-row store of each kind take as many parsers to read."""
        built = []
        of_type = tables.of_type
        monkeypatch.setattr(tables, "of_type", lambda *kinds: built.append(kinds) or of_type(*kinds))
        counts = []
        for n in (1, 50, 1, 50):
            for name, row, read in (
                ("datagrams", TestStores.KEY_ROW, lambda path: tables.read_key_rows(path, list)),
                ("sessions", TestStores.SESSION_ROW, tables.read_sessions),
            ):
                path = tmp_path / f"{name}-{n}.jsonl"
                path.write_text("".join(json.dumps(dict(row, src=f"198.51.100.{i}")) + "\n" for i in range(n)))
                built.clear()
                assert len(list(read(path))) == n
                counts.append(len(built))
        assert counts[:2] == counts[2:4] == counts[4:6] == counts[6:]


def train_folds() -> tuple[list[KeyRow], list[Session]]:
    """The folds of resend trains next to datagrams of their own: a
    coalesced response, an unlabeled one and a request."""
    table = PrefixTable([(ipaddress.ip_network("198.51.100.0/24"), "Facebook")])
    datagrams = [make_response(ts, pad_to=1200) for ts in (0.0, 0.4, 1.2, 2.8, 6.0)]
    datagrams += [make_response(ts, scid=b"\x01" * 8, types=(PacketType.HANDSHAKE,)) for ts in (0.1, 0.5, 1.3)]
    datagrams += [
        make_response(0.2, types=(PacketType.INITIAL, PacketType.HANDSHAKE), scid=b"\x02" * 8),
        make_response(0.3, src="192.0.2.7", scid=b"\x03" * 20),
        make_request(0.6),
    ]
    datagrams.sort(key=lambda d: d.timestamp)
    return fold(datagrams, prefixes=table)


def saved_folds(tmp_path) -> tuple:
    """Both stores of train_folds(), written as ingest writes them, with the folds written."""
    folded = train_folds()
    return save_folds(tmp_path, folded), *folded


def session_fields(session: Session) -> tuple:
    return session.src_ip, session.operator, session.direction, session.version, list(session.offsets)


def read_back(datagrams, sessions) -> tuple:
    """Both stores read back, each session's offsets as a list."""
    rows = list(tables.read_key_rows(datagrams, list))
    return (
        {(r.direction, r.src_ip, r.operator): (r.traits, r.sessions) for r in rows},
        [session_fields(s) for s in tables.read_sessions(sessions)],
    )


def expected(rows, sessions) -> tuple:
    return (
        {(r.direction, r.src_ip, r.operator): (r.traits, [list(s.offsets) for s in r.sessions]) for r in rows},
        [session_fields(s) for s in sessions],
    )


class TestStores:
    """The datagram store's rows, one per (direction, source, operator)
    key, and the session store's, one per session, against the folds that
    ingest writes."""

    def test_round_trip_keeps_every_fold(self, tmp_path):
        paths, rows, sessions = saved_folds(tmp_path)
        assert len(rows) == 3 and len(sessions) == 5
        assert read_back(*paths) == expected(rows, sessions)

    def test_rows_equal_sorted_json_dumps(self, tmp_path):
        fb, cafe = 'Say "cheese" \\ co', "Café ✓ 東京"
        # no address the simulator writes needs escaping, but the row holds any string
        odd = 'host "7"\\ \t✓'

        sessions = [
            Session("198.51.100.1", fb, Direction.RESPONSE, 1, array("d", [0.0, 0.0, 0.1 + 0.2, 1e-07])),
            Session("172.16.5.5", None, Direction.REQUEST, 0xFACEB002, array("d", [0.0])),
            Session("198.51.100.1", fb, Direction.RESPONSE, 0xFF00001D, array("d")),
            Session(odd, cafe, Direction.RESPONSE, 1, array("d", [1e22, 2.5])),
        ]
        rows = [
            KeyRow(
                Direction.RESPONSE, "198.51.100.1", fb,
                Traits({(("Initial", "Handshake"), 1200): 3, (("Initial",), 42): 1}, {b"\x01" * 20, b""}),
                [sessions[0], sessions[2]],
            ),
            KeyRow(Direction.REQUEST, "172.16.5.5", None, Traits({(("Initial",), 1252): 2}, set()), [sessions[1]]),
            KeyRow(Direction.RESPONSE, odd, cafe, Traits({(("Retry",), 0): 1}, {b"\xff" * 8}), [sessions[3]]),
        ]
        key_rows = [
            {"direction": "response", "src": "198.51.100.1", "operator": fb,
             "shapes": [[["Initial"], 42, 1], [["Initial", "Handshake"], 1200, 3]], "scids": ["", "01" * 20],
             "sessions": "0 0 0.30000000000000004 1e-07;;"},
            {"direction": "request", "src": "172.16.5.5", "operator": None,
             "shapes": [[["Initial"], 1252, 2]], "scids": [], "sessions": "0;"},
            {"direction": "response", "src": odd, "operator": cafe,
             "shapes": [[["Retry"], 0, 1]], "scids": ["ff" * 8], "sessions": "1e+22 2.5;"},
        ]
        session_rows = [
            {"direction": "response", "src": "198.51.100.1", "operator": fb, "version": 1,
             "offsets": "0 0 0.30000000000000004 1e-07"},
            {"direction": "request", "src": "172.16.5.5", "operator": None, "version": 0xFACEB002, "offsets": "0"},
            {"direction": "response", "src": "198.51.100.1", "operator": fb, "version": 0xFF00001D, "offsets": ""},
            {"direction": "response", "src": odd, "operator": cafe, "version": 1, "offsets": "1e+22 2.5"},
        ]
        paths = tmp_path / "datagrams.jsonl", tmp_path / "sessions.jsonl"
        tables.save_stores(*paths, rows, sessions)
        for path, written in zip(paths, (key_rows, session_rows)):
            assert path.read_text() == "".join(json.dumps(row, sort_keys=True) + "\n" for row in written)
        assert read_back(*paths) == expected(rows, sessions)

    def test_rows_in_any_key_order_or_spacing_load_as_canonical_rows(self, tmp_path):
        paths, rows, sessions = saved_folds(tmp_path)
        for path in paths:
            written = [json.loads(line) for line in path.read_text().splitlines()]
            path.write_text(
                "\n \t\n".join(
                    " " * (i % 3)
                    + json.dumps(dict(reversed(row.items())), separators=(" ,  ", " :\t"))
                    + ("\t \r" if i % 2 else "")
                    for i, row in enumerate(written)
                )
            )
        assert read_back(*paths) == expected(rows, sessions)

    def test_each_session_keeps_what_the_reader_keeps(self, tmp_path):
        (datagrams, _), rows, sessions = saved_folds(tmp_path)
        kept = list(tables.read_key_rows(datagrams, len))
        assert sorted(n for row in kept for n in row.sessions) == sorted(len(s.offsets) for s in sessions)
        read = list(tables.read_key_rows(datagrams))
        assert [row.sessions for row in read] == [[]] * len(rows)
        assert [row._replace(sessions=[]) for row in rows] == read

    # a row of each store, and the edits that make it bad, with what the reader
    # says: an edit is a line that replaces the whole row, or values that
    # replace the row's own, where KeyError drops the key
    KEY_ROW = {
        "direction": "response", "src": "198.51.100.1", "operator": "Facebook",
        "shapes": [[["Initial"], 1200, 2]], "scids": ["bb" * 8], "sessions": "0.0 0.4;0.0;",
    }
    SESSION_ROW = {"direction": "response", "src": "198.51.100.1", "operator": None, "version": 1, "offsets": "0.0 0.4"}
    LABELS = '"Initial", "0-RTT", "Handshake", "Retry", "VersionNegotiation"'
    DIRECTIONS = '"request", "response"'
    # bad in either store
    BAD_ROWS = {
        "not-json": ("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        "key-without-colon": ('{"direction" "response"}', "Expecting ':' delimiter: line 1 column 14 (char 13)"),
        "row-is-array": ("[]", "expected object, got []"),
        "row-is-string": ('"row"', 'expected object, got "row"'),
        "null-row": ("null", "expected object, got null"),
        "no-direction": ({"direction": KeyError}, "missing key 'direction'"),
        "no-src": ({"src": KeyError}, "missing key 'src'"),
        "no-operator": ({"operator": KeyError}, "missing key 'operator'"),
        "sideways-direction": ({"direction": "sideways"}, f'key \'direction\': expected one of {DIRECTIONS}, got "sideways"'),
        "list-direction": ({"direction": ["response"]}, f'key \'direction\': expected one of {DIRECTIONS}, got ["response"]'),
        "non-quic-direction": ({"direction": "non_quic"}, f'key \'direction\': expected one of {DIRECTIONS}, got "non_quic"'),
        "null-direction": ({"direction": None}, f"key 'direction': expected one of {DIRECTIONS}, got null"),
        "integer-src": ({"src": 5}, "key 'src': expected string, got 5"),
        "null-src": ({"src": None}, "key 'src': expected string, got null"),
        "list-operator": ({"operator": ["Facebook"]}, 'key \'operator\': expected string or null, got ["Facebook"]'),
        "integer-operator": ({"operator": 7}, "key 'operator': expected string or null, got 7"),
        "boolean-operator": ({"operator": True}, "key 'operator': expected string or null, got true"),
    }
    BAD_KEY_ROWS = {
        **BAD_ROWS,
        "no-shapes": ({"shapes": KeyError}, "missing key 'shapes'"),
        "no-scids": ({"scids": KeyError}, "missing key 'scids'"),
        "no-sessions": ({"sessions": KeyError}, "missing key 'sessions'"),
        "object-shapes": ({"shapes": {}}, "key 'shapes': expected array, got {}"),
        "null-shapes": ({"shapes": None}, "key 'shapes': expected array, got null"),
        "shape-as-object": ({"shapes": [{}]}, "key 'shapes': expected array, got {}"),
        "shape-without-types": ({"shapes": [[[], 1200, 2]]}, "key 'shapes': expected [[packet type, ...], datagram length, datagrams], got [[], 1200, 2]"),
        "shape-without-count": ({"shapes": [[["Initial"], 1200]]}, 'key \'shapes\': expected [[packet type, ...], datagram length, datagrams], got [["Initial"], 1200]'),
        "shape-with-four-fields": ({"shapes": [[["Initial"], 1200, 2, 0]]}, 'key \'shapes\': expected [[packet type, ...], datagram length, datagrams], got [["Initial"], 1200, 2, 0]'),
        "types-as-string": ({"shapes": [["Initial", 1200, 2]]}, 'key \'shapes\': expected array, got "Initial"'),
        "unknown-type": ({"shapes": [[["initial"], 1200, 2]]}, f'key \'shapes\': expected one of {LABELS}, got "initial"'),
        "null-type": ({"shapes": [[[None], 1200, 2]]}, f"key 'shapes': expected one of {LABELS}, got null"),
        "float-length": ({"shapes": [[["Initial"], 1200.0, 2]]}, "key 'shapes': expected integer, got 1200.0"),
        "string-length": ({"shapes": [[["Initial"], "1200", 2]]}, 'key \'shapes\': expected integer, got "1200"'),
        "negative-length": ({"shapes": [[["Initial"], -5, 2]]}, "key 'shapes': expected an integer from 0 to 65535, got -5"),
        "length-above-16-bits": ({"shapes": [[["Initial"], 65536, 2]]}, "key 'shapes': expected an integer from 0 to 65535, got 65536"),
        "no-datagrams": ({"shapes": [[["Initial"], 1200, 0]]}, "key 'shapes': expected an integer from 1 to 9007199254740992, got 0"),
        "datagrams-beyond-floats": ({"shapes": [[["Initial"], 1200, 2**53 + 1]]}, "key 'shapes': expected an integer from 1 to 9007199254740992, got 9007199254740993"),
        "float-datagrams": ({"shapes": [[["Initial"], 1200, 2.0]]}, "key 'shapes': expected integer, got 2.0"),
        "boolean-datagrams": ({"shapes": [[["Initial"], 1200, True]]}, "key 'shapes': expected integer, got true"),
        "bad-second-shape": ({"shapes": [[["Initial"], 1200, 2], [["Retry"], 0, -1]]}, "key 'shapes': expected an integer from 1 to 9007199254740992, got -1"),
        "scids-as-string": ({"scids": "bb"}, 'key \'scids\': expected array, got "bb"'),
        "scid-not-hex": ({"scids": ["zz"]}, "key 'scids': non-hexadecimal number found in fromhex() arg at position 0"),
        "scid-of-odd-length": ({"scids": ["abc"]}, "key 'scids': non-hexadecimal number found in fromhex() arg at position 3"),
        "scid-too-long": ({"scids": ["ab" * 21]}, "key 'scids': CID of 21 octets exceeds 20"),
        "integer-scid": ({"scids": [5]}, "key 'scids': expected string, got 5"),
        "null-scid": ({"scids": [None]}, "key 'scids': expected string, got null"),
        "sessions-as-list": ({"sessions": ["0.0"]}, 'key \'sessions\': expected string, got ["0.0"]'),
        "null-sessions": ({"sessions": None}, "key 'sessions': expected string, got null"),
        "session-without-end": ({"sessions": "0.0;0.4"}, "key 'sessions': expected a ';' after each session's offsets"),
        "offsets-without-end": ({"sessions": "0.0"}, "key 'sessions': expected a ';' after each session's offsets"),
        "offset-not-a-number": ({"sessions": "0.0 x;"}, "key 'sessions': could not convert string to float: 'x'"),
        "offsets-joined-by-commas": ({"sessions": "0.0,0.4;"}, "key 'sessions': could not convert string to float: '0.0,0.4'"),
        "nan-offset": ({"sessions": "0.0;nan;"}, "key 'sessions': expected offsets within ±2**1022, got nan"),
        "infinite-offset": ({"sessions": "inf;"}, "key 'sessions': expected offsets within ±2**1022, got inf"),
        "offset-beyond-the-bound": ({"sessions": "1e308;"}, "key 'sessions': expected offsets within ±2**1022, got 1e308"),
        "offset-below-the-bound": ({"sessions": "0;0 -1e308;"}, "key 'sessions': expected offsets within ±2**1022, got -1e308"),
    }
    BAD_SESSION_ROWS = {
        **BAD_ROWS,
        "no-version": ({"version": KeyError}, "missing key 'version'"),
        "no-offsets": ({"offsets": KeyError}, "missing key 'offsets'"),
        "string-version": ({"version": "1"}, 'key \'version\': expected integer, got "1"'),
        "float-version": ({"version": 1.0}, "key 'version': expected integer, got 1.0"),
        "boolean-version": ({"version": True}, "key 'version': expected integer, got true"),
        "null-version": ({"version": None}, "key 'version': expected integer, got null"),
        "offsets-as-list": ({"offsets": [0.0]}, "key 'offsets': expected string, got [0.0]"),
        "null-offsets": ({"offsets": None}, "key 'offsets': expected string, got null"),
        "offset-not-a-number": ({"offsets": "0.0 x"}, "key 'offsets': could not convert string to float: 'x'"),
        "offsets-as-a-key-row-session": ({"offsets": "0.0 0.4;"}, "key 'offsets': could not convert string to float: '0.4;'"),
        "nan-offset": ({"offsets": "nan"}, "key 'offsets': expected offsets within ±2**1022, got nan"),
        "infinite-offset": ({"offsets": "0.0 -inf"}, "key 'offsets': expected offsets within ±2**1022, got -inf"),
        "offset-beyond-the-bound": ({"offsets": "0 1e308"}, "key 'offsets': expected offsets within ±2**1022, got 1e308"),
    }
    # where the bad row goes in a store of rows at lines 1, 3, 4, ...: the
    # row's index, and whether the store's last line ends in a newline
    PLACES = {
        "first-row": (0, True),
        "row-after-a-blank-line": (1, True),
        "last-row": (-1, True),
        "last-row-without-newline": (-1, False),
    }

    @staticmethod
    def bad_line(row: dict, edit) -> str:
        if isinstance(edit, str):
            return edit
        row = dict(row, **edit)
        return json.dumps({k: v for k, v in row.items() if v is not KeyError}, sort_keys=True)

    def read_bad_store(self, path, read, edit, place) -> tuple[list, int, InputError]:
        """`path`'s rows with the row at `place` made bad by `edit`, written
        back with a blank line after the first row; the rows `read` yields
        before it fails, the bad row's line and the InputError."""
        lines = path.read_text().splitlines()
        where, newline = self.PLACES[place]
        where %= len(lines)
        lines[where] = self.bad_line(json.loads(lines[where]), edit)
        path.write_text(lines[0] + "\n\t \n" + "".join(line + "\n" for line in lines[1:]).removesuffix("" if newline else "\n"))
        rows = []
        with pytest.raises(InputError) as excinfo:
            for row in read(path):
                rows.append(row)
        return rows, where + 1 + (where > 0), excinfo.value

    @pytest.mark.parametrize("keep", [None, list], ids=["no-sessions-kept", "sessions-kept"])
    @pytest.mark.parametrize("place", sorted(PLACES))
    @pytest.mark.parametrize("bad", sorted(BAD_KEY_ROWS))
    def test_bad_key_row_names_file_line_and_key(self, tmp_path, bad, place, keep):
        """The rows before a bad row read as they were written, and the bad
        row fails naming its line, whether or not the sessions are kept."""
        edit, message = self.BAD_KEY_ROWS[bad]
        (path, _), _, _ = saved_folds(tmp_path)
        good = list(tables.read_key_rows(path, keep))
        rows, lineno, error = self.read_bad_store(path, lambda p: tables.read_key_rows(p, keep), edit, place)
        assert str(error) == f"{path}:{lineno}: {message}"
        assert rows == good[: len(rows)] and len(rows) == self.PLACES[place][0] % len(good)

    @pytest.mark.parametrize("place", sorted(PLACES))
    @pytest.mark.parametrize("bad", sorted(BAD_SESSION_ROWS))
    def test_bad_session_row_names_file_line_and_key(self, tmp_path, bad, place):
        edit, message = self.BAD_SESSION_ROWS[bad]
        (_, path), _, _ = saved_folds(tmp_path)
        good = list(tables.read_sessions(path))
        rows, lineno, error = self.read_bad_store(path, tables.read_sessions, edit, place)
        assert str(error) == f"{path}:{lineno}: {message}"
        assert rows == good[: len(rows)] and len(rows) == self.PLACES[place][0] % len(good)

    def test_good_rows_read(self, tmp_path):
        path = tmp_path / "datagrams.jsonl"
        path.write_text(json.dumps(self.KEY_ROW) + "\n")
        (row,) = tables.read_key_rows(path, list)
        assert row == KeyRow(
            Direction.RESPONSE, "198.51.100.1", "Facebook", Traits({(("Initial",), 1200): 2}, {b"\xbb" * 8}), [[0.0, 0.4], [0.0]]
        )
        path.write_text(json.dumps(self.SESSION_ROW) + "\n")
        (session,) = tables.read_sessions(path)
        assert session_fields(session) == ("198.51.100.1", None, Direction.RESPONSE, 1, [0.0, 0.4])


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
