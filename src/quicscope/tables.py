"""Line-delimited stores, plot-ready tables and the readers of every input file.

Sessions and datagrams travel between pipeline stages as JSONL. Both stores
are written with one fixed-schema format string per row whose output equals
`json.dumps(row, sort_keys=True)`. Both loaders decode each row with the C
scanner of `json`, which skips the checks of `json.loads`; a row the scanner
does not consume whole, with surrounding whitespace or an error, goes to
`json.loads`, so every row decodes, and fails, as `json.loads` has it. The
datagram store keeps each packet's type, version and CIDs; its writer drains
a record stream as it goes. fold_datagrams is its one reader, and reads it
once, numbering lines as it goes: rows that differ only in their "ts", such
as the resends of one handshake, are decoded once per block of distinct
rows and yielded with the number of rows they stand for, so time follows
the distinct rows and memory a block's, while every row, with its own "ts",
goes to a fold that reads it, such as the Sessionizer. Every session and
datagram row's values are checked for their JSON types.
TruthWriter writes `simulate`'s truth rows and pairs table the same
way, one format string per file, a row per served handshake. Analysis
outputs land as TSV with a one-line header, which read_table reads back for
the next stage. All writers are byte-deterministic for identical inputs,
which is what makes whole-pipeline runs reproducible.
Every reader here, the prefix-table, scanner-list, version-registry, profile
and JSON-settings readers included, turns a file it cannot open or decode,
and a line or value it cannot read, into an InputError that names the file
and the line or key.
"""

from __future__ import annotations

import ipaddress
import itertools
import json
import math
from functools import cache
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar

from . import InputError

# The store and list readers import ingest's and wire's types where they
# use them, so a stage that reads only tables (report) loads neither.
if TYPE_CHECKING:
    from .ingest import CaptureRecord, PrefixTable, ScannerList, Session
    from .sim import SessionTruth
    from .wire import VersionRegistry

T = TypeVar("T")


def _unreadable(path: str | Path, exc: OSError | UnicodeDecodeError) -> InputError:
    """The InputError for a file that cannot be opened or read, or that is
    not text. A decode error names no line: text is decoded a block at a time."""
    if isinstance(exc, UnicodeDecodeError):
        return InputError(f"{path}: not {exc.encoding} text ({exc.reason})")
    return InputError(f"cannot read {path}: {exc.strerror or exc}")


def fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a table as TSV with a one-line header; returns the path."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write("\t".join(header) + "\n")
        # str and int cells skip fmt_value by exact type: a bool is an int
        # subclass, and another subclass may format otherwise
        fh.writelines(
            "\t".join([v if type(v) is str else str(v) if type(v) is int else fmt_value(v) for v in row]) + "\n"
            for row in rows
        )
    return path


def read_table(
    path: str | Path, columns: Sequence[str] = (), from_row: Optional[Callable[[dict[str, str]], T]] = None
) -> list:
    """Read a TSV table's rows back as string dicts, or as what `from_row`
    makes of each; empty cells come back as empty strings. A row that lacks
    one of `columns` or that `from_row` cannot read raises InputError naming
    the file and the line."""

    def checked(row: dict[str, str]):
        for col in columns:
            if col not in row:
                raise KeyError(col)
        return row if from_row is None else from_row(row)

    header = next(_numbered_lines(path), (1, ""))[1].rstrip("\r\n").split("\t")
    return list(load_lines(path, lambda line: checked(dict(zip(header, line.split("\t")))), skip=1))


def _numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each line of `path` with its number from 1, read as the caller
    iterates; a file that cannot be opened, read or decoded raises
    InputError naming it, and what the caller does with a line is its own."""
    try:
        with Path(path).open() as fh:
            yield from enumerate(fh, 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None


def _input_error(where: str | Path, exc: KeyError | TypeError | ValueError) -> InputError:
    """The InputError for what a reader rejects at `where`, a file or a
    file:line: the reason, which for a missing field names the key."""
    if isinstance(exc, KeyError):
        return InputError(f"{where}: missing key {exc.args[0]!r}")
    return InputError(f"{where}: {exc}")


def load_lines(path: str | Path, from_line: Callable[[str], T], skip: int = 0) -> Iterator[T]:
    """Yield one object per non-blank line of `path` after the first `skip`,
    reading the file as the caller iterates and turning a line `from_line`
    cannot read into an InputError that names the file, the line and, for a
    missing field, the key. A file that cannot be opened, read or decoded
    raises InputError naming it."""
    for lineno, line in _numbered_lines(path):
        if lineno <= skip or line.isspace():  # a line read from a file is never empty
            continue
        try:
            item = from_line(line.rstrip("\r\n"))
        except (KeyError, TypeError, ValueError) as exc:
            raise _input_error(f"{path}:{lineno}", exc) from None
        yield item


def load_listing(path: str | Path, from_entry: Callable[[str], T]) -> list[T]:
    """Build one object per entry of a hand-edited list: a stripped line that
    is neither blank nor a `#` comment."""
    entries = load_lines(path, lambda line: None if line.lstrip().startswith("#") else from_entry(line.strip()))
    return [entry for entry in entries if entry is not None]


def load_scanner_list(path: str | Path) -> ScannerList:
    """Read a scanner list: one IPv4 prefix or exact address per line."""
    from .ingest import ScannerList

    return ScannerList(load_listing(path, ipaddress.IPv4Network))


def _prefix_entry(line: str) -> tuple[ipaddress.IPv4Network, int, str]:
    fields = line.split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected 3 tab-separated fields (prefix, ASN, operator), got {len(fields)}")
    prefix, asn, label = fields
    # captures are IPv4 only, and lookups mask addresses to 32 bits
    return ipaddress.IPv4Network(prefix), int(asn), label


def load_prefix_table(path: str | Path) -> PrefixTable:
    """Read a prefix table: `prefix<TAB>ASN<TAB>operator` per line."""
    from .ingest import PrefixTable

    return PrefixTable(load_listing(path, _prefix_entry))


def load_version_registry(path: str | Path) -> VersionRegistry:
    """Read a version registry: `hex_version<TAB>label` per line."""
    from .wire import VersionRegistry, registry_entry

    return VersionRegistry(dict(filter(None, load_lines(path, registry_entry))))


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", float: "number", bool: "boolean"}


def of_type(*kinds: type) -> Callable[[Any], Any]:
    """A parser for read_json_fields that accepts a JSON value of one of
    `kinds`: float accepts any finite number, and true and false are no
    numbers. json reads NaN and Infinity, which no setting can mean."""
    accepted = kinds + (int,) if float in kinds else kinds
    names = " or ".join(_JSON_TYPES[kind] for kind in kinds)

    def parse(value: Any) -> Any:
        if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in kinds):
            raise TypeError(f"expected {names}, got {json.dumps(value)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {json.dumps(value)}")
        return value

    return parse


def list_of(parse: Callable[[Any], T]) -> Callable[[Any], list[T]]:
    """A parser for read_json_fields that accepts a list of what `parse` accepts."""
    return lambda value: [parse(item) for item in of_type(list)(value)]


_json_object = of_type(dict)


def object_of(parsers: dict[str, Callable[[Any], T]], required: Sequence[str] = ()) -> Callable[[Any], dict[str, T]]:
    """A parser for read_json_fields that accepts an object and parses each
    key `parsers` names with its parser; other keys, such as `_comment`, are
    ignored. A missing `required` key raises KeyError, and a value its parser
    rejects ValueError, naming the key."""

    def parse(value: Any) -> dict[str, T]:
        raw = _json_object(value)
        out = {}
        for key, parse_value in parsers.items():
            if key not in raw:
                if key in required:
                    raise KeyError(key)
                continue
            try:
                out[key] = parse_value(raw[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"key {key!r}: {exc}") from None
        return out

    return parse


def read_json(path: str | Path, parse: Callable[[Any], T]) -> T:
    """What `parse` makes of the JSON value in `path`. A file that cannot be
    read, that is not JSON, or whose value `parse` rejects raises InputError
    naming the file and, for a missing key, the key."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise _input_error(path, exc) from None


def read_json_fields(
    path: str | Path, parsers: dict[str, Callable[[Any], T]], required: Sequence[str] = ()
) -> dict[str, T]:
    """Read the JSON object in `path` and parse its keys as object_of does;
    a top level that is not an object, a missing `required` key or a value
    its parser rejects raises InputError naming the file and the key."""
    return read_json(path, object_of(parsers, required))


def read_profiles(path: Optional[str | Path]) -> dict[str, dict]:
    """Operator -> configuration from a profiles table; the shipped table
    when `path` is None."""
    if path is None:
        return json.loads(resources.files("quicscope").joinpath("data/profiles.json").read_text())["profiles"]
    return read_json_fields(path, {"profiles": _json_object}, required=("profiles",))["profiles"]


# The default decoder's C scanner: json.loads without its type and whitespace
# checks, which a row the writers below wrote does not need.
_scan_json = json.JSONDecoder().scan_once


def _json_row(line: str) -> Any:
    """The JSON value of one store row. The scanner decodes a row it can
    consume whole; any other row, with surrounding whitespace or an error,
    goes to json.loads, so its value or its error message is json.loads'."""
    try:
        value, end = _scan_json(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


# The JSON types each scalar field of a store row may hold, with what a
# message calls them; true and false are no numbers, and ports and lengths
# are 16-bit counts. A time may be any number, NaN and Infinity included: a
# fold that never reads the datagram timestamp must not reject one. Only an
# integer time is bounded (_check_integer_time).
_NUMBER = ("a number", int, float)
_NAME = ("a string", str)
_OPTIONAL_NAME = ("a string or null", str, type(None))
_OPTIONAL_INTEGER = ("an integer or null", int, type(None))
_DATAGRAM_FIELDS = {
    "ts": _NUMBER,
    "src": _NAME,
    "dst": _NAME,
    "sport": ("a non-negative integer", int),
    "dport": ("a non-negative integer", int),
    "length": ("a non-negative integer", int),
    "operator": _OPTIONAL_NAME,
    "asn": _OPTIONAL_INTEGER,
}
_UNSIGNED = ("sport", "dport", "length")
_SESSION_FIELDS = {
    "src": _NAME,
    "dst": _NAME,
    "version": ("an integer", int),
    "operator": _OPTIONAL_NAME,
    "asn": _OPTIONAL_INTEGER,
    "start_ts": _NUMBER,
}


def _field_error(values: dict[str, Any], fields: dict[str, tuple]) -> str:
    """The message for the first of `values` that has another JSON type than
    its entry in `fields` allows, or is a count below 0 or above 65,535."""
    for key, (name, *kinds) in fields.items():
        value = values[key]
        if type(value) not in kinds or (key in _UNSIGNED and value < 0):
            return f"key {key!r}: expected {name}, got {json.dumps(value)}"
        if key in _UNSIGNED and value > 0xFFFF:
            return f"key {key!r}: expected at most 65535, got {value}"
    raise AssertionError(f"no bad value in {values}")


def _field_kinds(fields: dict[str, tuple]) -> frozenset[tuple[type, ...]]:
    """Every tuple of types that values of `fields`, in order, may have, so
    that one set lookup checks them all."""
    return frozenset(itertools.product(*(entry[1:] for entry in fields.values())))


# --- session store -----------------------------------------------------------


# One row with its keys in sorted order, and one timeline entry. Both equal
# json.dumps(row, sort_keys=True) for what the Sessionizer makes: finite
# times (%r is the float or int repr json uses), dotted addresses, hex CIDs
# and enum values that need no escaping, and operator names, which go through
# json.dumps once per distinct name.
_SESSION_ROW = (
    '{"asn": %s, "dcid": "%s", "direction": "%s", "dst": "%s", "operator": %s, '
    '"scid": "%s", "src": "%s", "start_ts": %r, "timeline": [%s], "version": %d}\n'
)
_TIMELINE_ENTRY = '[%r, "%s", %d, %s]'


def save_sessions(path: str | Path, sessions: Iterable[Session]) -> Path:
    from .ingest import PACKET_TYPES, Timeline
    from .wire import Direction

    operator_text = cache(json.dumps)
    # an enum's .value is a Python-level property; a dict get is not
    direction_text = {d: d.value for d in Direction}
    type_text = [t.value for t in PACKET_TYPES]
    entries = Timeline.ENTRY.iter_unpack
    path = Path(path)
    with path.open("w") as fh:
        fh.writelines(
            _SESSION_ROW
            % (
                "null" if s.asn is None else s.asn,
                s.key.dcid.hex(),
                direction_text[s.direction],
                s.key.dst_ip,
                operator_text(s.operator),
                s.key.scid.hex(),
                s.key.src_ip,
                s.start_ts,
                ", ".join(
                    [
                        _TIMELINE_ENTRY % (offset, type_text[code], length, "true" if coalesced else "false")
                        for offset, code, length, coalesced in entries(s.timeline.packed)
                    ]
                ),
                s.version,
            )
            for s in sessions
        )
    return path


def load_sessions(path: str | Path) -> list[Session]:
    """Read a session store back; a malformed row raises InputError."""
    from .ingest import Session, SessionKey, Timeline
    from .wire import Direction, PacketType

    directions = {d.value: d for d in Direction}
    packet_types = {t.value: t for t in PacketType}
    new = tuple.__new__
    kinds = _field_kinds(_SESSION_FIELDS)

    def from_line(line: str) -> Session:
        raw = _json_row(line)
        src, dst = raw["src"], raw["dst"]
        key = new(SessionKey, (src, dst, bytes.fromhex(raw["scid"]), bytes.fromhex(raw["dcid"])))
        timeline = Timeline()
        for offset, ptype, length, coalesced in raw["timeline"]:
            try:
                ptype = packet_types[ptype]
            except (KeyError, TypeError):
                ptype = PacketType(ptype)  # the member, or the enum's own error for a value that names none
            timeline.add(offset, ptype, length, coalesced)
        try:
            direction = directions[raw["direction"]]
        except (KeyError, TypeError):
            direction = Direction(raw["direction"])
        version, operator, asn, start_ts = raw["version"], raw.get("operator"), raw.get("asn"), raw.get("start_ts", 0.0)
        values = (src, dst, version, operator, asn, start_ts)
        if tuple(map(type, values)) not in kinds:
            raise ValueError(_field_error(dict(zip(_SESSION_FIELDS, values)), _SESSION_FIELDS))
        return new(Session, (key, timeline, direction, version, operator, asn, start_ts))

    return list(load_lines(path, from_line))


# --- datagram store ----------------------------------------------------------


# One row with its keys in sorted order. It equals json.dumps(row,
# sort_keys=True) for what ingest yields: finite timestamps (%r is the float
# repr json uses), dotted addresses and hex CIDs that need no escaping, and
# operator names, which go through json.dumps once per distinct name.
_DATAGRAM_ROW = (
    '{"asn": %s, "direction": "%s", "dport": %d, "dst": "%s", "length": %d, '
    '"operator": %s, "packets": [%s], "sport": %d, "src": "%s", "ts": %r}\n'
)


def save_datagrams(path: str | Path, records: Iterable[CaptureRecord]) -> Path:
    from .wire import Direction, PacketType

    operator_text = cache(json.dumps)
    direction_text = {d: d.value for d in Direction}
    packet_head = {t: f'["{t.value}", ' for t in PacketType}
    path = Path(path)
    with path.open("w") as fh:
        fh.writelines(
            _DATAGRAM_ROW
            % (
                "null" if r.asn is None else r.asn,
                direction_text[r.direction],
                r.dst_port,
                r.dst_ip,
                r.datagram_length,
                operator_text(r.operator),
                ", ".join(
                    [f'{packet_head[p.packet_type]}{p.version}, "{p.scid.hex()}", "{p.dcid.hex()}"]' for p in r.packets]
                ),
                r.src_port,
                r.src_ip,
                r.timestamp,
            )
            for r in records
        )
    return path


def _check_integer_time(ts: int) -> None:
    """ValueError for an integer "ts" beyond half the range of a float: a
    Sessionizer subtracts times, and two such integers differ by a float."""
    if not -(2**1022) <= ts <= 2**1022:
        raise ValueError(f"key 'ts': expected a number within ±2**1022, got an integer of {len(str(abs(ts)))} digits")


def _datagram_row() -> Callable[[str], CaptureRecord]:
    """The decoder of one datagram store row: a record whose packets carry
    only type, version and CIDs. A row that is not an object of the store's
    keys and JSON types, or that has no packet, raises KeyError, TypeError
    or ValueError. Each distinct CID text is decoded and length-checked
    once per decoder."""
    from .ingest import CaptureRecord
    from .wire import Direction, LongHeader, PacketType, check_cid_lengths

    directions = {d.value: d for d in Direction}
    packet_types = {t.value: t for t in PacketType}
    cids: dict[str, bytes] = {}
    new = tuple.__new__
    # what LongHeader(ptype, version, dcid, scid) fills in after the CIDs
    token, payload, first_byte, wire_length = LongHeader._field_defaults.values()
    kinds = _field_kinds(_DATAGRAM_FIELDS)

    def from_line(line: str) -> CaptureRecord:
        raw = _json_row(line)
        packets = []
        for ptype, version, scid_text, dcid_text in raw["packets"]:
            try:
                dcid, scid = cids[dcid_text], cids[scid_text]
            except (KeyError, TypeError):
                dcid, scid = bytes.fromhex(dcid_text), bytes.fromhex(scid_text)
                check_cid_lengths(dcid, scid)
                cids[dcid_text], cids[scid_text] = dcid, scid
            try:
                ptype = packet_types[ptype]
            except (KeyError, TypeError):
                ptype = PacketType(ptype)  # the member, or the enum's own error for a value that names none
            if type(version) is not int:
                raise ValueError(f"packet version: expected an integer, got {json.dumps(version)}")
            packets.append(new(LongHeader, (ptype, version, dcid, scid, token, payload, first_byte, wire_length)))
        if not packets:
            raise ValueError("datagram row has no packets")
        try:
            direction = directions[raw["direction"]]
        except (KeyError, TypeError):
            direction = Direction(raw["direction"])
        ts, src, dst, sport, dport, length = raw["ts"], raw["src"], raw["dst"], raw["sport"], raw["dport"], raw["length"]
        operator, asn = raw.get("operator"), raw.get("asn")
        row_kinds = (type(ts), type(src), type(dst), type(sport), type(dport), type(length), type(operator), type(asn))
        if row_kinds not in kinds or not (0 <= sport <= 0xFFFF and 0 <= dport <= 0xFFFF and 0 <= length <= 0xFFFF):
            values = (ts, src, dst, sport, dport, length, operator, asn)
            raise ValueError(_field_error(dict(zip(_DATAGRAM_FIELDS, values)), _DATAGRAM_FIELDS))
        if type(ts) is int:
            _check_integer_time(ts)
        return new(CaptureRecord, (ts, src, dst, sport, dport, direction, length, packets, operator, asn))

    return from_line


# The distinct rows the store reader holds at a time, each decoded once. A
# resend train's rows repeat across its whole backoff, tens of seconds of
# the store, so a block has to hold every row live in that span: the 270k
# flood of ROADMAP has 30,000, and a bound of 4,096 made scid 3.8 times
# slower there.
ROW_BLOCK = 1 << 16


def fold_datagrams(
    path: str | Path, add: Optional[Callable[[CaptureRecord], Any]] = None
) -> Iterator[tuple[CaptureRecord, int]]:
    """The one reader of a datagram store. It yields each distinct row of
    each block once, decoded, with the number of the block's rows it stands
    for: rows that differ only in their canonical "ts" tail, `, "ts": `, a
    JSON number and the closing brace, such as the resends of one
    handshake, are one row, yielded with timestamp 0. A block holds at most
    ROW_BLOCK distinct rows and is yielded before the next one's first, so
    memory follows a block and time the distinct rows. A row without that
    tail is yielded as it is read, with count 1.

    `add`, if given, gets every row in file order with its own "ts", read
    by json's scanner. A bad row raises InputError naming its line when it
    is reached: a repeat differs from a row that decoded only in its number,
    so the first line that fails is the first bad line of the store."""
    from .ingest import CaptureRecord

    new = tuple.__new__
    scan = _scan_json

    def counted(distinct: dict[str, list]) -> Iterator[tuple[CaptureRecord, int]]:
        for fields, n in distinct.values():
            yield new(CaptureRecord, (0,) + fields), n

    from_line = _datagram_row()
    # row text before a canonical tail -> [the record's fields after "ts", rows of the block]
    distinct: dict[str, list] = {}
    for lineno, line in _numbered_lines(path):
        pos = line.rfind(', "ts": ')
        head = None
        if pos > 0:
            try:
                ts, end = scan(line, pos + 8)
            except (StopIteration, ValueError):  # no JSON value there: the row is decoded whole
                pass
            else:
                if type(ts) in (int, float) and line[end:] in ("}\n", "}"):
                    head = line[:pos]
        elif line.isspace():  # load_lines skips blank lines too
            continue
        entry = distinct.get(head)
        if entry is None and head is not None and len(distinct) == ROW_BLOCK:
            yield from counted(distinct)
            from_line, distinct = _datagram_row(), {}
        try:
            if entry is None:
                record = from_line(line.rstrip("\r\n"))
            elif type(ts) is int:
                _check_integer_time(ts)
        except (KeyError, TypeError, ValueError) as exc:
            raise _input_error(f"{path}:{lineno}", exc) from None
        if entry is not None:
            entry[1] += 1
            if add is None:
                continue
            record = new(CaptureRecord, (ts,) + entry[0])
        elif head is not None:
            distinct[head] = [record[1:], 1]
        if add is not None:
            add(record)
        if head is None:
            yield record, 1
    yield from counted(distinct)


# --- simulator truth ---------------------------------------------------------


# One truth row with its keys in sorted order. Truth rows equal
# json.dumps(row, sort_keys=True), and pairs rows write_table's rows, for what
# the simulator serves: dotted addresses and hex CIDs that need no escaping,
# integer ports and IDs, and operator names, which go through json.dumps once
# per distinct name.
_TRUTH_ROW = (
    '{"client_dcid": "%s", "client_scid": "%s", "host_id": %d, "operator": %s, "server_scid": "%s", '
    '"source": "%s", "source_port": %d, "vip": "%s", "worker_id": %s}\n'
)


class TruthWriter:
    """Writes `simulate`'s truth rows and its pairs table a row per served
    handshake, as the simulator appends each one, so no row is held; `rows`
    counts the rows written."""

    def __init__(self, truth: TextIO, pairs: TextIO):
        self._truth = truth
        self._pairs = pairs
        self._operator_text = cache(json.dumps)
        self.rows = 0
        pairs.write("operator\tserver_scid\tclient_dcid\n")

    def append(self, t: SessionTruth) -> None:
        server_scid, client_dcid = t.server_scid.hex(), t.client_dcid.hex()
        operator = self._operator_text(t.operator)
        worker_id = "null" if t.worker_id is None else t.worker_id
        self._truth.write(
            _TRUTH_ROW
            % (
                client_dcid, t.client_scid.hex(), t.host_id, operator, server_scid, t.source, t.source_port, t.vip,
                worker_id,
            )
        )
        self._pairs.write(f"{t.operator}\t{server_scid}\t{client_dcid}\n")
        self.rows += 1
