"""Line-delimited stores, plot-ready tables and the readers of every input file.

Sessions and datagrams travel between pipeline stages as JSONL. Both stores
are written with one fixed-schema format string per row whose output equals
`json.dumps(row, sort_keys=True)`. Both loaders decode each row with the C
scanner of `json`, which skips the checks of `json.loads`; a row the scanner
does not consume whole, with surrounding whitespace or an error, goes to
`json.loads`, so every row decodes, and fails, as `json.loads` has it. The
datagram store keeps each packet's type, version and CIDs; its writer drains
a record stream as it goes, and its loader yields the rows one at a time as
the same `ingest.CaptureRecord` that ingest() yields, so neither holds the
store. count_datagrams reads it for folds that never read a timestamp: rows
that differ only in their "ts", such as the resends of one handshake, are
decoded once per block of distinct rows, with the number of rows they stand
for, so time follows the distinct rows and memory a block's. fold_datagrams
yields the same while it hands every row, with its own "ts", to a fold that
reads it. Every session and datagram row's values are checked for their
JSON types.
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
import re
from collections import Counter, deque
from functools import partial
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

    try:
        with Path(path).open() as fh:
            header = fh.readline().rstrip("\r\n").split("\t")
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None
    return list(load_lines(path, lambda line: checked(dict(zip(header, line.split("\t")))), skip=1))


def load_lines(path: str | Path, from_line: Callable[[str], T], skip: int = 0) -> Iterator[T]:
    """Yield one object per non-blank line of `path` after the first `skip`,
    reading the file as the caller iterates and turning a line `from_line`
    cannot read into an InputError that names the file, the line and, for a
    missing field, the key. A file that cannot be opened, read or decoded
    raises InputError naming it."""
    try:
        with Path(path).open() as fh:
            for lineno, line in enumerate(fh, 1):
                if lineno <= skip or line.isspace():  # a line read from a file is never empty
                    continue
                try:
                    item = from_line(line.rstrip("\r\n"))
                except KeyError as exc:
                    raise InputError(f"{path}:{lineno}: missing key {exc.args[0]!r}") from None
                except (TypeError, ValueError) as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from None
                yield item
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None


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
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


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


def _json_names() -> Callable[[Optional[str]], str]:
    """json.dumps of a name (None is null), computed once per distinct name:
    a store holds few operators across many rows."""
    texts: dict[Optional[str], str] = {None: "null"}

    def text(name: Optional[str]) -> str:
        found = texts.get(name)
        if found is None:
            found = texts[name] = json.dumps(name)
        return found

    return text


# The JSON types each scalar field of a store row may hold, with what a
# message calls them; true and false are no numbers, and ports and lengths
# are never negative. A time may be any number, NaN and Infinity included: a
# fold that never reads the datagram timestamp must not reject one.
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
    its entry in `fields` allows, or is a negative count."""
    key, name = next(
        (key, name)
        for key, (name, *kinds) in fields.items()
        if type(values[key]) not in kinds or (key in _UNSIGNED and values[key] < 0)
    )
    return f"key {key!r}: expected {name}, got {json.dumps(values[key])}"


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

    operator_text = _json_names()
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

    operator_text = _json_names()
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
        if row_kinds not in kinds or sport < 0 or dport < 0 or length < 0:
            values = (ts, src, dst, sport, dport, length, operator, asn)
            raise ValueError(_field_error(dict(zip(_DATAGRAM_FIELDS, values)), _DATAGRAM_FIELDS))
        return new(CaptureRecord, (ts, src, dst, sport, dport, direction, length, packets, operator, asn))

    return from_line


def load_datagrams(path: str | Path) -> Iterator[CaptureRecord]:
    """Yield a datagram store's rows, as the caller iterates, as records
    whose packets carry only type, version and CIDs; a malformed row, or one
    with no packet, raises InputError when it is reached, so a caller reads
    the whole store before it writes anything."""
    return load_lines(path, _datagram_row())


# The distinct rows a store reader holds at a time, each decoded once. A
# resend train's rows repeat across its whole backoff, tens of seconds of
# the store, so a block has to hold every row live in that span: the 270k
# flood of ROADMAP has 30,000, and a bound of 4,096 made scid 3.8 times
# slower there.
ROW_BLOCK = 1 << 16

# A canonical row's last key, "ts", with a JSON number literal: group 1 is
# the number, groups 2 and 3 its fraction and exponent. `\d` would also
# match digits that are not ASCII, which json rejects; so a row's tail is
# only ever swapped for another number, and a row with the constant in its
# place decodes exactly when the row itself does.
_TS_TAIL = re.compile(r', "ts": (-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?)}$')
_TS_CONSTANT = ', "ts": 0}'
_TS_KEY = ', "ts": '
_STORE_ERRORS = (OSError, UnicodeDecodeError, KeyError, TypeError, ValueError)


def count_datagrams(path: str | Path) -> Iterator[tuple[CaptureRecord, int]]:
    """Yield each distinct row of each block of a datagram store once,
    decoded as load_datagrams decodes it, with the number of rows of the
    block it stands for. Rows that differ only in their canonical "ts" tail
    count as one, and its record's timestamp is 0, not theirs: the resends
    of a handshake are such rows, and a fold that reads no timestamp needs
    each of them once. A row repeated in two blocks is yielded once for
    each, which a fold that sums the counts, as ingest.group_traits does,
    cannot tell apart. The rows are counted ROW_BLOCK lines at a time, so a
    block holds fewer than twice ROW_BLOCK distinct rows, each once as text.

    A store with any bad row is read again row by row, so its InputError
    names the first bad line, as load_datagrams' does."""
    normalised = partial(_TS_TAIL.sub, _TS_CONSTANT)
    try:
        with Path(path).open() as fh:
            while True:
                # the last block's rows are let go before this block's are read
                counts = Counter()
                from_line = _datagram_row()
                while len(counts) < ROW_BLOCK:
                    rows = counts.total()
                    # map and Counter run in C: no Python frame per row
                    counts.update(map(normalised, itertools.islice(fh, ROW_BLOCK)))
                    if counts.total() == rows:  # the end of the store
                        break
                if not counts:
                    return
                for text, n in counts.items():
                    if not text.isspace():  # load_lines skips blank lines too
                        yield from_line(text.rstrip("\r\n")), n
    except _STORE_ERRORS:
        deque(load_datagrams(path), maxlen=0)
        raise


def fold_datagrams(path: str | Path, add: Callable[[CaptureRecord], Any]) -> Iterator[tuple[CaptureRecord, int]]:
    """Hand every row of a datagram store to `add`, in file order, as
    load_datagrams decodes it, and yield what count_datagrams yields.

    A row with the canonical "ts" tail is decoded once per block with the
    rows that differ from it only there: each of those is handed over as
    the first one's record with the row's own "ts", parsed as json parses
    it, an integer literal as an int and any other number as a float. A
    block's distinct rows are yielded before the next block's first; a
    block holds at most ROW_BLOCK of them. Any other row is decoded whole,
    and yielded as it is handed over.

    A store with any bad row is read again row by row, so its InputError
    names the first bad line, as load_datagrams' does."""
    from .ingest import CaptureRecord

    new = tuple.__new__
    match_tail = _TS_TAIL.match

    def counted(distinct: dict[str, list]) -> Iterator[tuple[CaptureRecord, int]]:
        for fields, n in distinct.values():
            yield new(CaptureRecord, (0,) + fields), n

    try:
        with Path(path).open() as fh:
            from_line = _datagram_row()
            # row text before the tail -> [the record's fields after "ts", rows of the block]
            distinct: dict[str, list] = {}
            for line in fh:
                tail = match_tail(line, line.rfind(_TS_KEY))
                if tail is None:
                    if not line.isspace():  # load_lines skips blank lines too
                        record = from_line(line.rstrip("\r\n"))
                        add(record)
                        yield record, 1
                    continue
                head = line[: tail.start()]
                entry = distinct.get(head)
                if entry is None:
                    if len(distinct) == ROW_BLOCK:
                        yield from counted(distinct)
                        from_line, distinct = _datagram_row(), {}
                    record = from_line(line.rstrip("\r\n"))
                    distinct[head] = [record[1:], 1]
                else:
                    entry[1] += 1
                    number, fraction, exponent = tail.groups()
                    record = new(CaptureRecord, (float(number) if fraction or exponent else int(number),) + entry[0])
                add(record)
            yield from counted(distinct)
    except _STORE_ERRORS:
        deque(load_datagrams(path), maxlen=0)
        raise


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
        self._operator_text = _json_names()
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
