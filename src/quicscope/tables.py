"""Line-delimited stores, plot-ready tables and the readers of every input file.

`ingest` hands its folds to the analyses in two JSONL stores, each row
written from one fixed template per store as `json.dumps(row,
sort_keys=True)` would write it. save_stores writes the KeyRows and
Sessions of ingest.fold_capture as they come: the datagram store holds one
row per (direction, source address, operator) key, with the key's
datagrams per shape, its unique SCIDs and the offsets of each of its
sessions, and the session store one row per session, with its key fields,
version and offsets. read_key_rows and read_sessions read them back as the
same types, a row at a time, through load_lines and the object_of, of_type
and list_of parsers, which check every value's JSON type and range; each
parser is built once, not per value it checks.
TruthWriter writes `simulate`'s truth rows and pairs table with one format
string per file, a row per served handshake. Analysis outputs land as TSV
with a one-line header, which read_table reads back for the next stage.
All writers are byte-deterministic for identical inputs, which is what
makes whole-pipeline runs reproducible, and every file quicscope writes
goes through a WRITE_BLOCK buffer.
Every reader here, the prefix-table, scanner-list, version-registry, profile
and JSON-settings readers included, turns a file it cannot open or decode,
and a line or value it cannot read, into an InputError that names the file
and the line or key.
"""

from __future__ import annotations

import ipaddress
import json
import math
from array import array
from functools import cache
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar

from . import InputError

# The store and list readers import ingest's and wire's types where they
# use them, so a stage that reads only tables (report) loads neither.
if TYPE_CHECKING:
    from .ingest import KeyRow, PrefixTable, ScannerList, Session
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


# the buffer of every file quicscope writes: the capture, the truth rows, the
# pairs table, both stores and every TSV table
WRITE_BLOCK = 1 << 16


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a table as TSV with a one-line header; returns the path."""
    path = Path(path)
    with path.open("w", buffering=WRITE_BLOCK) as fh:
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
    return list(load_lines(path, lambda line: checked(dict(zip(header, line.rstrip("\r\n").split("\t")))), skip=1))


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
    raises InputError naming it. `from_line` gets the line with its line
    end, so that a long line is not copied to drop it."""
    for lineno, line in _numbered_lines(path):
        if lineno <= skip or line.isspace():  # a line read from a file is never empty
            continue
        try:
            item = from_line(line)
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


def _prefix_entry(line: str) -> tuple[ipaddress.IPv4Network, str]:
    fields = line.split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected 3 tab-separated fields (prefix, ASN, operator), got {len(fields)}")
    prefix, asn, label = fields
    int(asn)  # checked, though no output reads it
    # captures are IPv4 only, and lookups mask addresses to 32 bits
    return ipaddress.IPv4Network(prefix), label


def load_prefix_table(path: str | Path) -> PrefixTable:
    """Read a prefix table: `prefix<TAB>ASN<TAB>operator` per line. The ASN
    must be an integer, and only the operator is kept."""
    from .ingest import PrefixTable

    return PrefixTable(load_listing(path, _prefix_entry))


def load_version_registry(path: str | Path) -> VersionRegistry:
    """Read a version registry: `hex_version<TAB>label` per line."""
    from .wire import VersionRegistry, registry_entry

    return VersionRegistry(dict(filter(None, load_lines(path, registry_entry))))


_JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "integer", float: "number", bool: "boolean", type(None): "null"
}


def of_type(*kinds: type) -> Callable[[Any], Any]:
    """A parser for read_json_fields that accepts a JSON value of one of
    `kinds`: float accepts any finite number, and true and false are no
    numbers. json reads NaN and Infinity, which no setting can mean."""
    accepted = kinds + (int,) if float in kinds else kinds
    # the types json.loads gives that pass as they are: a float still needs
    # its finiteness checked, and a subclass takes the isinstance rule
    exact = frozenset(int if kind is float else kind for kind in kinds)
    names = " or ".join(_JSON_TYPES[kind] for kind in kinds)

    def parse(value: Any) -> Any:
        if type(value) in exact:
            return value
        if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in kinds):
            raise TypeError(f"expected {names}, got {json.dumps(value)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {json.dumps(value)}")
        return value

    return parse


# the parsers of one JSON type each, built once for every reader to share
json_object, json_array, json_string = of_type(dict), of_type(list), of_type(str)
json_integer, json_number = of_type(int), of_type(float)


def list_of(parse: Callable[[Any], T]) -> Callable[[Any], list[T]]:
    """A parser for read_json_fields that accepts a list of what `parse` accepts."""
    return lambda value: [parse(item) for item in json_array(value)]


def object_of(parsers: dict[str, Callable[[Any], T]], required: Sequence[str] = ()) -> Callable[[Any], dict[str, T]]:
    """A parser for read_json_fields that accepts an object and parses each
    key `parsers` names with its parser; other keys, such as `_comment`, are
    ignored. A missing `required` key raises KeyError, and a value its parser
    rejects ValueError, naming the key."""

    def parse(value: Any) -> dict[str, T]:
        raw = json_object(value)
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
    return read_json_fields(path, {"profiles": json_object}, required=("profiles",))["profiles"]


def one_of(choices: dict[str, T]) -> Callable[[Any], T]:
    """A parser for read_json_fields that accepts a string `choices` names,
    and gives what `choices` maps it to."""

    def parse(value: Any) -> T:
        if type(value) is str and value in choices:
            return choices[value]
        raise ValueError(f"expected one of {', '.join(map(json.dumps, choices))}, got {json.dumps(value)}")

    return parse


def integer_in(low: int, high: int) -> Callable[[Any], int]:
    """A parser for read_json_fields that accepts an integer from `low` to `high`."""

    def parse(value: Any) -> int:
        if not low <= json_integer(value) <= high:
            raise ValueError(f"expected an integer from {low} to {high}, got {value}")
        return value

    return parse


# --- stores ------------------------------------------------------------------


# One row of each store with its keys in sorted order, as
# json.dumps(row, sort_keys=True) writes it. The direction and the offsets
# texts need no escaping; operators and source addresses go through
# json.dumps once per distinct string, and a key row's SCIDs and shapes
# through one json.dumps each.
_KEY_ROW = '{"direction": "%s", "operator": %s, "scids": %s, "sessions": "%s", "shapes": %s, "src": %s}\n'
_SESSION_ROW = '{"direction": "%s", "offsets": "%s", "operator": %s, "src": %s, "version": %d}\n'


def _save_rows(path: Path, rows: Iterable[str]) -> None:
    with path.open("w", buffering=WRITE_BLOCK) as fh:
        fh.writelines(rows)


def _offsets_text(offsets: Iterable[float]) -> str:
    # "0" reads back as exactly 0.0, the first offset of most sessions
    return " ".join([repr(offset).removesuffix(".0") for offset in offsets])


def save_stores(datagrams: Path, sessions: Path, rows: Iterable[KeyRow], folded: Iterable[Session]) -> None:
    """Write the datagram store, one row per KeyRow of `rows` with the
    offsets of its sessions, and the session store, one row per session of
    `folded`, each in the order of its input.

    Offsets are written as their float reprs, which read back exactly,
    separated by spaces, and a key row's sessions as one string with a `;`
    after each session's offsets. So a row decodes to one string, where
    JSON arrays would make a float object per packet: a reader's memory
    follows the longest row's text, not its sessions' packets."""
    text = cache(json.dumps)
    _save_rows(
        datagrams,
        (
            _KEY_ROW
            % (
                row.direction.value,
                text(row.operator),
                json.dumps(sorted([scid.hex() for scid in row.traits.scids])),
                "".join([_offsets_text(s.offsets) + ";" for s in row.sessions]),
                json.dumps(sorted([[types, length, n] for (types, length), n in row.traits.shapes.items()])),
                text(row.src_ip),
            )
            for row in rows
        ),
    )
    _save_rows(
        sessions,
        (
            _SESSION_ROW % (s.direction.value, _offsets_text(s.offsets), text(s.operator), text(s.src_ip), s.version)
            for s in folded
        ),
    )


# half the range of a float, so that the difference of two offsets is finite too
_OFFSET_BOUND = 2.0**1022


def _offsets(value: Any) -> array:
    """A session's offsets from their text in a store row: numbers within
    ±2**1022."""
    texts = json_string(value).split()
    offsets = array("d", map(float, texts))
    if not all(map(_OFFSET_BOUND.__ge__, map(abs, offsets))):  # NaN fails the comparison too
        bad = next(text for text in texts if not abs(float(text)) <= _OFFSET_BOUND)
        raise ValueError(f"expected offsets within ±2**1022, got {bad}")
    return offsets


_optional_string = of_type(str, type(None))


# The parsers of the fields both stores' rows hold, and of those only key
# rows hold but their sessions, each built once, at the first read: they
# use wire's types.
@cache
def _row_fields() -> dict[str, Callable[[Any], Any]]:
    from .wire import Direction

    directions = one_of({d.value: d for d in (Direction.REQUEST, Direction.RESPONSE)})
    return {"direction": directions, "src": json_string, "operator": _optional_string}


@cache
def _key_row_fields() -> dict[str, Callable[[Any], Any]]:
    from .wire import TYPE_LABELS, check_cid_lengths

    label = one_of({label: label for label in TYPE_LABELS.values()})
    # datagram counts that a float holds exactly, as the percentages of fingerprint need
    length, count = integer_in(0, 0xFFFF), integer_in(1, 2**53)

    def shape(value: Any) -> tuple[tuple[tuple[str, ...], int], int]:
        fields = json_array(value)
        if len(fields) != 3 or not json_array(fields[0]):
            raise ValueError(f"expected [[packet type, ...], datagram length, datagrams], got {json.dumps(value)}")
        return (tuple(map(label, fields[0])), length(fields[1])), count(fields[2])

    def scid(value: Any) -> bytes:
        cid = bytes.fromhex(json_string(value))
        check_cid_lengths(b"", cid)
        return cid

    return dict(_row_fields(), shapes=list_of(shape), scids=list_of(scid))


def read_key_rows(path: str | Path, keep: Optional[Callable[[array], Any]] = None) -> Iterator[KeyRow]:
    """Each row of a datagram store as a KeyRow, read as the caller
    iterates. Each session's offsets are checked, and the row's `sessions`
    holds what `keep` makes of them, or nothing with no `keep`, so that a
    reader holds no more of a session than it reads. A row that is not a
    JSON object of the store's keys and value types, such as a shape
    without a packet type or an SCID of more than 20 octets, raises
    InputError naming the file, the line and the key."""
    from .ingest import KeyRow, Traits

    def kept(value: Any) -> list:
        text = json_string(value)
        if text and not text.endswith(";"):
            raise ValueError("expected a ';' after each session's offsets")
        # one session's text at a time: a split would hold a string per session at once
        sessions, start = [], 0
        while start < len(text):
            end = text.index(";", start)
            offsets = _offsets(text[start:end])
            if keep is not None:
                sessions.append(keep(offsets))
            start = end + 1
        return sessions

    fields = dict(_key_row_fields(), sessions=kept)
    parse = object_of(fields, required=tuple(fields))

    def from_line(line: str) -> KeyRow:
        row = parse(json.loads(line))
        shapes: dict[tuple[tuple[str, ...], int], int] = {}
        for key, n in row["shapes"]:
            shapes[key] = shapes.get(key, 0) + n
        return KeyRow(row["direction"], row["src"], row["operator"], Traits(shapes, set(row["scids"])), row["sessions"])

    return load_lines(path, from_line)


def read_sessions(path: str | Path) -> Iterator[Session]:
    """Each row of a session store as a Session, read as the caller
    iterates; a bad row raises InputError as read_key_rows does."""
    from .ingest import Session

    fields = dict(_row_fields(), version=json_integer, offsets=_offsets)
    parse = object_of(fields, required=tuple(fields))

    def from_line(line: str) -> Session:
        row = parse(json.loads(line))
        return Session(row["src"], row["operator"], row["direction"], row["version"], row["offsets"])

    return load_lines(path, from_line)


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
