"""Line-delimited stores and plot-ready tables.

Sessions and datagrams travel between pipeline stages as JSONL. The datagram
store keeps each packet's type, version and CIDs, and loads back as the same
`ingest.CaptureRecord` that ingest() yields. Analysis outputs land as TSV with
a one-line header, or as JSONL records with `--format jsonl`; read_table reads
either form, so both feed the next stage. All writers are byte-deterministic
for identical inputs, which is what makes whole-pipeline runs reproducible.
Every reader here, the prefix-table and scanner-list readers included, turns
a line it cannot read into a StoreError that names the file and the line.
"""

from __future__ import annotations

import ipaddress
import json
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .ingest import CaptureRecord, PrefixTable, ScannerList, Session, SessionKey, TimelineEntry
from .wire import Direction, LongHeader, PacketType, check_cid_lengths

T = TypeVar("T")


class StoreError(ValueError):
    """A store, table or list row the loader cannot read; the message names
    the file, the line and, for a missing field, the key."""


def fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_table(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    fmt: str = "tsv",
) -> Path:
    """Write a table as TSV (default) or JSONL records; returns the path."""
    path = Path(path)
    if fmt == "jsonl":
        return write_jsonl(path.with_suffix(".jsonl"), (dict(zip(header, row)) for row in rows))
    with path.open("w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(fmt_value(v) for v in row) + "\n")
    return path


def read_table(
    path: str | Path, columns: Sequence[str] = (), from_row: Optional[Callable[[dict[str, str]], T]] = None
) -> list:
    """Read a table's rows back as string dicts, or as what `from_row` makes
    of each. A `.jsonl` table has its cells formatted as the TSV writer
    would; empty cells come back as empty strings. A row that is not valid
    JSON, lacks one of `columns` or that `from_row` cannot read raises
    StoreError naming the file and the line."""

    def checked(row: dict[str, str]):
        for col in columns:
            if col not in row:
                raise KeyError(col)
        return row if from_row is None else from_row(row)

    if Path(path).suffix == ".jsonl":
        return load_lines(path, lambda line: checked({col: fmt_value(v) for col, v in json.loads(line).items()}))
    with Path(path).open() as fh:
        header = fh.readline().rstrip("\r\n").split("\t")
    return load_lines(path, lambda line: checked(dict(zip(header, line.split("\t")))), skip=1)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_lines(path: str | Path, from_line: Callable[[str], T], skip: int = 0) -> list[T]:
    """Build one object per non-blank line of `path` after the first `skip`,
    turning a line `from_line` cannot read into a StoreError that names the
    file, the line and, for a missing field, the key."""
    out = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            if lineno <= skip or not line.strip():
                continue
            try:
                out.append(from_line(line.rstrip("\r\n")))
            except KeyError as exc:
                raise StoreError(f"{path}:{lineno}: missing key {exc.args[0]!r}") from None
            except (TypeError, ValueError) as exc:
                raise StoreError(f"{path}:{lineno}: {exc}") from None
    return out


def _load_listing(path: str | Path, from_entry: Callable[[str], T]) -> list[T]:
    """Build one object per entry of a hand-edited list: a stripped line that
    is neither blank nor a `#` comment."""
    entries = load_lines(path, lambda line: None if line.lstrip().startswith("#") else from_entry(line.strip()))
    return [entry for entry in entries if entry is not None]


def load_scanner_list(path: str | Path) -> ScannerList:
    """Read a scanner list: one IPv4 prefix or exact address per line."""
    return ScannerList(_load_listing(path, ipaddress.IPv4Network))


def _prefix_entry(line: str) -> tuple[ipaddress.IPv4Network, int, str]:
    fields = line.split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected 3 tab-separated fields (prefix, ASN, operator), got {len(fields)}")
    prefix, asn, label = fields
    # captures are IPv4 only, and lookups mask addresses to 32 bits
    return ipaddress.IPv4Network(prefix), int(asn), label


def load_prefix_table(path: str | Path) -> PrefixTable:
    """Read a prefix table: `prefix<TAB>ASN<TAB>operator` per line."""
    return PrefixTable(_load_listing(path, _prefix_entry))


def _load_store(path: str | Path, from_row: Callable[[dict], T]) -> list[T]:
    """Build one object per row of a JSONL store; a row that is not valid
    JSON or that `from_row` cannot read raises StoreError."""
    return load_lines(path, lambda line: from_row(json.loads(line)))


# --- session store -----------------------------------------------------------


def save_sessions(path: str | Path, sessions: Iterable[Session]) -> Path:
    def rows():
        for s in sessions:
            yield {
                "src": s.key.src_ip,
                "dst": s.key.dst_ip,
                "scid": s.key.scid.hex(),
                "dcid": s.key.dcid.hex(),
                "direction": s.direction.value,
                "version": s.version,
                "operator": s.operator,
                "asn": s.asn,
                "start_ts": s.start_ts,
                "timeline": [[e.offset, e.packet_type.value, e.datagram_length, e.coalesced] for e in s.timeline],
            }

    return write_jsonl(path, rows())


def _session_from_row(raw: dict) -> Session:
    key = SessionKey(raw["src"], raw["dst"], bytes.fromhex(raw["scid"]), bytes.fromhex(raw["dcid"]))
    timeline = [
        TimelineEntry(offset, PacketType(ptype), length, coalesced)
        for offset, ptype, length, coalesced in raw["timeline"]
    ]
    return Session(
        key=key,
        timeline=timeline,
        direction=Direction(raw["direction"]),
        version=raw["version"],
        operator=raw.get("operator"),
        asn=raw.get("asn"),
        start_ts=raw.get("start_ts", 0.0),
    )


def load_sessions(path: str | Path) -> list[Session]:
    """Read a session store back; a malformed row raises StoreError."""
    return _load_store(path, _session_from_row)


# --- datagram store ----------------------------------------------------------


def save_datagrams(path: str | Path, records: Iterable[CaptureRecord]) -> Path:
    def rows():
        for r in records:
            yield {
                "ts": r.timestamp,
                "src": r.src_ip,
                "dst": r.dst_ip,
                "sport": r.src_port,
                "dport": r.dst_port,
                "direction": r.direction.value,
                "length": r.datagram_length,
                "operator": r.operator,
                "asn": r.asn,
                "packets": [
                    [p.packet_type.value, p.version, p.scid.hex(), p.dcid.hex()] for p in r.packets
                ],
            }

    return write_jsonl(path, rows())


def _datagram_from_row(raw: dict) -> CaptureRecord:
    packets = []
    for ptype, version, scid, dcid in raw["packets"]:
        dcid, scid = bytes.fromhex(dcid), bytes.fromhex(scid)
        check_cid_lengths(dcid, scid)
        packets.append(LongHeader(PacketType(ptype), version, dcid, scid))
    return CaptureRecord(
        timestamp=raw["ts"],
        src_ip=raw["src"],
        dst_ip=raw["dst"],
        src_port=raw["sport"],
        dst_port=raw["dport"],
        direction=Direction(raw["direction"]),
        datagram_length=raw["length"],
        packets=packets,
        operator=raw.get("operator"),
        asn=raw.get("asn"),
    )


def load_datagrams(path: str | Path) -> list[CaptureRecord]:
    """Read a datagram store back as records whose packets carry only type,
    version and CIDs; a malformed row raises StoreError."""
    return _load_store(path, _datagram_from_row)


# --- run manifest ------------------------------------------------------------


def write_manifest(
    out_dir: str | Path,
    subcommand: str,
    tool_version: str,
    seed: Optional[int],
    inputs: dict[str, Optional[str]],
    outputs: list[str],
    parameters: Optional[dict] = None,
) -> Path:
    """Every run documents itself; identical manifests imply byte-identical
    outputs, so nothing time- or host-dependent belongs in here."""
    manifest = {
        "tool": "quicscope",
        "tool_version": tool_version,
        "subcommand": subcommand,
        "seed": seed,
        "inputs": {k: (str(v) if v is not None else None) for k, v in sorted(inputs.items())},
        "outputs": sorted(outputs),
        "parameters": parameters or {},
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
