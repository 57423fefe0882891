"""Seeded inputs, stage chains and output checks of the benchmark workloads.

Each workload writes its inputs from a seed, names the `quicscope` CLI stages
it runs (one process each), and checks the stage outputs against the ground
truth it configured. Only the CLI and its file formats are used here, so the
untraced benchmark keeps working while the package's internals change.
"""

from __future__ import annotations

import ipaddress
import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

TELESCOPE_BASE = "100.64.0.0"
FACEBOOK_PREFIX = "157.240.0.0/16\t32934\tFacebook"

# Published stack configurations of the simulated operators (the paper's
# Table 4): initial RTO in seconds, coalescence, and the passive SCID scheme.
OPERATOR_TRUTH = {
    "Facebook": {"initial_rto": 0.4, "coalescence": "false", "scheme": "structured"},
    "Cloudflare": {"initial_rto": 1.0, "coalescence": "true", "scheme": "structured"},
    "Google": {"initial_rto": 0.3, "coalescence": "true", "scheme": "random"},
}
RTO_TOLERANCE = 0.10
LOW_HOST_RULE = "SCID off-net (low host ID)"
LOW_HOST_COLLISION_RATE = 2.0**-11  # v1 version bits (2^-2) times 9 zero host bits (2^-9)
RULE_COUNT = 9
STATE_LIFETIME = 240.0

# gQUIC "Q050": a real, unregistered version seen in telescope traffic.
UNREGISTERED_VERSION = 0x51303530
QUIC_V1 = 0x00000001


# --- stage chain ---------------------------------------------------------------


@dataclass
class Stage:
    """One `quicscope` CLI process. `metric` names the stage in the metrics
    (`<metric>_s`); `label` tells apart two processes of one metric."""

    metric: str
    label: str
    argv: list[str]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


Step = Union[Stage, Callable[[], None]]


def _ip(base: str, offset: int) -> str:
    return str(ipaddress.ip_address(int(ipaddress.ip_address(base)) + offset))


def _write_json(path: Path, value) -> Path:
    path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n")
    return path


def read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    if not lines:
        return []
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:] if line]


def _read_json(path: Path):
    return json.loads(path.read_text())


# --- pcap noise ------------------------------------------------------------------
#
# Noise records are built here rather than with the package's writer, so the
# injected traffic does not change when the package's pcap code does.

_PCAP_MAGIC_USEC = 0xA1B2C3D4
_LINKTYPE_RAW_IP = 101
_PCAP_HEADER = struct.Struct("<IHHiIII")
_RECORD = struct.Struct("<IIII")


def _checksum(data: bytes) -> int:
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ipv4_udp(src: str, dst: str, sport: int, dport: int, payload: bytes) -> bytes:
    """IPv4 + UDP packet; the UDP checksum is left 0 (allowed over IPv4)."""
    total = 28 + len(payload)
    header = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, total, 0, 0, 64, 17, 0,
        ipaddress.ip_address(src).packed, ipaddress.ip_address(dst).packed,
    )
    header = header[:10] + struct.pack(">H", _checksum(header)) + header[12:]
    return header + struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


def quic_long_header(version: int, dcid: bytes, scid: bytes, body: bytes, pad_to: int = 0) -> bytes:
    """Initial packet (RFC 9000 17.2.2) with an empty token; zero padding
    after the packet, as clients pad their first datagram."""
    out = bytes([0xC0]) + struct.pack(">I", version)
    out += bytes([len(dcid)]) + dcid + bytes([len(scid)]) + scid
    out += b"\x00" + struct.pack(">H", 0x4000 | len(body)) + body
    return out + b"\x00" * max(0, pad_to - len(out))


def write_noise_pcap(path: Path, records: list[tuple[int, bytes]]) -> None:
    with path.open("wb") as fh:
        fh.write(_PCAP_HEADER.pack(_PCAP_MAGIC_USEC, 2, 4, 0, 0, 65535, _LINKTYPE_RAW_IP))
        for ts_us, packet in sorted(records, key=lambda r: r[0]):
            sec, usec = divmod(ts_us, 1_000_000)
            fh.write(_RECORD.pack(sec, usec, len(packet), len(packet)))
            fh.write(packet)


def _pcap_records(blob: bytes) -> list[tuple[int, bytes]]:
    magic, _, _, _, _, _, linktype = _PCAP_HEADER.unpack_from(blob, 0)
    if magic != _PCAP_MAGIC_USEC or linktype != _LINKTYPE_RAW_IP:
        raise ValueError(f"unexpected capture header (magic {magic:#x}, link type {linktype})")
    records = []
    pos = _PCAP_HEADER.size
    while pos < len(blob):
        sec, usec, incl, _ = _RECORD.unpack_from(blob, pos)
        end = pos + _RECORD.size + incl
        records.append((sec * 1_000_000 + usec, blob[pos:end]))
        pos = end
    return records


def merge_captures(capture: Path, noise: Path, out: Path) -> int:
    """Merge two raw-IP pcaps by timestamp (capture first on ties); returns
    the number of records taken from `capture`."""
    cap = capture.read_bytes()
    base = _pcap_records(cap)
    extra = _pcap_records(noise.read_bytes())
    with out.open("wb") as fh:
        fh.write(cap[: _PCAP_HEADER.size])
        i = j = 0
        while i < len(base) or j < len(extra):
            if j == len(extra) or (i < len(base) and base[i][0] <= extra[j][0]):
                fh.write(base[i][1])
                i += 1
            else:
                fh.write(extra[j][1])
                j += 1
    return len(base)


# --- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    scales: dict[str, dict] = {}

    def prepare(self, inputs: Path, seed: int, scale: dict) -> None:
        """Write every input file of one run into `inputs`."""
        raise NotImplementedError

    def steps(self, inputs: Path, chain: Path) -> list[Step]:
        """CLI stages (timed) and glue callables (untimed) of one chain."""
        raise NotImplementedError

    def check(self, inputs: Path, chain: Path) -> list[Check]:
        raise NotImplementedError

    def work(self, inputs: Path, chain: Path) -> dict[str, float]:
        """Units of work for the throughput metrics."""
        raise NotImplementedError

    def tsv_outputs(self, chain: Path) -> list[Path]:
        return sorted(p for p in chain.rglob("*.tsv") if p.is_file())


class TelescopeMix(Workload):
    name = "telescope-mix"
    why = "passive path: few VIPs with long retransmission trains plus injected noise drive pcap, wire, ingest, tables, fingerprint and scid"
    scales = {
        "full": {"vips": 3, "sessions_per_vip": 100, "min_sessions": 30, "min_scids": 200,
                 "noise": {"scanner": 800, "client": 400, "non_quic": 600, "implausible": 400, "short_header": 300}},
        "tiny": {"vips": 1, "sessions_per_vip": 40, "min_sessions": 10, "min_scids": 30,
                 "noise": {"scanner": 20, "client": 10, "non_quic": 20, "implausible": 20, "short_header": 10}},
    }
    arrival_window = 30.0
    duration = 150.0  # Facebook's 8-round train lasts 102 s, so every unacked train completes

    def prepare(self, inputs: Path, seed: int, scale: dict) -> None:
        rng = random.Random(seed)
        inputs.mkdir(parents=True, exist_ok=True)
        vips = scale["vips"]
        clusters = [
            ("fb-five-tuple", "Facebook", "157.240.1.1", "five_tuple"),
            ("fb-cid-aware", "Facebook", "157.240.2.1", "cid_aware"),
            ("cloudflare", "Cloudflare", "104.16.1.1", "five_tuple"),
            ("google", "Google", "142.250.1.1", "five_tuple"),
        ]
        sessions = scale["sessions_per_vip"] * vips * len(clusters)
        deploy = {
            "seed": seed,
            "clusters": [
                {
                    "name": name, "operator": operator, "vip_base": base, "vip_count": vips,
                    "l7lb_count": rng.randint(16, 24), "host_id_base": 100 * index + rng.randrange(50),
                    "routing_mode": mode,
                }
                for index, (name, operator, base, mode) in enumerate(clusters)
            ],
            "flood": {
                "source_base": TELESCOPE_BASE, "source_count": sessions,
                "sessions_per_vip": scale["sessions_per_vip"], "duration": self.duration,
                "arrival_window": self.arrival_window, "ack_probability": 0.2, "ack_delay": 0.05,
            },
        }
        _write_json(inputs / "deploy.json", deploy)
        (inputs / "prefixes.tsv").write_text(
            "\n".join([
                FACEBOOK_PREFIX,
                "157.240.2.0/24\t32934\tFacebook",
                "104.16.0.0/13\t13335\tCloudflare",
                "142.250.0.0/15\t15169\tGoogle",
                "10.0.0.0/8\t64512\tPrivate",
            ]) + "\n"
        )
        scanner_nets = ["192.0.2.0/24", "198.51.100.0/24", "203.0.113.0/24"]
        scanner_nets += [f"185.{rng.randrange(256)}.{rng.randrange(256)}.0/24" for _ in range(10)]
        scanner_nets += [f"71.6.{rng.randrange(256)}.{rng.randrange(1, 255)}" for _ in range(4)]
        (inputs / "scanners.tsv").write_text("# acknowledged scan projects\n" + "\n".join(scanner_nets) + "\n")

        counts = scale["noise"]
        records = []
        telescope_count = sessions

        def when() -> int:
            return rng.randrange(int(self.duration * 1_000_000))

        def telescope() -> str:
            return _ip(TELESCOPE_BASE, rng.randrange(telescope_count))

        def outside() -> str:
            return f"80.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"

        def initial(version: int) -> bytes:
            return quic_long_header(version, rng.randbytes(8), rng.randbytes(8), rng.randbytes(120), pad_to=1200)

        for _ in range(counts["scanner"]):
            net = ipaddress.ip_network(rng.choice(scanner_nets))
            src = str(net.network_address + rng.randrange(net.num_addresses))
            records.append((when(), ipv4_udp(src, telescope(), rng.randint(1024, 65535), 443, initial(QUIC_V1))))
        for _ in range(counts["client"]):
            records.append((when(), ipv4_udp(outside(), telescope(), rng.randint(1024, 65535), 443, initial(QUIC_V1))))
        for _ in range(counts["non_quic"]):
            port = rng.choice([53, 123, 1900, 5353, rng.randint(1024, 65535)])
            payload = rng.randbytes(rng.randint(20, 200))
            records.append((when(), ipv4_udp(outside(), telescope(), port, rng.randint(1024, 65535), payload)))
        for i in range(counts["implausible"]):
            if i % 2:
                payload = initial(UNREGISTERED_VERSION)
            else:  # long header cut inside the DCID
                payload = bytes([0xC0]) + struct.pack(">I", QUIC_V1) + b"\x08" + rng.randbytes(3)
            records.append((when(), ipv4_udp(outside(), telescope(), 443, rng.randint(1024, 65535), payload)))
        for _ in range(counts["short_header"]):
            payload = bytes([0x40 | rng.randrange(0x40)]) + rng.randbytes(40)
            records.append((when(), ipv4_udp(outside(), telescope(), 443, rng.randint(1024, 65535), payload)))
        write_noise_pcap(inputs / "noise.pcap", records)
        _write_json(inputs / "noise.json", counts)
        _write_json(inputs / "scale.json", scale)

    def steps(self, inputs: Path, chain: Path) -> list[Step]:
        scale = _read_json(inputs / "scale.json")
        sim, ing, fp, sc, rep = (chain / d for d in ("sim", "ing", "fp", "scid", "rep"))

        def merge() -> None:
            count = merge_captures(sim / "capture.pcap", inputs / "noise.pcap", chain / "merged.pcap")
            _write_json(chain / "merged.json", {"simulated_records": count})

        return [
            Stage("simulate", "simulate", ["simulate", "--config", str(inputs / "deploy.json"), "--out-dir", str(sim)]),
            merge,
            Stage("ingest", "ingest", [
                "ingest", "--capture", str(chain / "merged.pcap"), "--prefix-table", str(inputs / "prefixes.tsv"),
                "--scanner-list", str(inputs / "scanners.tsv"), "--out-dir", str(ing),
            ]),
            Stage("fingerprint", "fingerprint", [
                "fingerprint", "--sessions", str(ing / "sessions.jsonl"), "--datagrams", str(ing / "datagrams.jsonl"),
                "--min-sessions", str(scale["min_sessions"]), "--min-scids", str(scale["min_scids"]), "--out-dir", str(fp),
            ]),
            Stage("scid", "scid", [
                "scid", "--datagrams", str(ing / "datagrams.jsonl"), "--pairs", str(sim / "pairs.tsv"),
                "--min-samples", str(scale["min_scids"]), "--out-dir", str(sc),
            ]),
            Stage("report", "report", ["report", "--in-dir", str(fp), "--out-dir", str(rep)]),
        ]

    def work(self, inputs: Path, chain: Path) -> dict[str, float]:
        noise = _read_json(inputs / "noise.json")
        simulated = _read_json(chain / "merged.json")["simulated_records"]
        return {"ingest_records": simulated + sum(noise.values())}

    def check(self, inputs: Path, chain: Path) -> list[Check]:
        checks = []
        table = {row["operator"]: row for row in read_tsv(chain / "rep" / "deployment_table.tsv")}
        for operator, truth in OPERATOR_TRUTH.items():
            row = table.get(operator)
            if row is None:
                checks.append(Check(f"deployment_table.{operator}", False, "no row"))
                continue
            rto = float(row["initial_rto"] or "nan")
            structured = "true" if truth["scheme"] == "structured" else "false"
            checks += [
                Check(f"deployment_table.{operator}.matched", row["matched"] == operator, row["matched"]),
                Check(
                    f"deployment_table.{operator}.initial_rto",
                    abs(rto - truth["initial_rto"]) <= RTO_TOLERANCE * truth["initial_rto"],
                    row["initial_rto"],
                ),
                Check(f"deployment_table.{operator}.coalescence", row["coalescence"] == truth["coalescence"], row["coalescence"]),
                Check(f"deployment_table.{operator}.structured", row["structured_scids"] == structured, row["structured_scids"]),
            ]
        schemes = {row["operator"]: row for row in read_tsv(chain / "scid" / "schemes.tsv")}
        expected_schemes = {"Facebook": "structured", "Cloudflare": "structured", "Google": "echo_of_client_dcid"}
        for operator, scheme in expected_schemes.items():
            got = schemes.get(operator, {}).get("scheme", "")
            checks.append(Check(f"schemes.{operator}", got == scheme, got))
        got = schemes.get("Cloudflare", {}).get("cloudflare_signature", "")
        checks.append(Check("schemes.Cloudflare.signature", got == "true", got))

        noise = _read_json(inputs / "noise.json")
        simulated = _read_json(chain / "merged.json")["simulated_records"]
        requests = noise["scanner"] + noise["client"]
        emitted = simulated + requests
        expected = {
            "total_datagrams": simulated + sum(noise.values()),
            "non_quic_port": noise["non_quic"],
            "implausible_payload": noise["implausible"],
            "short_header_only": noise["short_header"],
            "records_emitted": emitted,
            "responses": simulated,
            "requests": requests,
            "requests_dropped_by_sanitization": noise["scanner"],
            "sanitization_removed_fraction": round(noise["scanner"] / emitted, 6),
        }
        counters = {row["metric"]: row["value"] for row in read_tsv(chain / "ing" / "counters.tsv")}
        for metric, value in expected.items():
            got = counters.get(metric)
            ok = got is not None and abs(float(got) - value) <= 1e-6
            checks.append(Check(f"counters.{metric}", ok, f"{got} (expected {value})"))
        return checks


class OffnetSweep(Workload):
    name = "offnet-sweep"
    why = "many sources with five short sessions each: per-key cost in ingest and tables, per-source features and all 9 off-net rules"
    scales = {
        "full": {"onnet": 15, "offnet": 60, "background": 500},
        "tiny": {"onnet": 5, "offnet": 20, "background": 100},
    }
    sessions_per_vip = 5
    arrival_window = 30.0
    duration = 140.0

    def prepare(self, inputs: Path, seed: int, scale: dict) -> None:
        rng = random.Random(seed)
        inputs.mkdir(parents=True, exist_ok=True)
        offnet_l7lbs = rng.randint(4, 12)
        background = {
            "operator": "background", "initial_rto": rng.choice([0.8, 1.0, 1.5]), "backoff_base": 2.0,
            "max_retransmissions": 3, "coalescence": True, "scid_scheme": "uniform_random", "scid_length": 8,
        }
        clusters = [
            {"name": "onnet", "operator": "Facebook", "vip_base": "157.240.8.1", "vip_count": scale["onnet"],
             "l7lb_count": rng.randint(16, 24), "host_id_base": rng.randrange(1024, 60000)},
            # host IDs below 128 leave the 9 most significant bits zero
            {"name": "offnet", "operator": "Facebook", "vip_base": "45.60.0.1", "vip_count": scale["offnet"],
             "l7lb_count": offnet_l7lbs, "host_id_base": rng.randrange(128 - offnet_l7lbs)},
            {"name": "background", "profile": background, "vip_base": "198.18.0.1",
             "vip_count": scale["background"], "l7lb_count": 4},
        ]
        vips = sum(c["vip_count"] for c in clusters)
        deploy = {
            "seed": seed,
            "clusters": clusters,
            "flood": {
                "source_base": TELESCOPE_BASE, "source_count": vips, "sessions_per_vip": self.sessions_per_vip,
                "duration": self.duration, "arrival_window": self.arrival_window,
            },
        }
        _write_json(inputs / "deploy.json", deploy)
        (inputs / "prefixes.tsv").write_text(FACEBOOK_PREFIX + "\n")
        lines = []
        for cluster in clusters:
            label = "Facebook" if cluster.get("operator") == "Facebook" else "NotOperator"
            lines += [f"{_ip(cluster['vip_base'], i)}\t{label}" for i in range(cluster["vip_count"])]
        (inputs / "truth.tsv").write_text("\n".join(lines) + "\n")
        _write_json(inputs / "scale.json", scale)

    def steps(self, inputs: Path, chain: Path) -> list[Step]:
        sim, ing, cls = chain / "sim", chain / "ing", chain / "cls"
        return [
            Stage("simulate", "simulate", ["simulate", "--config", str(inputs / "deploy.json"), "--out-dir", str(sim)]),
            Stage("ingest", "ingest", [
                "ingest", "--capture", str(sim / "capture.pcap"), "--prefix-table", str(inputs / "prefixes.tsv"),
                "--out-dir", str(ing),
            ]),
            Stage("classify", "classify", [
                "classify", "--datagrams", str(ing / "datagrams.jsonl"), "--truth", str(inputs / "truth.tsv"),
                "--rule", "all", "--out-dir", str(cls),
            ]),
        ]

    def work(self, inputs: Path, chain: Path) -> dict[str, float]:
        counters = {row["metric"]: row["value"] for row in read_tsv(chain / "ing" / "counters.tsv")}
        return {"ingest_records": float(counters["total_datagrams"])}

    def check(self, inputs: Path, chain: Path) -> list[Check]:
        scale = _read_json(inputs / "scale.json")
        rows = read_tsv(chain / "cls" / "metrics.tsv")
        checks = [Check("metrics.rows", len(rows) == RULE_COUNT, str(len(rows)))]
        low = next((r for r in rows if r["rule"] == LOW_HOST_RULE), None)
        if low is None:
            return checks + [Check("metrics.low_host_id", False, "rule missing")]
        checks.append(Check("metrics.low_host_id.tpr", low["tpr"] == "1", low["tpr"]))
        negatives = int(low["fp"]) + int(low["tn"])
        fpr = float(low["fpr"] or "nan")
        rate = LOW_HOST_COLLISION_RATE
        sigma = (rate * (1 - rate) / max(negatives, 1)) ** 0.5
        checks.append(Check("metrics.low_host_id.fpr", abs(fpr - rate) <= 3 * sigma, f"{fpr} (3 sigma {3 * sigma:.2e})"))
        checks.append(Check("metrics.negatives", negatives == scale["background"], str(negatives)))
        return checks


class ProbeCampaign(Workload):
    name = "probe-campaign"
    why = "active path: sim routing, the connection state machine and wire encode/parse; pcap, ingest and the stores are skipped"
    scales = {
        "full": {"vips": 6, "handshakes": 1000},
        "tiny": {"vips": 2, "handshakes": 100},
    }

    def prepare(self, inputs: Path, seed: int, scale: dict) -> None:
        rng = random.Random(seed)
        inputs.mkdir(parents=True, exist_ok=True)
        five_base = rng.randrange(0, 30000)
        clusters = [
            {"name": "five-tuple", "operator": "Facebook", "vip_base": "157.240.16.1", "vip_count": scale["vips"],
             "l7lb_count": rng.randint(16, 24), "host_id_base": five_base, "routing_mode": "five_tuple",
             "state_lifetime": STATE_LIFETIME},
            {"name": "cid-aware", "operator": "Facebook", "vip_base": "157.240.17.1", "vip_count": scale["vips"],
             "l7lb_count": rng.randint(16, 24), "host_id_base": five_base + 100 + rng.randrange(30000),
             "routing_mode": "cid_aware", "state_lifetime": STATE_LIFETIME},
        ]
        _write_json(inputs / "deploy.json", {"seed": seed, "clusters": clusters})
        groups = [[_ip(c["vip_base"], i) for i in range(c["vip_count"])] for c in clusters]
        _write_json(inputs / "expected.json", {"clusters": groups, "lbtype": {groups[0][0]: "five_tuple", groups[1][0]: "cid_aware"}})
        _write_json(inputs / "scale.json", {**scale, "seed": seed})

    def steps(self, inputs: Path, chain: Path) -> list[Step]:
        scale = _read_json(inputs / "scale.json")
        expected = _read_json(inputs / "expected.json")
        common = ["--sim-config", str(inputs / "deploy.json"), "--seed", str(scale["seed"])]
        return [
            Stage("probe", "harvest", [
                "probe", "--mode", "harvest", *common, "--targets", "all",
                "--handshakes", str(scale["handshakes"]), "--out-dir", str(chain / "harvest"),
            ]),
            Stage("probe", "lbtype", [
                "probe", "--mode", "lbtype", *common, "--targets", ",".join(expected["lbtype"]),
                "--out-dir", str(chain / "lbtype"),
            ]),
        ]

    def work(self, inputs: Path, chain: Path) -> dict[str, float]:
        return {"handshakes": float(sum(int(r["attempts"]) for r in read_tsv(chain / "harvest" / "unique.tsv")))}

    def check(self, inputs: Path, chain: Path) -> list[Check]:
        scale = _read_json(inputs / "scale.json")
        expected = _read_json(inputs / "expected.json")
        unique = read_tsv(chain / "harvest" / "unique.tsv")
        failures = sum(int(r["failures"]) for r in unique)
        attempts = sum(int(r["attempts"]) for r in unique)
        want_attempts = scale["handshakes"] * sum(len(g) for g in expected["clusters"])
        checks = [
            Check("harvest.failures", failures == 0, str(failures)),
            Check("harvest.attempts", attempts == want_attempts, f"{attempts} (expected {want_attempts})"),
        ]
        groups: dict[str, list[str]] = {}
        for row in read_tsv(chain / "harvest" / "clusters.tsv"):
            groups.setdefault(row["cluster"], []).append(row["vip"])
        found = sorted(sorted(g) for g in groups.values())
        want = sorted(sorted(g) for g in expected["clusters"])
        checks.append(Check("clusters", found == want, f"{len(found)} clusters"))
        verdicts = {row["vip"]: row for row in read_tsv(chain / "lbtype" / "verdicts.tsv")}
        for vip, kind in expected["lbtype"].items():
            row = verdicts.get(vip, {})
            ok = row.get("verdict") == kind
            if kind == "cid_aware":
                ok = ok and abs(float(row.get("fail_window") or "nan") - STATE_LIFETIME) <= 1.0
            checks.append(Check(f"lbtype.{kind}", ok, f"{row.get('verdict')} window {row.get('fail_window')}"))
        return checks


WORKLOADS = {w.name: w for w in (TelescopeMix(), OffnetSweep(), ProbeCampaign())}
