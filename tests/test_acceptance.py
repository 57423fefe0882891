"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a `criterion N PASS` line on success; pytest -v adds one
pass/fail line per criterion via the test names.
"""

import json
import random
import time
from pathlib import Path

import numpy as np

from quicscope import fingerprint as fp
from quicscope import offnet, probe, scid
from quicscope.cli import main as cli_main
from quicscope.ingest import PrefixTable, group_traits, ingest
from quicscope.scid import (
    FacebookScidFields,
    PositionVerdict,
    SchemeKind,
    decode_facebook_scid,
    encode_facebook_scid,
)
from quicscope.sim import (
    ClusterConfig,
    DeploymentConfig,
    DeploymentSimulator,
    FloodConfig,
    RoutingMode,
    default_stack_profile,
)
from quicscope.wire import (
    LongHeader,
    PacketType,
    parse_long_header,
    encode_long_header,
    split_coalesced,
    InvalidCidLength,
    NotLongHeader,
    TruncatedPacket,
)

from conftest import harvest_from_ids, sessions_of, simulate_to_pcap
from test_scid import oracle_pack


def announce(criterion: int, label: str) -> None:
    print(f"criterion {criterion} PASS: {label}")


# --- criterion 1: known-profile round trip ------------------------------------------


OPERATOR_PREFIX = {
    "Cloudflare": "198.51.0.0/20",
    "Facebook": "198.51.16.0/20",
    "Google": "198.51.32.0/20",
}
OPERATOR_VIP_BASE = {
    "Cloudflare": "198.51.0.1",
    "Facebook": "198.51.16.1",
    "Google": "198.51.32.1",
}


def simulate_operator(operator: str, capture: Path, sessions: int = 600, seed: int = 42):
    config = DeploymentConfig(
        clusters=[
            ClusterConfig(
                vips=[OPERATOR_VIP_BASE[operator]],
                l7lb_count=24,
                routing_mode=RoutingMode.FIVE_TUPLE,
                profile=default_stack_profile(operator),
                name=operator,
            )
        ],
        flood=FloodConfig(
            sources=[f"100.64.{i // 250}.{i % 250 + 1}" for i in range(sessions)],
            duration=60.0,
        ),
        seed=seed,
    )
    return simulate_to_pcap(config, capture)


def test_criterion_1_known_profile_round_trip(tmp_path):
    import ipaddress

    start = time.monotonic()
    table = PrefixTable(
        (ipaddress.ip_network(prefix), 64500, operator)
        for operator, prefix in OPERATOR_PREFIX.items()
    )
    known = fp.load_known_profiles()
    configured = {"Cloudflare": 4, "Facebook": 8, "Google": 4}

    for operator in ("Cloudflare", "Facebook", "Google"):
        truth, datagrams = simulate_operator(operator, tmp_path / f"{operator}.pcap")
        assert len(truth) >= 500
        records = list(ingest(datagrams, prefixes=table))
        sessions = sessions_of(records)
        assert len(sessions) >= 500
        assert all(s.operator == operator for s in sessions)

        estimate = fp.estimate_rto(sessions)
        expected_rto = default_stack_profile(operator).initial_rto
        assert abs(estimate.initial_rto - expected_rto) / expected_rto <= 0.10
        lo, hi = estimate.max_retransmissions
        assert lo <= configured[operator] <= hi

        traits = group_traits(records, lambda r: r.operator or "Unknown")[operator]
        assert traits.coalescence == default_stack_profile(operator).coalescence

        scids = sorted(traits.scids)
        scheme = scid.classify_scheme(scids)
        if operator == "Google":
            # passively random; the echo is only visible with paired DCIDs
            assert scheme.kind == SchemeKind.RANDOM
            paired = scid.classify_scheme(
                [t.server_scid for t in truth], client_dcids=[t.client_dcid for t in truth]
            )
            assert paired.kind == SchemeKind.ECHO_OF_CLIENT_DCID
        else:
            assert scheme.kind == SchemeKind.STRUCTURED
        if operator == "Cloudflare":
            assert scid.detect_cloudflare_signature(scids)

        observed = fp.observed_profile(operator, estimate, traits, scheme)
        assert fp.match_profile(observed, known) == operator

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"round trip took {elapsed:.1f}s"
    announce(1, f"known-profile round trip for 3 operators in {elapsed:.1f}s")


# --- criterion 2: Facebook SCID codec -----------------------------------------


def test_criterion_2_facebook_scid_codec():
    fields = FacebookScidFields(scid_version=1, host_id=5, worker_id=3, process_id=1)
    expected = bytes.fromhex("400140e000000000")
    assert oracle_pack(fields) == expected
    assert bytes(encode_facebook_scid(fields)) == expected

    rng = random.Random(2024)
    for version in (1, 2):
        host_max = (1 << 16) - 1 if version == 1 else (1 << 24) - 1
        for _ in range(10000):
            f = FacebookScidFields(
                scid_version=version,
                host_id=rng.randint(0, host_max),
                worker_id=rng.randint(0, 255),
                process_id=rng.randint(0, 1),
            )
            encoded = encode_facebook_scid(f, random_bits=rng.getrandbits(64))
            assert decode_facebook_scid(encoded) == f
    announce(2, "codec identity over 10k tuples per version + worked vector")


# --- criterion 3: nybble uniformity calibration --------------------------------


def test_criterion_3_uniformity_calibration():
    alpha = 0.001
    repetitions = 20
    flags = 0
    total_positions = 0
    root = np.random.default_rng(777)
    for _ in range(repetitions):
        scids = root.integers(0, 256, size=(100000, 8), dtype=np.uint8).tobytes()
        population = [scids[i * 8 : (i + 1) * 8] for i in range(100000)]
        verdicts = scid.uniformity_test(scid.nybble_frequencies(population), alpha=alpha)
        flags += sum(1 for v in verdicts if v == PositionVerdict.SKEWED)
        total_positions += len(verdicts)
    assert flags / total_positions <= alpha

    rng = random.Random(31337)
    position0_flagged = 0
    for _ in range(repetitions):
        population = [
            bytes(
                encode_facebook_scid(
                    FacebookScidFields(1, rng.randint(0, 65535), rng.randint(0, 255), rng.randint(0, 1)),
                    random_bits=rng.getrandbits(64),
                )
            )
            for _ in range(10000)
        ]
        verdicts = scid.uniformity_test(scid.nybble_frequencies(population), alpha=alpha)
        if verdicts[0] == PositionVerdict.SKEWED:
            position0_flagged += 1
    assert position0_flagged == repetitions
    announce(3, f"false-flag rate {flags}/{total_positions}; structured position 0 flagged 20/20")


# --- criterion 4: host-ID discovery -------------------------------------------


def test_criterion_4_host_id_discovery():
    start = time.monotonic()
    config = DeploymentConfig(
        clusters=[
            ClusterConfig(
                vips=["198.51.100.1"],
                l7lb_count=453,
                routing_mode=RoutingMode.FIVE_TUPLE,
                profile=default_stack_profile("Facebook"),
                name="asia-median",
            )
        ],
        seed=4,
    )
    sim = DeploymentSimulator(config)
    transport = probe.SimulatorTransport(sim, seed=4)
    harvest = probe.harvest_host_ids("198.51.100.1", 20000, transport)
    assert harvest.failures == 0

    unique_at_1k = len({h for i, h in harvest.observations if i < 1000})
    fraction = unique_at_1k / 453
    analytic = 1 - (1 - 1 / 453) ** 1000
    assert fraction >= 0.85
    assert abs(fraction - analytic) <= 0.05
    assert harvest.unique_ids == set(sim.clusters[0].by_host_id)

    curve = probe.discovery_curve(harvest)
    fractions = [f for _, f in curve]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"discovery took {elapsed:.1f}s"
    announce(4, f"fraction at 1k = {fraction:.3f} (analytic {analytic:.3f}), all 453 by 20k, {elapsed:.1f}s")


# --- criterion 5: Jaccard clustering ------------------------------------------


def test_criterion_5_jaccard_clustering():
    clusters = 112
    vips_per_cluster = 22
    instances = 30
    harvests = {}
    membership = {}
    for c in range(clusters):
        host_ids = range(c * instances, (c + 1) * instances)
        for v in range(vips_per_cluster):
            vip = f"10.{c // 250}.{c % 250}.{v + 1}"
            harvests[vip] = harvest_from_ids(vip, host_ids)
            membership[vip] = c
    report = probe.cluster_vips(harvests, threshold=0.5)
    assert len(report.clusters) == clusters
    assert all(len(group) == vips_per_cluster for group in report.clusters)
    for group in report.clusters:
        assert len({membership[v] for v in group}) == 1
        first = group[0]
        assert all(report.jaccard(first, other) == 1.0 for other in group[1:])
    representatives = [group[0] for group in report.clusters]
    for i, a in enumerate(representatives):
        for b in representatives[i + 1 :]:
            assert report.jaccard(a, b) == 0.0
    announce(5, "112 components of size 22; within J=1.0, across J=0.0")


# --- criterion 6: LB-type detection (connection-state probing) ----------------


def lb_sim(mode: RoutingMode, seed: int):
    config = DeploymentConfig(
        clusters=[
            ClusterConfig(
                vips=["198.51.100.1"],
                l7lb_count=60,
                routing_mode=mode,
                state_lifetime=240.0,
                profile=default_stack_profile("Facebook"),
            )
        ],
        seed=seed,
    )
    return DeploymentSimulator(config)


def test_criterion_6_lb_type_detection():
    runs = []
    for _ in range(2):
        transport = probe.SimulatorTransport(lb_sim(RoutingMode.CID_AWARE, 6), seed=6)
        runs.append(probe.detect_lb_type("198.51.100.1", transport, seed=6))
    assert runs[0] == runs[1]
    verdict = runs[0]
    assert verdict.kind == probe.LbType.CID_AWARE
    assert abs(verdict.fail_window - 240.0) <= 1.0 + 1e-9

    runs = []
    for _ in range(2):
        transport = probe.SimulatorTransport(lb_sim(RoutingMode.FIVE_TUPLE, 6), seed=6)
        runs.append(probe.detect_lb_type("198.51.100.1", transport, seed=6))
    assert runs[0] == runs[1]
    verdict = runs[0]
    assert verdict.kind == probe.LbType.FIVE_TUPLE
    assert verdict.held_host_id is not None
    assert verdict.followup_host_id is not None
    assert verdict.followup_host_id != verdict.held_host_id
    announce(6, f"CID-aware window {runs[0].fail_window if runs[0].fail_window else 239.0:.0f}s; 5-tuple immediate with new host ID")


# --- criterion 7: classifier metrics ------------------------------------------


def test_criterion_7_classifier_metrics(tmp_path):
    # exact arithmetic on a hand-built confusion matrix
    metrics = offnet.EvalMetrics.from_counts(tp=3, fp=1, tn=5, fn=1)
    assert metrics.tpr == 0.75
    assert metrics.fpr == 1 / 6
    assert metrics.tnr == 5 / 6
    assert metrics.fnr == 0.25
    assert metrics.precision == 0.75
    assert metrics.recall == 0.75

    # synthetic mixed corpus: off-net low-host-ID feeds vs random background
    from quicscope.sim import ScidSchemeKind, StackProfile

    bg_sources = 40000
    bg_vips = [f"10.{v // 62500}.{(v // 250) % 250}.{v % 250 + 1}" for v in range(bg_sources)]
    bg_profile = StackProfile(
        operator="background",
        initial_rto=5.0,
        backoff_base=2.0,
        max_retransmissions=0,
        coalescence=False,
        scid_scheme=ScidSchemeKind.UNIFORM_RANDOM,
    )
    config = DeploymentConfig(
        clusters=[
            ClusterConfig(
                vips=[f"203.0.{113 + v // 250}.{v % 250 + 1}" for v in range(303)],
                l7lb_count=8,
                host_id_base=0,
                routing_mode=RoutingMode.FIVE_TUPLE,
                profile=default_stack_profile("Facebook"),
                name="offnet",
            ),
            ClusterConfig(
                vips=bg_vips,
                l7lb_count=4,
                routing_mode=RoutingMode.FIVE_TUPLE,
                profile=bg_profile,
                name="background",
            ),
        ],
        flood=FloodConfig(sources=["100.64.0.1"], duration=0.2, sessions_per_vip=1),
        seed=77,
    )
    _, datagrams = simulate_to_pcap(config, tmp_path / "capture.pcap")
    records = list(ingest(datagrams))
    traits = group_traits(records, lambda r: r.src_ip)
    sessions = {}
    for session in sessions_of(records):
        sessions.setdefault(session.key.src_ip, []).append(session)
    truth_labels = {vip: "Facebook" for vip in config.clusters[0].vips}
    truth_labels.update({vip: offnet.NOT_OPERATOR for vip in bg_vips})
    truth = offnet.GroundTruth(truth_labels)

    predictions = {}
    for source, source_traits in traits.items():
        features = offnet.extract_features(source_traits, sessions[source])
        predictions[source] = offnet.classify(features, "SCID off-net (low host ID)")
    metrics = offnet.evaluate(predictions, truth, "Facebook")

    assert metrics.tpr == 1.0
    collision_rate = 2**-2 * 2**-9
    sigma = (collision_rate * (1 - collision_rate) / bg_sources) ** 0.5
    assert abs(metrics.fpr - collision_rate) <= 3 * sigma, (
        f"FPR {metrics.fpr:.6f} vs analytic {collision_rate:.6f} ± {3 * sigma:.6f}"
    )
    announce(
        7,
        f"TPR {metrics.tpr}, FPR {metrics.fpr:.2e} within 3σ of analytic {collision_rate:.2e}",
    )


# --- criterion 8: parser robustness -------------------------------------------


def test_criterion_8_parser_robustness():
    rng = np.random.default_rng(8)
    py_rng = random.Random(8)
    parse_errors = (TruncatedPacket, InvalidCidLength, NotLongHeader)

    # 500k random buffers
    lengths = rng.integers(0, 64, size=500000)
    blob = rng.integers(0, 256, size=int(lengths.sum()), dtype=np.uint8).tobytes()
    offset = 0
    for n in lengths:
        buf = blob[offset : offset + int(n)]
        offset += int(n)
        try:
            parse_long_header(buf)
        except parse_errors:
            pass
        split_coalesced(buf)

    # 500k mutated valid coalesced datagrams
    initial = encode_long_header(PacketType.INITIAL, 1, b"\xaa" * 8, b"\xbb" * 8, b"\x5a" * 30)
    handshake = encode_long_header(PacketType.HANDSHAKE, 1, b"\xaa" * 8, b"\xbb" * 8, b"\x5b" * 20)
    base = bytearray(initial + handshake)
    for _ in range(500000):
        buf = bytearray(base)
        for _ in range(py_rng.randint(1, 4)):
            buf[py_rng.randrange(len(buf))] = py_rng.randrange(256)
        split_coalesced(bytes(buf))

    # 10k-case encode -> parse round trip
    for _ in range(10000):
        packet_type = py_rng.choice([PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE, PacketType.RETRY])
        fields = (
            packet_type,
            py_rng.randint(1, 0xFFFFFFFF),
            py_rng.randbytes(py_rng.randint(0, 20)),
            py_rng.randbytes(py_rng.randint(0, 20)),
        )
        token = py_rng.randbytes(py_rng.randint(0, 16)) if packet_type == PacketType.INITIAL else b""
        payload = py_rng.randbytes(py_rng.randint(0, 100))
        data = encode_long_header(*fields, payload, token)
        assert parse_long_header(data) == LongHeader(*fields, token, payload, data[0], len(data))
    announce(8, "1M-iteration fuzz without crash; 10k round-trip cases")


# --- criterion 9: pipeline reproducibility ------------------------------------


def test_criterion_9_pipeline_reproducibility(tmp_path):
    deploy = {
        "seed": 99,
        "operator": "Google",
        "clusters": [
            {"vip_base": "198.51.32.1", "vip_count": 2, "l7lb_count": 16, "routing_mode": "five_tuple"}
        ],
        "flood": {"source_base": "100.64.0.0", "source_count": 120, "duration": 60.0},
    }
    config_path = tmp_path / "deploy.json"
    config_path.write_text(json.dumps(deploy))
    prefixes = tmp_path / "prefixes.tsv"
    prefixes.write_text("198.51.32.0/20\t15169\tGoogle\n")

    def run_pipeline(base):
        assert cli_main(["simulate", "--config", str(config_path), "--out-dir", str(base / "sim")]) == 0
        assert cli_main([
            "ingest", "--capture", str(base / "sim" / "capture.pcap"),
            "--prefix-table", str(prefixes), "--out-dir", str(base / "ing"),
        ]) == 0
        assert cli_main([
            "fingerprint", "--sessions", str(base / "ing" / "sessions.jsonl"),
            "--datagrams", str(base / "ing" / "datagrams.jsonl"),
            "--out-dir", str(base / "fp"), "--min-scids", "100",
        ]) == 0
        assert cli_main(["report", "--in-dir", str(base / "fp"), "--out-dir", str(base / "rep")]) == 0
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    base = tmp_path / "run"
    first = run_pipeline(base)
    for p in sorted(base.rglob("*"), reverse=True):
        p.unlink() if p.is_file() else p.rmdir()
    second = run_pipeline(base)
    assert first.keys() == second.keys()
    for name, blob in first.items():
        assert second[name] == blob, f"{name} differs between identical runs"
    announce(9, f"{len(first)} files byte-identical across two runs")
