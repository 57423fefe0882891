"""Deployment simulator: cluster construction, routing, response schedules,
connection-state semantics, and capture determinism."""

import hashlib
import io
import re
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quicscope.fingerprint import resend_rounds
from quicscope.ingest import group_traits, ingest
from quicscope.pcap import PcapWriter
from quicscope.scid import FacebookScidFields, decode_facebook_scid, encode_facebook_scid
from quicscope.sim import (
    _CLUSTER_FIELDS,
    _DEPLOYMENT_FIELDS,
    _FLOOD_FIELDS,
    _PROFILE_FIELDS,
    ClusterConfig,
    Connection,
    DeploymentConfig,
    DeploymentSimulator,
    FloodConfig,
    FrontendCluster,
    InvalidConfig,
    NotAVip,
    RoutingMode,
    ScidSchemeKind,
    SimError,
    StackProfile,
    VirtualClock,
    client_ack_payload,
    client_initial_payload,
    default_stack_profile,
    route,
    simulate_flood,
)
from quicscope.wire import PacketType, TruncatedPacket, encode_long_header, parse_long_header, split_coalesced

from conftest import NO_PACKET_PAYLOADS, sessions_of, simulate_to_pcap


def profile(operator="Facebook", **overrides):
    base = default_stack_profile(operator)
    if overrides:
        base = base._replace(**overrides)
    return base


def cluster_config(vip_count=1, l7lb_count=4, mode=RoutingMode.FIVE_TUPLE, operator="Facebook", **kw):
    vips = [f"203.0.113.{i + 1}" for i in range(vip_count)]
    return ClusterConfig(
        vips=vips,
        l7lb_count=l7lb_count,
        routing_mode=mode,
        profile=profile(operator),
        **kw,
    )


def client_initial(dcid=b"\x10" * 8, scid=b"\x20" * 8):
    return parse_long_header(encode_long_header(PacketType.INITIAL, 1, dcid, scid, b"\x5a" * 50))


class TestBuildCluster:
    def test_asia_median_cluster(self):
        cluster = FrontendCluster(cluster_config(vip_count=22, l7lb_count=453))
        assert len(cluster.vips) == 22
        assert len(cluster.instances) == 453
        assert len(set(cluster.by_host_id)) == 453

    def test_minimal_cluster(self):
        cluster = FrontendCluster(cluster_config(vip_count=1, l7lb_count=1))
        assert len(cluster.instances) == 1

    def test_duplicate_host_ids_rejected(self):
        with pytest.raises(InvalidConfig, match="duplicate host IDs"):
            cluster_config(host_ids=[1, 2, 2])

    def test_host_id_exceeding_scheme_width(self):
        with pytest.raises(InvalidConfig, match="host_id 65536 does not fit in 16 bits"):
            cluster_config(host_ids=[1 << 16])

    def test_sequential_from_base(self):
        cluster = FrontendCluster(cluster_config(l7lb_count=5, host_id_base=100))
        assert set(cluster.by_host_id) == {100, 101, 102, 103, 104}


class TestRoute:
    def test_not_a_vip(self):
        cluster = FrontendCluster(cluster_config())
        with pytest.raises(NotAVip):
            route(cluster, ("10.0.0.1", "8.8.8.8", 1234, 443, 17))

    def test_same_tuple_same_instance(self):
        cluster = FrontendCluster(cluster_config(l7lb_count=100))
        tup = ("10.0.0.1", cluster.vips[0], 4321, 443, 17)
        first = route(cluster, tup)
        for _ in range(10):
            assert route(cluster, tup) is first

    def test_repeated_and_interleaved_tuples_route_as_fresh(self):
        cfg = cluster_config(l7lb_count=24)
        cluster = FrontendCluster(cfg)

        def fresh(tup):
            return FrontendCluster(cfg).rendezvous(tup).host_id

        a = ("10.0.0.1", cluster.vips[0], 4321, 443, 17)
        b = next(
            tup for port in range(1024, 2048)
            if fresh(tup := ("10.0.0.1", cluster.vips[0], port, 443, 17)) != fresh(a)
        )
        sequence = [a, a, b, a, b, b]
        assert [route(cluster, tup).host_id for tup in sequence] == [fresh(tup) for tup in sequence]

    def test_port_variation_spreads_over_instances(self):
        cluster = FrontendCluster(cluster_config(l7lb_count=400))
        hit = set()
        for port in range(10000):
            tup = ("10.0.0.1", cluster.vips[0], 65535 - port, 443, 17)
            hit.add(route(cluster, tup).host_id)
        # balls-into-bins: P(instance unhit) = (1 - 1/400)^10000 ~ 1.3e-11
        assert len(hit) >= 0.95 * 400

    def test_cid_aware_routes_to_live_connection(self):
        cfg = cluster_config(mode=RoutingMode.CID_AWARE, operator="Google")
        sim = DeploymentSimulator(DeploymentConfig(clusters=[cfg], seed=1))
        cluster = sim.clusters[0]
        vip = cluster.vips[0]
        initial = client_initial()
        tup = ("10.0.0.1", vip, 5555, 443, 17)
        instance = route(cluster, tup, dcid=initial.dcid)
        conn = sim.serve_initial(cluster, instance, initial, tup)
        # any 5-tuple now reaches the connection's instance via its CID
        other_tup = ("99.99.99.99", vip, 11111, 443, 17)
        assert route(cluster, other_tup, dcid=conn.server_cid) is instance

    def test_cid_aware_host_id_decode(self):
        cfg = cluster_config(mode=RoutingMode.CID_AWARE, l7lb_count=50, operator="Facebook")
        cluster = FrontendCluster(cfg)
        dcid = encode_facebook_scid(FacebookScidFields(1, 37, 2, 0), random_bits=0x5EED5EED5EED)
        tup = ("10.0.0.1", cluster.vips[0], 7777, 443, 17)
        assert route(cluster, tup, dcid=dcid).host_id == 37


class TestRendezvousGolden:
    """Five-tuple -> host ID assignments of a 24-instance cluster, pinned so
    that any rewrite of the rendezvous hash routes every flow as before."""

    EXPECTED = [
        1018, 1008, 1006, 1008, 1010, 1018, 1015, 1020, 1016, 1022, 1007, 1011, 1015, 1006, 1002, 1010,
        1008, 1019, 1005, 1016, 1002, 1012, 1020, 1007, 1007, 1016, 1003, 1001, 1012, 1010, 1001, 1017,
    ]
    SWEEP_SHA256 = "8a753ccf506a391771becd4283baac0bad438ea7fdfa17943d6f39874287cd84"

    @pytest.fixture
    def cluster(self):
        return FrontendCluster(
            ClusterConfig(
                vips=["157.240.1.1", "157.240.1.2"],
                l7lb_count=24,
                host_id_base=1000,
                profile=profile("Facebook"),
                name="edge",
            )
        )

    def test_fixed_assignments(self, cluster):
        tuples = [
            (f"10.{i % 7}.{i % 13}.{i % 251}", cluster.vips[i % 2], 1024 + 997 * i % 64000, 443, 17)
            for i in range(32)
        ]
        assert [route(cluster, t).host_id for t in tuples] == self.EXPECTED

    def test_port_sweep_digest(self, cluster):
        ids = [
            cluster.rendezvous((f"198.51.100.{i % 256}", cluster.vips[i % 2], 1024 + i, 443, 17)).host_id
            for i in range(5000)
        ]
        assert len(set(ids)) == 24
        assert hashlib.sha256(",".join(map(str, ids)).encode()).hexdigest() == self.SWEEP_SHA256


def reference_rendezvous(name: str, host_ids: list[int], five_tuple: tuple) -> int:
    """The host ID whose splitmix64(instance key ^ tuple key) weight is
    highest, first on a tie, computed one instance at a time."""

    def key64(text: str) -> int:
        return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")

    mask = (1 << 64) - 1
    tuple_key = key64("%s|%s|%s|%s|%s" % five_tuple)
    best, pick = -1, None
    for host_id in host_ids:
        z = ((key64(f"l7lb|{name}|{host_id}") ^ tuple_key) + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        if z > best:
            best, pick = z, host_id
    return pick


class TestRendezvousEquivalence:
    """FrontendCluster.rendezvous picks what the one-instance-at-a-time
    splitmix64 loop picks, on fresh tuples and on repeats of the last one."""

    @pytest.mark.parametrize("n", [1, 2, 17, 24, 64, 400])
    def test_matches_reference_loop(self, n):
        import random

        rng = random.Random(n)
        cfg = cluster_config(vip_count=2, l7lb_count=n, host_id_base=rng.randrange(1000), name=f"c{n}")
        cluster = FrontendCluster(cfg)
        host_ids = cfg.instance_host_ids()
        for _ in range(200):
            tup = (
                f"{rng.randrange(1, 224)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}",
                rng.choice(cluster.vips),
                rng.randint(1024, 65535),
                443,
                17,
            )
            expected = reference_rendezvous(cfg.name, host_ids, tup)
            assert cluster.rendezvous(tup).host_id == expected
            assert cluster.rendezvous(tup).host_id == expected  # the last tuple again


class TestVirtualClock:
    def test_ordering_and_ties(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(2.0, lambda: fired.append("b"))
        clock.schedule(1.0, lambda: fired.append("a"))
        clock.schedule(2.0, lambda: fired.append("c"))
        clock.run_until(5.0)
        assert fired == ["a", "b", "c"]
        assert clock.now == 5.0

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
            ),
            max_size=300,
        ),
    )
    # the tied events fire in schedule order and leave the later one the whole heap
    @example([("schedule", 2.0), ("schedule", 0.0), ("schedule", 0.0), ("run", 0.5)])
    @settings(derandomize=True, max_examples=50, deadline=None)
    def test_matches_a_sorted_list(self, operations):
        # repeated times and runs
        clock = VirtualClock()
        fired = []
        pending = []  # the reference: (time, seq) of each event not yet fired
        reference_fired = []
        scheduled = 0
        for op, value in operations:
            if op == "schedule":
                seq, scheduled = scheduled, scheduled + 1
                clock.schedule(clock.now + value, lambda seq=seq: fired.append(seq))
                pending.append((clock.now + value, seq))
            else:
                until = clock.now + value
                clock.run_until(until)
                reference_fired.extend(seq for _, seq in sorted(e for e in pending if e[0] <= until))
                pending = [entry for entry in pending if entry[0] > until]
                assert clock.now == until
            assert fired == reference_fired
            assert sorted((at, seq) for at, seq, _ in clock._heap) == sorted(pending)

    def test_no_scheduling_in_the_past(self):
        clock = VirtualClock()
        clock.run_until(5.0)
        with pytest.raises(Exception):
            clock.schedule(1.0, lambda: None)


class TestServeInitial:
    def run_session(self, tmp_path, operator, duration=60.0):
        cfg = DeploymentConfig(
            clusters=[cluster_config(operator=operator)],
            flood=FloodConfig(sources=["100.64.0.1"], duration=duration),
            seed=3,
        )
        return simulate_to_pcap(cfg, tmp_path / "capture.pcap")

    def test_facebook_separate_datagram_rounds(self, tmp_path):
        _, datagrams = self.run_session(tmp_path, "Facebook")
        prof = default_stack_profile("Facebook")
        # 1 + max_retransmissions rounds, two datagrams each
        assert len(datagrams) == (1 + prof.max_retransmissions) * 2
        times = sorted({d.timestamp for d in datagrams})
        expected = [0.0] + [prof.initial_rto * 2.0**k for k in range(prof.max_retransmissions)]
        assert times == pytest.approx(expected)
        assert all(len(split_coalesced(d.payload)) == 1 for d in datagrams)

    def test_google_coalesced_rounds_echo_scid(self, tmp_path):
        truth, datagrams = self.run_session(tmp_path, "Google")
        prof = default_stack_profile("Google")
        assert len(datagrams) == 1 + prof.max_retransmissions
        for d in datagrams:
            packets = split_coalesced(d.payload)
            assert [p.packet_type for p in packets] == [PacketType.INITIAL, PacketType.HANDSHAKE]
        assert truth[0].server_scid == truth[0].client_dcid[:8]

    def test_facebook_scid_encodes_serving_instance(self, tmp_path):
        rows, _ = self.run_session(tmp_path, "Facebook")
        truth = rows[0]
        fields = decode_facebook_scid(truth.server_scid)
        assert fields.scid_version == 1
        assert fields.host_id == truth.host_id
        assert fields.worker_id == truth.worker_id

    def test_cloudflare_signature_scids(self, tmp_path):
        rows, _ = self.run_session(tmp_path, "Cloudflare")
        truth = rows[0]
        assert len(truth.server_scid) == 20
        assert truth.server_scid[0] == 0x01

    def test_duration_shorter_than_rto(self, tmp_path):
        _, datagrams = self.run_session(tmp_path, "Facebook", duration=0.2)
        assert len(datagrams) == 2  # single round: Initial + Handshake

    def test_ack_cancels_resends(self, tmp_path):
        cfg = DeploymentConfig(
            clusters=[cluster_config(operator="Facebook")],
            flood=FloodConfig(sources=["100.64.0.1"], duration=60.0, ack_probability=1.0),
            seed=3,
        )
        _, datagrams = simulate_to_pcap(cfg, tmp_path / "capture.pcap")
        assert len(datagrams) == 2  # only round 0 before the ACK landed

    def test_last_round_drops_the_packets(self):
        # without an ACK the connection holds its packets until the last
        # resend round is written, and then lets go of them
        sim = DeploymentSimulator(
            DeploymentConfig(clusters=[cluster_config(operator="Facebook")], seed=3),
            capture=PcapWriter(io.BytesIO()),
        )
        prof = sim.clusters[0].profile
        conn = sim.deliver("10.0.0.1", sim.clusters[0].vips[0], 4000, client_initial_payload(b"d" * 8, b"c" * 8))
        last = prof.initial_rto * prof.backoff_base ** (prof.max_retransmissions - 1)
        sim.clock.run_until(last * 0.99)
        assert len(conn.packets) == 2 and len(sim.clock._heap) == 1
        sim.clock.run_until(last)
        assert conn.packets is None
        assert sim.clock._heap == []

    def test_padding_policy_applied(self, tmp_path):
        _, datagrams = self.run_session(tmp_path, "Facebook")
        initial_datagrams = [
            d for d in datagrams
            if split_coalesced(d.payload)[0].packet_type == PacketType.INITIAL
        ]
        assert all(len(d.payload) == 1200 for d in initial_datagrams)


class TestConnectionState:
    """deliver's decision for a packet on a live server CID. The cluster is
    CID-aware, so a fresh 5-tuple reaches the instance holding the CID, and
    writes a capture, so the connection holds packets for pending resends."""

    def setup_method(self):
        cfg = DeploymentConfig(clusters=[cluster_config(mode=RoutingMode.CID_AWARE)], seed=9)
        self.sim = DeploymentSimulator(cfg, capture=PcapWriter(io.BytesIO()))
        self.cluster = self.sim.clusters[0]
        self.conn = self.deliver("10.0.0.1", 4000, dcid=b"\x77" * 8, scid=b"\x88" * 8)
        self.packets = self.conn.packets

    def deliver(self, src, port, dcid, scid, packet_type=PacketType.INITIAL):
        payload = encode_long_header(packet_type, 1, dcid, scid, b"\x5a" * 50)
        return self.sim.deliver(src, self.cluster.vips[0], port, payload)

    # another client CID, another 5-tuple, or both
    @pytest.mark.parametrize(
        "src, port, scid",
        [("10.0.0.2", 5000, b"\x99" * 8), ("10.0.0.2", 5000, b"\x88" * 8), ("10.0.0.1", 4000, b"\x99" * 8)],
        ids=["new-cid-new-tuple", "same-cid-new-tuple", "new-cid-same-tuple"],
    )
    def test_fresh_initial_reusing_live_cid_discarded(self, src, port, scid):
        assert self.deliver(src, port, dcid=self.conn.server_cid, scid=scid) is None
        assert list(self.cluster.connections) == [self.conn]
        assert self.conn.packets is self.packets and len(self.packets) == 2

    def test_unknown_dcid_initial_is_new_connection(self):
        conn = self.deliver("10.0.0.3", 6000, dcid=b"\x01" * 8, scid=b"\x02" * 8)
        assert conn is not None and conn.client_cid == b"\x02" * 8
        assert list(self.cluster.connections) == [self.conn, conn]

    def test_unknown_dcid_handshake_is_discarded(self):
        assert self.deliver("10.0.0.3", 6000, b"\x01" * 8, b"\x02" * 8, PacketType.HANDSHAKE) is None
        assert list(self.cluster.connections) == [self.conn]

    def test_consistent_continuation_accepted(self):
        assert self.deliver("10.0.0.1", 4000, dcid=self.conn.server_cid, scid=b"\x88" * 8) is None
        assert list(self.cluster.connections) == [self.conn]
        assert self.conn.packets is None

    def test_state_expires_after_lifetime(self):
        self.sim.clock.run_until(239.9)
        assert self.deliver("10.0.0.2", 5000, dcid=self.conn.server_cid, scid=b"\x99" * 8) is None
        assert list(self.cluster.connections) == [self.conn]
        self.sim.clock.run_until(240.0)
        conn = self.deliver("10.0.0.2", 5000, dcid=self.conn.server_cid, scid=b"\x99" * 8)
        assert conn is not None and conn.client_cid == b"\x99" * 8
        # the held CID names its host ID, so the new connection opens there
        assert conn.instance is self.conn.instance
        assert self.conn.instance.connection_table == {conn.server_cid: conn}
        assert self.cluster.cid_directory == {conn.server_cid: conn}
        assert list(self.cluster.connections) == [conn]


class TestDeliver:
    def test_returns_the_connection_it_opened(self):
        sim = DeploymentSimulator(
            DeploymentConfig(clusters=[cluster_config()], seed=9), capture=PcapWriter(io.BytesIO()), truth=[]
        )
        vip = sim.clusters[0].vips[0]

        def from_client(payload):
            return sim.deliver("10.0.0.1", vip, 4000, payload)

        conn = from_client(encode_long_header(PacketType.INITIAL, 1, b"\x10" * 8, b"\x20" * 8, b"\x5a" * 50))
        assert conn is not None
        assert conn.server_cid == sim.truth[-1].server_scid
        assert conn.packets is not None
        # the ACK continues that connection, opens none, and stops its resends
        assert from_client(client_ack_payload(conn.server_cid, b"\x20" * 8)) is None
        assert conn.packets is None

    @pytest.mark.parametrize("payload", NO_PACKET_PAYLOADS.values(), ids=list(NO_PACKET_PAYLOADS))
    def test_datagram_without_a_packet_is_dropped(self, payload):
        sim = DeploymentSimulator(DeploymentConfig(clusters=[cluster_config()], seed=9), truth=[])
        cluster = sim.clusters[0]
        assert sim.deliver("10.0.0.1", cluster.vips[0], 4000, payload) is None
        assert sim.truth == [] and not cluster.connections
        assert all(not instance.connection_table for instance in cluster.instances)

    def test_cut_payload_ends_inside_the_scid(self):
        with pytest.raises(TruncatedPacket, match="payload ends inside SCID"):
            parse_long_header(NO_PACKET_PAYLOADS["cut-inside-scid"])

    def test_coalesced_datagram_is_routed_by_its_first_packet(self):
        sim = DeploymentSimulator(
            DeploymentConfig(clusters=[cluster_config()], seed=9), capture=PcapWriter(io.BytesIO()), truth=[]
        )
        cluster = sim.clusters[0]

        def from_client(payload):
            return sim.deliver("10.0.0.1", cluster.vips[0], 4000, payload)

        conn = from_client(client_initial_payload(b"\x10" * 8, b"\x20" * 8))
        ack = client_ack_payload(conn.server_cid, b"\x20" * 8)
        fresh_initial = encode_long_header(PacketType.INITIAL, 1, b"\x11" * 8, b"\x21" * 8, b"\x5a" * 50)
        # a fresh Initial first opens a connection; the ACK behind it is not read
        second = from_client(fresh_initial + ack)
        assert second is not None and second.client_cid == b"\x21" * 8
        assert conn.packets is not None
        # the ACK first continues the connection; the Initial behind it opens none
        assert from_client(ack + fresh_initial) is None
        assert conn.packets is None
        assert list(cluster.connections) == [conn, second]


class TestExpiry:
    def test_taken_over_echo_cid_outlives_its_first_connection(self):
        # Google echoes the first 8 octets of the client's DCID, so two
        # clients whose DCIDs share them get the same server CID
        cfg = cluster_config(l7lb_count=8, mode=RoutingMode.CID_AWARE, operator="Google")
        sim = DeploymentSimulator(DeploymentConfig(clusters=[cfg], seed=9))
        cluster = sim.clusters[0]
        vip = cluster.vips[0]
        held = cluster.rendezvous(("10.0.0.1", vip, 4000, 443, 17))
        port = next(p for p in range(4001, 5000) if cluster.rendezvous(("10.0.0.2", vip, p, 443, 17)) is not held)

        def from_client(src, src_port, payload):
            return sim.deliver(src, vip, src_port, payload)

        prefix = b"\x10" * 8
        first = from_client("10.0.0.1", 4000, client_initial_payload(prefix + b"\x01\x01", b"\x21" * 8))
        sim.clock.run_until(100.0)
        second = from_client("10.0.0.2", port, client_initial_payload(prefix + b"\x02\x02", b"\x22" * 8))
        assert first.server_cid == second.server_cid == prefix
        assert first.instance is held and second.instance is not held
        assert cluster.cid_directory == {prefix: second}
        # the first connection expires as the second client's ACK arrives
        sim.clock.run_until(240.0)
        assert from_client("10.0.0.2", port, client_ack_payload(prefix, b"\x22" * 8)) is None
        assert list(cluster.connections) == [second]
        assert cluster.cid_directory == {prefix: second}
        assert second.instance.connection_table == {prefix: second}
        assert first.instance.connection_table == {}


class TestCaptureCarriesTruth:
    @pytest.mark.parametrize("operator", ["Facebook", "Google", "Cloudflare"])
    def test_every_response_carries_its_truth_rows_scid(self, tmp_path, operator):
        # the first packet of each response datagram, resends included, names
        # the server CID its handshake's truth row records
        cfg = DeploymentConfig(
            clusters=[cluster_config(vip_count=3, l7lb_count=6, operator=operator)],
            flood=FloodConfig(
                sources=[f"100.64.0.{i}" for i in range(1, 11)],
                duration=30.0,
                sessions_per_vip=8,
                arrival_window=5.0,
                ack_probability=0.5,
            ),
            seed=3,
        )
        truth, datagrams = simulate_to_pcap(cfg, tmp_path / "capture.pcap")
        by_client = {(t.vip, t.source, t.source_port): t.server_scid for t in truth}
        assert len(by_client) == len(truth) == 24
        assert len(datagrams) > len(truth)
        for d in datagrams:
            assert parse_long_header(d.payload).scid == by_client[(d.src_ip, d.dst_ip, d.dst_port)]
        assert {(d.src_ip, d.dst_ip, d.dst_port) for d in datagrams} == set(by_client)


class TestScidCollisions:
    """_generate_scid draws again when it draws an SCID already in the
    instance's connection table, and raises after eight such draws."""

    @staticmethod
    def scripted(monkeypatch, draws):
        # one instance with worker 0 every time, so the draws alone pick the SCID
        sim = DeploymentSimulator(DeploymentConfig(clusters=[cluster_config(l7lb_count=1)], seed=9))
        draws, widths = iter(draws), []
        monkeypatch.setattr(sim.rng, "randrange", lambda n: 0)
        monkeypatch.setattr(sim.rng, "getrandbits", lambda k: widths.append(k) or next(draws))
        return sim, widths

    @staticmethod
    def serve(sim, port):
        cluster = sim.clusters[0]
        instance = cluster.instances[0]
        return sim.serve_initial(cluster, instance, client_initial(), ("10.0.0.1", cluster.vips[0], port, 443, 17))

    def test_taken_scid_is_drawn_again(self, monkeypatch):
        sim, widths = self.scripted(monkeypatch, [0xAB, 0xAB, 0xCD])
        instance = sim.clusters[0].instances[0]
        fields = FacebookScidFields(1, instance.host_id, 0, sim.clusters[0].profile.process_id)
        first = self.serve(sim, 4000)
        second = self.serve(sim, 4001)
        assert first.server_cid == encode_facebook_scid(fields, random_bits=0xAB)
        assert second.server_cid == encode_facebook_scid(fields, random_bits=0xCD)
        assert widths == [64, 64, 64]
        assert instance.connection_table == {first.server_cid: first, second.server_cid: second}

    def test_eight_taken_draws_raise(self, monkeypatch):
        sim, widths = self.scripted(monkeypatch, [0xAB] * 9)
        first = self.serve(sim, 4000)
        with pytest.raises(SimError, match="^could not generate a unique server CID$"):
            self.serve(sim, 4001)
        assert widths == [64] * 9
        assert sim.clusters[0].instances[0].connection_table == {first.server_cid: first}


class TestEncodedBytesGolden:
    """The client payloads and one response round per shipped profile, pinned
    byte for byte so a rewrite of the long-header encoder changes no output."""

    def test_client_initial_payload(self):
        payload = client_initial_payload(b"\x10" * 8, b"\x20" * 8)
        assert len(payload) == 1200
        assert payload[:40].hex() == (
            "c0000000010810101010101010100820202020202020200040785a5a5a5a5a5a5a5a5a5a5a5a5a5a"
        )
        assert hashlib.sha256(payload).hexdigest() == (
            "ef9079109ecd5065735c3f7ee0eb388bc597eb98b8e48d9556e4618f51bdc3cd"
        )

    def test_client_ack_payload(self):
        payload = client_ack_payload(b"\x30" * 8, b"\x20" * 8)
        assert payload.hex() == "c000000001083030303030303030082020202020202020000101"

    # operator, profile overrides, server CID -> (payload lengths, sha256 of the payloads)
    ROUNDS = {
        "facebook-separate": ("Facebook", {}, b"\x41" * 8),
        "facebook-unpadded": ("Facebook", {"padding_policy": {}}, b"\x41" * 8),
        "google-coalesced": ("Google", {}, b"\x10" * 8),
        "cloudflare-coalesced": ("Cloudflare", {}, b"\x01" + b"\x42" * 19),
    }
    EXPECTED = {
        "facebook-separate": ([1200, 115], "d5a1052b422764221b0d9efadfb4cd29f0f913fdad7bad208701efacafe755d3"),
        "facebook-unpadded": ([146, 115], "ea11183c7946c3a5b49dbef0844c94f1586aa2f2d7a988a0cc34996a355c973e"),
        "google-coalesced": ([1252], "e7784af709f5821dee2854f9b44269cc20c68bf8a2324e7bcdcea67d34832b68"),
        "cloudflare-coalesced": ([1250], "73ab751c1aecc8788db3f54f2e1a794b29ce5cbace934f108ec34affef94e732"),
    }

    @pytest.mark.parametrize("case", sorted(ROUNDS))
    def test_response_round(self, case):
        operator, overrides, server_cid = self.ROUNDS[case]
        cfg = ClusterConfig(vips=["203.0.113.1"], l7lb_count=1, profile=profile(operator, **overrides))
        sim = DeploymentSimulator(DeploymentConfig(clusters=[cfg], seed=1))
        cluster = sim.clusters[0]
        five_tuple = ("10.0.0.1", "203.0.113.1", 5555, 443, 17)
        conn = Connection(server_cid, b"\x20" * 8, five_tuple, cluster.instances[0], 240.0)
        datagrams = sim._response_datagrams(cluster, conn)
        assert all(
            (d.timestamp, d.src_ip, d.dst_ip, d.src_port, d.dst_port) == (0.0, "203.0.113.1", "10.0.0.1", 443, 5555)
            for d in datagrams
        )
        lengths = [len(d.payload) for d in datagrams]
        digest = hashlib.sha256(b"".join(d.payload for d in datagrams)).hexdigest()
        assert (lengths, digest) == self.EXPECTED[case]


class TestFloodDeterminism:
    def make_config(self, seed):
        return DeploymentConfig(
            clusters=[cluster_config(vip_count=3, l7lb_count=20, operator="Facebook")],
            flood=FloodConfig(sources=[f"100.64.0.{i}" for i in range(1, 40)], duration=60.0),
            seed=seed,
        )

    def test_identical_seed_identical_capture(self, tmp_path):
        pa, pb = tmp_path / "a.pcap", tmp_path / "b.pcap"
        simulate_to_pcap(self.make_config(7), pa)
        simulate_to_pcap(self.make_config(7), pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a = simulate_flood(self.make_config(7))
        b = simulate_flood(self.make_config(8))
        assert [t.server_scid for t in a] != [t.server_scid for t in b]

    def test_rounds_bounded_by_config(self, tmp_path):
        _, datagrams = simulate_to_pcap(self.make_config(7), tmp_path / "capture.pcap")
        prof = default_stack_profile("Facebook")
        records = list(ingest(datagrams))
        sessions = sessions_of(records)
        assert len(sessions) == 39
        for s in sessions:
            assert len(resend_rounds(s)) <= 1 + prof.max_retransmissions

    def test_resend_mode_matches_configured_range(self, tmp_path):
        from quicscope.fingerprint import resend_count_distribution

        for operator, low, high in (("Facebook", 7, 9), ("Google", 3, 6)):
            cfg = DeploymentConfig(
                clusters=[cluster_config(vip_count=1, l7lb_count=10, operator=operator)],
                flood=FloodConfig(sources=[f"100.64.1.{i}" for i in range(1, 50)], duration=60.0),
                seed=2,
            )
            _, datagrams = simulate_to_pcap(cfg, tmp_path / f"{operator}.pcap")
            records = [r._replace(operator=operator) for r in ingest(datagrams)]
            sessions = sessions_of(records)
            hist = resend_count_distribution(sessions)
            mode = max(hist, key=hist.get)
            assert low <= mode <= high
            counts = group_traits(records, lambda r: r.operator)[operator].type_counts()
            if operator == "Google":
                # coalescing stack: the combined category dominates outright
                assert counts["Initial & Handshake"] > sum(counts.values()) / 2
            else:
                assert not any("&" in category for category in counts)

    def test_sessions_per_vip(self):
        cfg = DeploymentConfig(
            clusters=[cluster_config(vip_count=4, l7lb_count=5, operator="Facebook")],
            flood=FloodConfig(sources=["100.64.9.9"], duration=0.1, sessions_per_vip=3),
            seed=1,
        )
        per_vip = {}
        for t in simulate_flood(cfg):
            per_vip[t.vip] = per_vip.get(t.vip, 0) + 1
        assert per_vip == {vip: 3 for vip in cfg.clusters[0].vips}


def pcap_records(path):
    """(timestamp, packet bytes) of every record in a pcap we wrote."""
    data = path.read_bytes()
    records, offset = [], 24
    while offset < len(data):
        sec, usec, length, _ = struct.unpack_from("<IIII", data, offset)
        offset += 16
        records.append((sec + usec / 1e6, data[offset : offset + length]))
        offset += length
    return records


class TestStreamedCapture:
    def flood_config(self, retransmissions, sources=1000):
        return DeploymentConfig(
            clusters=[
                ClusterConfig(
                    vips=["203.0.113.1", "203.0.113.2"],
                    l7lb_count=8,
                    profile=profile("Facebook", max_retransmissions=retransmissions),
                )
            ],
            flood=FloodConfig(sources=[f"100.64.{i // 250}.{i % 250 + 1}" for i in range(sources)], duration=60.0),
            seed=5,
        )

    def stream_flood(self, path, retransmissions):
        with path.open("wb") as fh:
            capture = PcapWriter(fh)
            simulate_flood(self.flood_config(retransmissions), capture)
        assert capture.records == 1000 * 2 * (1 + retransmissions)

    def test_peak_memory_independent_of_rounds(self, tmp_path):
        # the capture streams to disk, so eight resend rounds per handshake
        # cost no more memory than one; a capture held in memory reads over
        # three times higher at eight. An untraced first run fills the
        # interpreter's free lists, whose reuse tracemalloc does not see, so
        # neither traced run reads high for going first; the 1.5 bound leaves
        # room for what allocator noise remains.
        self.stream_flood(tmp_path / "warm-up.pcap", 1)
        peaks = {}
        for retransmissions in (1, 8):
            tracemalloc.start()
            try:
                self.stream_flood(tmp_path / f"r{retransmissions}.pcap", retransmissions)
                peaks[retransmissions] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.5 * peaks[1]
        assert peaks[1] <= 1.5 * peaks[8]

    def test_rounds_repeat_identical_packets(self, tmp_path):
        path = tmp_path / "capture.pcap"
        simulate_to_pcap(self.flood_config(8, sources=1), path)
        records = pcap_records(path)
        assert len(records) == 2 * 9
        rounds = [records[i : i + 2] for i in range(0, len(records), 2)]
        for later in rounds[1:]:
            assert [packet for _, packet in later] == [packet for _, packet in rounds[0]]
        times = [r[0][0] for r in rounds]
        assert all(r[1][0] == t for r, t in zip(rounds, times))
        assert times == sorted(set(times))


class TestDeploymentConfigJson:
    def test_round_trip_from_dict(self):
        raw = {
            "seed": 11,
            "operator": "Google",
            "clusters": [
                {"vip_base": "203.0.113.0", "vip_count": 2, "l7lb_count": 3, "routing_mode": "cid_aware"}
            ],
            "flood": {"source_base": "100.64.0.0", "source_count": 5, "duration": 10.0},
        }
        cfg = DeploymentConfig.from_dict(raw)
        assert cfg.seed == 11
        assert cfg.clusters[0].vips == ["203.0.113.0", "203.0.113.1"]
        assert cfg.clusters[0].routing_mode == RoutingMode.CID_AWARE
        assert cfg.clusters[0].profile.operator == "Google"
        assert len(cfg.flood.sources) == 5

    def test_explicit_profile(self):
        raw = {
            "clusters": [
                {
                    "vips": ["198.51.100.1"],
                    "l7lb_count": 1,
                    "profile": {
                        "operator": "lab",
                        "initial_rto": 0.5,
                        "max_retransmissions": 2,
                        "scid_scheme": "uniform_random",
                    },
                }
            ]
        }
        cfg = DeploymentConfig.from_dict(raw)
        assert cfg.clusters[0].profile.initial_rto == 0.5

    def test_missing_profile_rejected(self):
        with pytest.raises(InvalidConfig):
            DeploymentConfig.from_dict({"clusters": [{"vips": ["1.2.3.4"], "l7lb_count": 1}]})


# every field of every section from_dict builds, defaults included
FLOOD_DEFAULTS = {"sessions_per_vip": None, "arrival_window": 0.0, "ack_probability": 0.0, "ack_delay": 0.05}
CLUSTER_DEFAULTS = {
    "l7lb_count": 0,
    "host_ids": None,
    "host_id_base": 0,
    "workers": 4,
    "routing_mode": RoutingMode.FIVE_TUPLE,
    "state_lifetime": 240.0,
}


def asdict(value):
    """A config as nested dicts, as dataclasses.asdict has it: every named
    tuple becomes a dict of its fields, recursively, inside lists too."""
    if hasattr(value, "_asdict"):
        return {name: asdict(field) for name, field in value._asdict().items()}
    if isinstance(value, list):
        return [asdict(item) for item in value]
    return value


class TestDeploymentConfigFields:
    def test_readme_walkthrough_config(self):
        raw = {
            "seed": 7,
            "operator": "Facebook",
            "clusters": [
                {"vip_base": "198.51.100.0", "vip_count": 2, "l7lb_count": 24, "routing_mode": "five_tuple"}
            ],
            "flood": {"source_base": "100.64.0.0", "source_count": 600, "duration": 60.0},
        }
        facebook = {
            "operator": "Facebook",
            "initial_rto": 0.4,
            "backoff_base": 2.0,
            "max_retransmissions": 8,
            "coalescence": False,
            "scid_scheme": ScidSchemeKind.FACEBOOK_V1,
            "scid_length": 8,
            "version": 1,
            "process_id": 0,
            "padding_policy": {"Initial": 1200},
        }
        assert asdict(DeploymentConfig.from_dict(raw)) == {
            "clusters": [
                dict(
                    CLUSTER_DEFAULTS,
                    vips=["198.51.100.0", "198.51.100.1"],
                    l7lb_count=24,
                    profile=facebook,
                    name="cluster0",
                )
            ],
            "flood": dict(
                FLOOD_DEFAULTS, sources=[f"100.64.{i // 256}.{i % 256}" for i in range(600)], duration=60.0
            ),
            "seed": 7,
        }

    def test_explicit_profile_defaults(self):
        raw = {
            "clusters": [
                {"vips": ["198.51.100.1"], "host_ids": [5, 9], "profile": {"initial_rto": 0.5, "max_retransmissions": 2}},
                {
                    "operator": "lab",
                    "vips": ["198.51.100.2"],
                    "l7lb_count": 3,
                    "host_id_base": 10,
                    "workers": 2,
                    "routing_mode": "cid_aware",
                    "state_lifetime": 30.0,
                    "name": "edge",
                    "profile": {
                        "initial_rto": 1.5,
                        "backoff_base": 1.5,
                        "max_retransmissions": 0,
                        "coalescence": True,
                        "scid_scheme": "cloudflare_fixed",
                        "scid_length": 20,
                        "version": 0xFF00001D,
                        "process_id": 1,
                        "padding_policy": {"Initial & Handshake": 1250},
                    },
                },
            ]
        }
        assert asdict(DeploymentConfig.from_dict(raw)) == {
            "clusters": [
                dict(
                    CLUSTER_DEFAULTS,
                    vips=["198.51.100.1"],
                    host_ids=[5, 9],
                    profile={
                        "operator": "custom",
                        "initial_rto": 0.5,
                        "backoff_base": 2.0,
                        "max_retransmissions": 2,
                        "coalescence": False,
                        "scid_scheme": ScidSchemeKind.UNIFORM_RANDOM,
                        "scid_length": 8,
                        "version": 1,
                        "process_id": 0,
                        "padding_policy": {},
                    },
                    name="cluster0",
                ),
                {
                    "vips": ["198.51.100.2"],
                    "l7lb_count": 3,
                    "host_ids": None,
                    "host_id_base": 10,
                    "workers": 2,
                    "routing_mode": RoutingMode.CID_AWARE,
                    "state_lifetime": 30.0,
                    "profile": {
                        "operator": "lab",
                        "initial_rto": 1.5,
                        "backoff_base": 1.5,
                        "max_retransmissions": 0,
                        "coalescence": True,
                        "scid_scheme": ScidSchemeKind.CLOUDFLARE_FIXED,
                        "scid_length": 20,
                        "version": 0xFF00001D,
                        "process_id": 1,
                        "padding_policy": {"Initial & Handshake": 1250},
                    },
                    "name": "edge",
                },
            ],
            "flood": None,
            "seed": 0,
        }

    def test_minimal_flood(self):
        raw = {
            "operator": "Google",
            "clusters": [{"vips": ["203.0.113.1"], "l7lb_count": 1}],
            "flood": {"sources": ["100.64.0.1"], "duration": 1.0},
        }
        cfg = DeploymentConfig.from_dict(raw)
        assert asdict(cfg.flood) == dict(FLOOD_DEFAULTS, sources=["100.64.0.1"], duration=1.0)
        assert cfg.clusters[0].profile == default_stack_profile("Google")
        assert (cfg.clusters[0].name, cfg.seed) == ("cluster0", 0)

    @pytest.mark.parametrize(
        "cluster,flood,message",
        [
            ({"vips": ["300.1.1.1"]}, {}, "key 'vips': Octet 300 (> 255) not permitted in '300.1.1.1'"),
            ({"vips": ["2001:db8::1"]}, {}, "key 'vips': Expected 4 octets in '2001:db8::1'"),
            ({"vips": [], "vip_base": "nohost", "vip_count": 2}, {}, "key 'vip_base': Expected 4 octets in 'nohost'"),
            ({"vips": [], "vip_base": "255.255.255.255", "vip_count": 2}, {}, "4294967296 (>= 2**32) is not permitted as an IPv4 address"),
            ({}, {"sources": ["nohost"]}, "key 'sources': Expected 4 octets in 'nohost'"),
            ({}, {"sources": [], "source_base": "100.64.0.256", "source_count": 1}, "key 'source_base': Octet 256 (> 255) not permitted"),
            ({}, {"duration": -5.0}, "duration must be >= 0, got -5.0"),
            ({}, {"sessions_per_vip": 0}, "sessions_per_vip must be >= 1, got 0"),
            ({}, {"sessions_per_vip": -2}, "sessions_per_vip must be >= 1, got -2"),
            ({}, {"ack_probability": 1.5}, "ack_probability must be in [0, 1], got 1.5"),
            ({}, {"ack_probability": -3.0}, "ack_probability must be in [0, 1], got -3.0"),
            ({"profile": {"initial_rto": 0.4, "max_retransmissions": 3, "backoff_base": 0.5}}, {}, "backoff_base must be >= 1, got 0.5"),
            ({"profile": {"initial_rto": 0.4, "max_retransmissions": 3, "backoff_base": -2.0}}, {}, "backoff_base must be >= 1, got -2.0"),
        ],
        ids=[
            "vip-octet", "vip-ipv6", "vip-base-name", "vip-range-past-end", "source-name", "source-base-octet",
            "negative-duration", "no-sessions-per-vip", "negative-sessions-per-vip", "ack-probability-above-one",
            "negative-ack-probability", "backoff-base-below-one", "negative-backoff-base",
        ],
    )
    def test_rejected_values(self, cluster, flood, message):
        raw = {
            "clusters": [{"operator": "Google", "vips": ["203.0.113.1"], "l7lb_count": 1, **cluster}],
            "flood": {"sources": ["100.64.0.1"], "duration": 1.0, **flood},
        }
        with pytest.raises(ValueError, match=re.escape(message)):
            DeploymentConfig.from_dict(raw)

    def test_zero_duration_is_accepted(self):
        raw = {
            "clusters": [{"operator": "Google", "vips": ["203.0.113.1"], "l7lb_count": 1}],
            "flood": {"sources": ["100.64.0.1"], "duration": 0.0, "sessions_per_vip": 1},
        }
        assert DeploymentConfig.from_dict(raw).flood.duration == 0.0

    @pytest.mark.parametrize(
        "table,cls",
        [
            (_PROFILE_FIELDS, StackProfile),
            (_CLUSTER_FIELDS, ClusterConfig),
            (_FLOOD_FIELDS, FloodConfig),
            (_DEPLOYMENT_FIELDS, DeploymentConfig),
        ],
        ids=["profile", "cluster", "flood", "deployment"],
    )
    def test_field_tables_declare_dataclass_fields(self, table, cls):
        # a table key is a field of its class or a key from_dict derives fields from
        derived = {"operator", "profile", "vip_base", "vip_count", "source_base", "source_count"}
        names = set(cls._fields)
        assert set(table) <= names | derived
        assert names <= set(table)


class TestCheckedConstruction:
    """Every record class that checks its fields checks them on each way to
    build one: the call, _replace and _make."""

    @staticmethod
    def cases():
        from quicscope.fingerprint import FingerprintError, RtoEstimate
        from quicscope.probe import LbType, LbTypeVerdict, ProbeError
        from quicscope.scid import SchemeKind, ScidAnalysisError, ScidScheme

        cluster = cluster_config()
        return [
            (default_stack_profile("Facebook"), {"initial_rto": 0}, InvalidConfig, "initial_rto must be positive"),
            (cluster, {"workers": 0}, InvalidConfig, "workers must be >= 1"),
            (FloodConfig(["100.64.0.1"], 1.0), {"duration": -1.0}, InvalidConfig, "duration must be >= 0"),
            (DeploymentConfig([cluster]), {"clusters": [cluster, cluster]}, InvalidConfig, "assigned to two clusters"),
            (RtoEstimate(0.4, 2.0, (7, 9), 10), {"backoff_base": 0.5}, FingerprintError, "below 1"),
            (ScidScheme(SchemeKind.RANDOM), {"kind": SchemeKind.STRUCTURED}, ScidAnalysisError, "flagged positions"),
            (LbTypeVerdict(LbType.FIVE_TUPLE), {"kind": LbType.CID_AWARE}, ProbeError, "positive fail window"),
        ]

    def test_replace_and_make_run_the_check(self):
        for valid, bad, error, message in self.cases():
            assert valid._replace() == valid
            with pytest.raises(error, match=re.escape(message)):
                valid._replace(**bad)
            with pytest.raises(error, match=re.escape(message)):
                type(valid)._make(bad.get(name, value) for name, value in zip(valid._fields, valid))
            with pytest.raises(error, match=re.escape(message)):
                type(valid)(**dict(valid._asdict(), **bad))

    def test_computed_defaults_are_filled_per_instance(self):
        from quicscope.probe import HostIdHarvest

        a, b = StackProfile("lab", 0.5, 2), StackProfile("lab", 0.5, 2)
        assert a.padding_policy == {} and a.padding_policy is not b.padding_policy
        assert a._replace(initial_rto=1.0).padding_policy is a.padding_policy
        harvest = HostIdHarvest("v")
        assert harvest.observations == [] and harvest.observations is not HostIdHarvest("v").observations
